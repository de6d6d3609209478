"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Each test prints a single `[criterion NN] PASS/FAIL name (detail)` line so the
suite output doubles as a checklist. Tolerances are part of the contract and
are not to be loosened here.
"""

import itertools
import math

import numpy as np
import pytest

from ellest import (
    CONTRACTION,
    PARALLELOTOPE,
    Ellitope,
    EstimationProblem,
    SRiskProblem,
    TSet,
    UncertaintyModel,
    build_linear_estimate,
    build_robust_estimate,
    build_srisk_estimate,
    chi2_tail_bound,
    check_rademacher_moment,
    empirical_risk,
    exact_risk_on_ellipsoid,
    factor_bound,
    relax_quadratic_max,
    round_rademacher,
    run_pendulum_experiment,
    run_suboptimality_experiment,
    solve_bayesian_sdp,
    srisk_lower_bound,
    verify_robust_feasibility,
    whole_space_estimate,
)
from ellest.experiments import (
    BOX,
    ELLIPSOID,
    PENDULUM,
    ScenarioConfig,
    build_pendulum_problem,
    rk4_positions,
)
from ellest.rng import stream
from ellest.solver.cones import ConeDims
from ellest.solver.ipm import conelp

from conftest import random_psd


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_scalar_design_oracle():
    worst = 0.0
    for sigma in (0.1, 1.0, 10.0):
        prob = EstimationProblem(np.array([[1.0]]), np.array([[1.0]]), sigma,
                                 Ellitope.ellipsoid(np.array([[1.0]])))
        est = build_linear_estimate(prob)
        expect = sigma ** 2 / (1.0 + sigma ** 2)
        worst = max(worst, abs(est.opt - expect))
    _report(1, "scalar design oracle", worst <= 1e-6, f"max |Opt - oracle| {worst:.2e}")


def test_criterion_02_design_duality():
    variants = ("segment", "box", "p2", "p4")
    worst = 0.0
    seen = set()
    for trial in range(50):
        rng = stream(1002, trial)
        v = variants[trial % 4]
        K = 1 if v == "segment" else int(rng.integers(2, 9))
        n = int(rng.integers(max(2, K // 2 + 1), 17))
        m = int(rng.integers(2, 17))
        nu = int(rng.integers(1, 9))
        S = np.empty((K, n, n))
        for k in range(K):
            S[k] = random_psd(rng, n, rank=max(1, n // 2))
        S[0] += 0.1 * np.eye(n)
        tset = {"segment": TSet.unit_segment(),
                "box": TSet.unit_box(K),
                "p2": TSet.pnorm_ball(K, 2.0),
                "p4": TSet.pnorm_ball(K, 4.0)}[v]
        seen.add(tset.variant)
        ell = Ellitope(n, S, tset)
        prob = EstimationProblem(rng.normal(size=(m, n)) / np.sqrt(n),
                                 rng.normal(size=(nu, n)) / np.sqrt(n),
                                 float(rng.uniform(0.05, 1.0)), ell)
        est = build_linear_estimate(prob)
        bs = solve_bayesian_sdp(prob)
        worst = max(worst, abs(est.opt - bs.opt_star) / (1.0 + est.opt))
    ok = worst <= 1e-5 and len(seen) == 3
    _report(2, "design equals Bayesian dual on 50 instances", ok,
            f"max rel gap {worst:.2e}, variants {sorted(seen)}")


def test_criterion_03_ellipsoid_exactness():
    worst = 0.0
    for trial in range(20):
        rng = stream(1003, trial)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        nu = int(rng.integers(1, 5))
        S1 = random_psd(rng, n) + 0.2 * np.eye(n)
        prob = EstimationProblem(rng.normal(size=(m, n)),
                                 rng.normal(size=(nu, n)),
                                 float(rng.uniform(0.1, 1.0)),
                                 Ellitope.ellipsoid(S1))
        est = build_linear_estimate(prob)
        exact = exact_risk_on_ellipsoid(est.H, prob)
        worst = max(worst, abs(exact - est.opt) / (1.0 + abs(est.opt)))
    _report(3, "certificate exact on 20 ellipsoid instances", worst <= 1e-6,
            f"max rel dev {worst:.2e}")


def test_criterion_04_monte_carlo_risk_validity():
    rng = stream(1004)
    n, m = 6, 6
    S = np.stack([random_psd(rng, n, rank=3) for _ in range(3)])
    S[0] += 0.1 * np.eye(n)
    ell = Ellitope(n, S, TSet.unit_box(3))
    prob = EstimationProblem(rng.normal(size=(m, n)), np.eye(n), 0.3, ell)
    est = build_linear_estimate(prob)
    X = ell.sample(rng, 200, boundary=True)
    excess = -np.inf
    for i, x in enumerate(X):
        mean_sq, se_sq = empirical_risk(est, prob, x, N=10_000, seed=1004 + i)
        root = math.sqrt(mean_sq)
        se_root = se_sq / (2.0 * root) if root > 0 else se_sq
        excess = max(excess, root - (est.risk_bound + 4.0 * se_root))
    _report(4, "sampled risk below certificate at 200 signals", excess <= 0.0,
            f"max (mc - bound - 4se) {excess:.3e}")


def test_criterion_05_chi2_tail_bounds():
    N = 1_000_000
    bad = 0
    margin = np.inf
    for trial in range(50):
        rng = stream(1005, trial)
        n = int(rng.integers(1, 5))
        Q = random_psd(rng, n) + 0.05 * np.eye(n)
        S = random_psd(rng, n)
        rho = float(rng.uniform(0.05, 0.95))
        tr = float(np.trace(S @ Q))
        if tr <= 0:
            S = S + 0.1 * np.eye(n)
            tr = float(np.trace(S @ Q))
        S = S * (rho / tr)
        bound = chi2_tail_bound(Q, S)
        # z'Sz for z ~ N(0,Q) equals sum lam_i g_i^2 in the jointly
        # diagonalized basis
        w, V = np.linalg.eigh(Q)
        sqQ = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        lam = np.linalg.eigvalsh(sqQ @ S @ sqQ)
        G2 = stream(1005, trial, 1).standard_normal((N, n)) ** 2
        p_hat = float(np.mean(G2 @ lam > 1.0))
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / N)
        margin = min(margin, bound + 4.0 * se - p_hat)
        if p_hat > bound + 4.0 * se:
            bad += 1
    _report(5, "tail bound dominates MC on 50 pairs", bad == 0,
            f"violations {bad}/50, min slack {margin:.3e}")


def test_criterion_06_rademacher_moment():
    cap = 3.0 * math.sqrt(2.0)
    results = []
    mc, ok1 = check_rademacher_moment(np.diag([1.0] + [0.0] * 7), N=100_000, seed=6)
    results.append(("rank1", mc, ok1 and abs(mc - math.exp(0.25)) < 1e-12))
    mc2, ok2 = check_rademacher_moment(np.eye(16) / 16.0, N=100_000, seed=7)
    results.append(("identity/16", mc2, ok2))
    rng = stream(1006)
    g = rng.normal(size=12)
    mc3, ok3 = check_rademacher_moment(np.outer(g, g) / (g @ g), N=100_000, seed=8)
    results.append(("random rank1", mc3, ok3))
    Sfull = random_psd(rng, 10)
    Sfull /= np.trace(Sfull)
    mc4, ok4 = check_rademacher_moment(Sfull, N=100_000, seed=9)
    results.append(("random full", mc4, ok4))
    ok = all(r[2] for r in results)
    detail = ", ".join(f"{nm} {v:.4f}" for nm, v, _ in results)
    _report(6, f"moment estimates within {cap:.4f} + 4se", ok, detail)


def test_criterion_07_relaxation_factor():
    worst_ratio = np.inf
    ok = True
    for trial in range(30):
        rng = stream(1007, trial)
        n = int(rng.integers(3, 9))
        a = rng.uniform(0.5, 2.0, size=n)
        ell = Ellitope.coordinate_box(a)
        G = rng.normal(size=(n, n))
        C = G @ G.T
        opt, Q, t = relax_quadratic_max(C, ell)
        verts = np.array(list(itertools.product(*[(-1.0 / ak, 1.0 / ak) for ak in a])))
        brute = float(np.max(np.einsum("vi,ij,vj->v", verts, C, verts)))
        sstar = factor_bound(n)
        rel = 1e-7 * (1.0 + abs(opt))
        ok &= opt / sstar - rel <= brute <= opt + rel
        x, val, used = round_rademacher(C, ell, Q, t, seed=trial, budget=200)
        ok &= val >= opt / sstar - rel
        ok &= ell.contains(x, tol=1e-9)
        worst_ratio = min(worst_ratio, val / opt if opt > 0 else 1.0)
    _report(7, "vertex max and rounding inside the 4ln(5K) window", ok,
            f"30 boxes, worst rounded/opt {worst_ratio:.3f}")


def test_criterion_08_factor_ranges():
    lo_e, hi_e = 31.6 * 0.7, 73.7 * 1.3
    lo_b, hi_b = 73.2 * 0.75, 115.4 * 1.25
    windows = {ELLIPSOID: (lo_e, hi_e), BOX: (lo_b, hi_b)}
    ok = True
    details = []
    for scenario in (ELLIPSOID, BOX):
        cfg = ScenarioConfig(scenario=scenario, n_grid=(16, 32),
                             sigma_grid=(0.01, 0.05, 0.25))
        records = run_suboptimality_experiment(cfg)
        lo, hi = windows[scenario]
        factors = [r.factor_computable for r in records]
        ok &= all(r.error is None for r in records)
        ok &= all(r.sandwich_ok() for r in records)
        ok &= all(lo <= f <= hi for f in factors)
        details.append(f"{scenario} [{min(factors):.1f}, {max(factors):.1f}]"
                       f" in [{lo:.1f}, {hi:.1f}]")
    _report(8, "replicated factor ranges with full sandwich", ok,
            "; ".join(details))


def test_criterion_09_srisk_duality_and_validity():
    worst = 0.0
    for trial in range(30):
        rng = stream(1009, trial)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        nu = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        S_ell = np.stack([random_psd(rng, n, rank=max(1, n // 2)) for _ in range(K)])
        S_ell[0] += 0.2 * np.eye(n)
        tset = TSet.unit_segment() if K == 1 else TSet.unit_box(K)
        ell = Ellitope(n, S_ell, tset)
        W = random_psd(rng, n) * 0.5
        sp = SRiskProblem(
            EstimationProblem(rng.normal(size=(m, n)), rng.normal(size=(nu, n)),
                              float(rng.uniform(0.2, 1.0)), ell), W)
        est = build_srisk_estimate(sp)
        rep = srisk_lower_bound(sp, est=est)
        worst = max(worst, abs(est.tau - rep.details["opt_star"]) / (1.0 + est.tau))
    dual_ok = worst <= 1e-5

    # whole-space validity at signal norms up to 1e3
    rng = stream(1009, 99)
    n, m, nu = 4, 4, 2
    A = rng.normal(size=(m, n))
    B = rng.normal(size=(nu, n))
    S = random_psd(rng, n) + 0.1 * np.eye(n)
    ws = whole_space_estimate(A, B, 0.5, S)
    mc_ok = True
    worst_exc = -np.inf
    for scale in (1.0, 10.0, 100.0, 1000.0):
        x = rng.normal(size=n)
        x *= scale / np.linalg.norm(x)
        bias = ws.H.T @ (A @ x) - B @ x
        Z = stream(1009, 100, int(scale)).standard_normal((20_000, m))
        errs = bias[None, :] + 0.5 * (Z @ ws.H)
        vals = np.einsum("ij,ij->i", errs, errs) / (1.0 + x @ S @ x)
        mc = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        worst_exc = max(worst_exc, mc - (ws.tau + 4.0 * se))
        mc_ok &= mc <= ws.tau + 4.0 * se
    _report(9, "srisk duality (30 instances) and whole-space validity",
            dual_ok and mc_ok,
            f"max rel gap {worst:.2e}, max mc excess {worst_exc:.3e}")


def test_criterion_10_robustness():
    ell = Ellitope.ellipsoid(np.array([[1.0]]))
    A1, B1 = np.array([[1.0]]), np.array([[1.0]])
    S0 = np.zeros((1, 1))
    nom = build_srisk_estimate(SRiskProblem(EstimationProblem(A1, B1, 1.0, ell), S0))
    um0 = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.0)
    _, _, _, opt0 = build_robust_estimate(um0, 1.0, S0, ell)
    red_ok = abs(opt0 - nom.tau) <= 1e-6 * (1.0 + nom.tau)

    um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.5)
    H, lam, mu, opt = build_robust_estimate(um, 1.0, S0, ell)
    frac = verify_robust_feasibility(H, lam, opt, um, S0, ell, N=1000, seed=10)

    prev, mono = -1.0, True
    for r in np.linspace(0.0, 1.0, 6):
        umr = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), r)
        _, _, _, v = build_robust_estimate(umr, 1.0, S0, ell)
        mono &= v >= prev - 1e-7
        prev = v
    ok = red_ok and frac == 1.0 and mono
    _report(10, "robust reduction, feasibility, monotonicity", ok,
            f"r=0 dev {abs(opt0 - nom.tau):.2e}, feasible {frac:.3f}, monotone {mono}")


def test_criterion_11_pendulum():
    cfg = ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.075,), horizon=8)
    records = run_pendulum_experiment(cfg)
    singles = [r for r in records if r.extras["kind"] == "single"]
    blocks = [r for r in records if r.extras["kind"] == "block"]
    rank_ok = True
    worst_ratio = 0.0
    for r in singles:
        eigs = r.extras["s_eigenvalues"]
        ratio = eigs[1] / eigs[0] if len(eigs) > 1 and eigs[0] > 0 else 0.0
        worst_ratio = max(worst_ratio, ratio)
        rank_ok &= ratio <= 1e-6
    taus = [r.extras["opt_b"] for r in blocks]
    mono_ok = all(taus[i] <= taus[i + 1] + 2e-4 for i in range(len(taus) - 1))

    pp = build_pendulum_problem(T=32)
    x = stream(1011).normal(size=pp.n)
    rk_dev = float(np.max(np.abs(pp.A @ x - rk4_positions(pp, x, substeps=200))))
    ok = rank_ok and mono_ok and rk_dev <= 1e-8 and all(r.error is None for r in records)
    _report(11, "pendulum rank-1 targets, monotone blocks, RK4 match", ok,
            f"max eig ratio {worst_ratio:.1e}, monotone {mono_ok}, rk4 dev {rk_dev:.1e}")


def test_criterion_12_solver_suite():
    worst_gap = 0.0
    solved = 0
    for trial in range(20):
        rng = stream(1012, trial)
        n = int(rng.integers(2, 8))
        ml = int(rng.integers(1, 5))
        Al = rng.normal(size=(ml, n))
        xf = rng.uniform(0.5, 1.5, size=n)
        bl = Al @ xf + rng.uniform(0.1, 1.0, size=ml)
        cl = rng.normal(size=n)
        G = np.vstack([Al, -np.eye(n), np.eye(n)])
        h = np.concatenate([bl, np.zeros(n), 10.0 * np.ones(n)])
        dims = ConeDims(l=G.shape[0])
        if n >= 3 and trial % 2:
            # append ||x_1..x_2|| <= x_0 + 2
            Gq = np.zeros((3, n))
            Gq[0, 0] = -1.0
            Gq[1, 1] = -1.0
            Gq[2, 2] = -1.0
            G = np.vstack([G, Gq])
            h = np.concatenate([h, [2.0, 0.0, 0.0]])
            dims = ConeDims(l=G.shape[0] - 3, q=(3,))
        res = conelp(cl, G, h, dims)
        if res.status == "optimal":
            solved += 1
            rel = abs(res.pobj - res.dobj) / (1.0 + abs(res.pobj))
            worst_gap = max(worst_gap, rel)
    gap_ok = solved >= 15 and worst_gap <= 1e-6

    cert_ok = True
    for trial in range(5):
        rng = stream(1012, 100 + trial)
        u = float(rng.uniform(0.1, 2.0))
        c = rng.normal(size=1)
        G = np.array([[-1.0], [1.0]])
        h = np.array([-(1.0 + u), -u])     # x >= 1+u and x <= -u
        res = conelp(c, G, h, ConeDims(l=2))
        cert_ok &= res.status == "primal_infeasible"
        z = res.z
        cert_ok &= bool(np.all(z >= -1e-9))
        cert_ok &= float(np.abs(G.T @ z).max()) < 1e-6
        cert_ok &= abs(float(h @ z) + 1.0) < 1e-8
    resu = conelp(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]), ConeDims(l=1))
    cert_ok &= resu.status == "dual_infeasible"
    ok = gap_ok and cert_ok
    _report(12, "conic suite gaps and infeasibility certificates", ok,
            f"{solved}/20 solved, max relgap {worst_gap:.2e}, certificates {cert_ok}")
