"""Minimax lower bounds: Bayesian dual value, tail bounds, the rho-family
bound, set-refinement bounds, and the near-optimality factors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq

from ellest import (
    CONTRACTION,
    PARALLELOTOPE,
    QUADRATIC_APPROX,
    Ellitope,
    EstimationProblem,
    SRiskProblem,
    TSet,
    best_refined_lower_bound,
    build_linear_estimate,
    build_srisk_estimate,
    chi2_tail_bound,
    delta_rho,
    gaussian_quantile,
    lower_bound_rho_family,
    m_star,
    near_optimality_factor,
    phi_gauss,
    refined_lower_bound,
    rho_of_delta,
    simplified_factor,
    solve_bayesian_sdp,
    whole_space_estimate,
)
from ellest import lower_bound
from ellest.linalg import min_eig, psd_sqrt, smat, svec_len, sym
from ellest.lower_bound import (
    _admissible_covariance,
    _chi2_tail,
    _max_trace_over_covariances,
    _qs_product_triplets,
)
from ellest.rng import stream
from ellest.solver import ipm

from conftest import DUAL_CASES, ONE_ROW_CASES, dual_problem, one_row_problem, random_psd


def scalar_problem(sigma: float = 1.0) -> EstimationProblem:
    return EstimationProblem(np.array([[1.0]]), np.array([[1.0]]), sigma,
                             Ellitope.ellipsoid(np.array([[1.0]])))


# --- Bayesian dual value ---

def test_bayes_scalar_value():
    # max q/(q + sigma^2) over q in [0,1] at sigma = 1 is 1/2
    bs = solve_bayesian_sdp(scalar_problem(1.0))
    assert bs.opt_star == pytest.approx(0.5, abs=1e-7)


def test_bayes_duality_consistency_check():
    prob = scalar_problem(1.0)
    est = build_linear_estimate(prob)
    # must not raise: primal design value and dual value agree
    solve_bayesian_sdp(prob, check_against_opt=est.opt)


def test_bayes_large_noise_limit():
    bs = solve_bayesian_sdp(scalar_problem(1e3))
    assert bs.opt_star == pytest.approx(1e6 / (1e6 + 1.0), rel=1e-6)


def test_phi_gauss_scalar():
    v = phi_gauss(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), 1.0)
    assert v == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("m, n, nu", [(5, 4, 2), (2, 4, 3), (3, 3, 3)])
def test_phi_gauss_matches_explicit_formula(m, n, nu):
    """Non-square A and B: phi equals Tr(BQB') - Tr(BQA'(sigma^2 I + AQA')^-1 AQB')."""
    rng = stream(59, m * 100 + n * 10 + nu)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((nu, n))
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n
    sigma = 0.7
    M = sigma ** 2 * np.eye(m) + A @ Q @ A.T
    ref = np.trace(B @ Q @ B.T) - np.trace(B @ Q @ A.T @ np.linalg.solve(M, A @ Q @ B.T))
    assert ref > 0
    assert phi_gauss(Q, A, B, sigma) == pytest.approx(ref, rel=1e-10)


def test_phi_gauss_noiseless_limit():
    # sigma = 0 with a singular AQA': the observed coordinate is recovered
    # exactly and only the unobserved one's variance remains
    Q = np.diag([2.0, 3.0])
    A = np.diag([1.0, 0.0])
    assert phi_gauss(Q, A, np.eye(2), 0.0) == pytest.approx(3.0, rel=1e-12)
    assert phi_gauss(Q, np.zeros((1, 2)), np.eye(2), 0.0) == pytest.approx(5.0, rel=1e-12)


def test_bayes_duality_random_tsets():
    rng = stream(31, 0)
    Sp = np.stack([np.diag([1.0, 0.2, 0.0]), np.diag([0.0, 0.5, 2.0])])
    ellp = Ellitope(3, Sp, TSet.pnorm_ball(2, 4.0))
    prp = EstimationProblem(rng.normal(size=(3, 3)), rng.normal(size=(1, 3)),
                            0.7, ellp)
    estp = build_linear_estimate(prp)
    bsp = solve_bayesian_sdp(prp, check_against_opt=estp.opt)
    assert bsp.opt_star == pytest.approx(estp.opt, rel=1e-5)


# --- scale of the target image ---

def test_m_star_closed_forms():
    a = np.array([1.0, 2.0, 3.0])
    ell_e = Ellitope.ellipsoid(np.diag(a ** 2))
    # largest ||x|| over the ellipsoid is 1/min(a) = 1
    assert m_star(np.eye(3), ell_e) == pytest.approx(1.0, rel=1e-6)
    ell_b = Ellitope.coordinate_box(a)
    # box corner: sqrt(sum a_k^-2)
    assert m_star(np.eye(3), ell_b) == pytest.approx(
        math.sqrt(np.sum(a ** -2.0)), rel=1e-6)
    assert m_star(np.zeros((2, 3)), ell_e) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("case", DUAL_CASES + ONE_ROW_CASES)
def test_m_star_on_one_ellipsoid_matches_the_covariance_program(case, conelp_calls):
    # on K = 1, m_star = ||L^-1 B'||_2 (S_1 = LL') with no solve; the
    # program it replaces agrees to its own duality-gap target
    prob = dual_problem(case) if case in DUAL_CASES else one_row_problem(case)
    ms = m_star(prob.B, prob.ell)
    assert not conelp_calls
    val, _, _ = _max_trace_over_covariances(sym(prob.B.T @ prob.B), prob.ell)
    assert ms == pytest.approx(math.sqrt(val), rel=ipm.gap_tolerance())


def test_admissible_covariance_lies_in_the_set(monkeypatch):
    # the multiplier read of an m_star solve, an S-risk design and a
    # whole-space design: W >= 0 with Tr(WS) + load_T(Tr(WS_k)) <= 1
    rng = stream(31, 3)
    n, m, nu = 4, 3, 2
    ell = Ellitope(n, np.stack([random_psd(rng, n), random_psd(rng, n)]),
                   TSet.pnorm_ball(2, 4.0))
    A, B, S = rng.standard_normal((m, n)), rng.standard_normal((nu, n)), random_psd(rng, n)
    sols = []
    real = lower_bound.solve_or_raise
    monkeypatch.setattr(lower_bound, "solve_or_raise",
                        lambda prog: sols.append(real(prog)) or sols[-1])
    m_star(B, ell)
    srisk = build_srisk_estimate(SRiskProblem(EstimationProblem(A, B, 0.5, ell), S))
    cases = [(sols[0], n, ell, None), (srisk.solution, n + nu, ell, S),
             (whole_space_estimate(A, B, 0.5, S).solution, n + nu, None, S)]
    for sol, order, e, S_ in cases:
        W, tr_ws = _admissible_covariance(sol, order, n, e, S_)
        assert min_eig(W) >= -1e-14 * np.abs(W).max()
        load = 0.0 if e is None else 1.0 / e.tset.boundary_scale(np.einsum("kij,ji->k", e.S, W))
        assert tr_ws == pytest.approx(0.0 if S_ is None else np.sum(W * S_), rel=1e-12, abs=1e-15)
        assert tr_ws + load <= 1.0 + 1e-12
        assert tr_ws + load >= 0.5           # on or near the boundary: W is not 0
        # half the multiplier has its loads inside the set: W is the clipped
        # block itself, bit for bit
        half = dataclasses.replace(sol, z=0.5 * sol.z)
        R = psd_sqrt(smat(half.z[-svec_len(order):], order)[:n, :n])
        assert np.array_equal(_admissible_covariance(half, order, n, e, S_)[0], R @ R)


# --- deviation calculus ---

def test_delta_rho_closed_form():
    want = math.exp(-(1.0 - 0.1 + 0.1 * math.log(0.1)) / 0.2)
    assert delta_rho(0.1, 1) == pytest.approx(want, rel=1e-12)
    assert delta_rho(1.0, 7) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [0.05, 0.2])
def test_rho_of_delta_roundtrip(d):
    r = rho_of_delta(d, 3)
    assert 0 < r <= 1
    assert delta_rho(r, 3) == pytest.approx(d, rel=1e-9)


def test_chi2_tail_bound_degenerate():
    assert chi2_tail_bound(np.eye(2), np.zeros((2, 2))) == 0.0
    assert chi2_tail_bound(np.array([[1.0]]), np.array([[1.0]])) == 1.0


def test_chi2_tail_bound_scalar_value():
    # n = 1, s = 0.2: exp(-(log 0.2)/2 - (1 - 0.2)/(2*0.2))
    b1 = chi2_tail_bound(np.array([[1.0]]), np.array([[0.2]]))
    assert b1 == pytest.approx(math.exp(-0.5 * math.log(0.2) - 2.0), rel=1e-9)
    # dominates the true tail P(g^2 > 5) for g standard normal
    true_tail = 2.0 * (1.0 - stats.norm.cdf(math.sqrt(5.0)))
    assert b1 >= true_tail


def test_chi2_tail_bound_dominates_monte_carlo():
    rng = stream(31, 1)
    Q = np.diag([0.3, 0.1, 0.05])
    S = np.diag([1.0, 2.0, 3.0])
    S = S / (np.trace(S @ Q) / 0.8)
    Z = rng.multivariate_normal(np.zeros(3), Q, size=200_000)
    mc = float(np.mean(np.einsum("ij,jk,ik->i", Z, S, Z) > 1.0))
    assert chi2_tail_bound(Q, S) >= mc


def _chi2_tail_by_brentq(s: np.ndarray) -> float:
    """_chi2_tail's Chernoff bound with the root found by scipy's brentq."""
    rho = min(float(np.sum(s)), 1.0)
    if rho <= 0.0 or s.max() <= 0.0:
        return 0.0
    closed = math.exp(-(1.0 - rho + rho * math.log(rho)) / (2.0 * rho))
    best = 1.0
    hi = (1.0 - 1e-12) / (2.0 * float(s.max()))

    def fprime(g):
        return float(np.sum(s / (1.0 - 2.0 * g * s))) - 1.0

    if rho < 1.0 and fprime(hi) > 0.0:
        g = brentq(fprime, 0.0, hi, xtol=1e-14, rtol=1e-12)
        best = math.exp(-0.5 * float(np.sum(np.log1p(-2.0 * g * s))) - g)
    return min(best, closed, 1.0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(total=st.floats(1e-6, 0.999), rest=st.lists(st.floats(0.0, 1.0), max_size=60),
       scale=st.floats(1e-12, 1.0))
def test_chi2_tail_root_matches_brentq(total, rest, scale):
    # one eigenvalue of weight 1 and up to 60 others of weight at most
    # scale: one dominant eigenvalue among many tiny ones for small scale
    s = np.array([1.0] + [scale * r for r in rest])
    s *= total / s.sum()
    got, ref = _chi2_tail(s), _chi2_tail_by_brentq(s)
    assert abs(got - ref) <= 1e-12 * ref


def test_gaussian_quantile_frozen_values():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_quantile(0.975) == pytest.approx(1.9599639845400545, rel=1e-10)
    assert gaussian_quantile(0.1) == pytest.approx(-1.2815515655446004, rel=1e-10)
    # statistics.NormalDist.inv_cdf: exact at 0.5, odd, finite deep in the tail
    assert gaussian_quantile(0.975) == pytest.approx(1.959963984540054, rel=0, abs=1e-15)
    assert gaussian_quantile(0.5) == 0
    for k in range(1, 50):                   # 1 - 2^-k is exact in double precision
        assert gaussian_quantile(2.0 ** -k) == -gaussian_quantile(1 - 2.0 ** -k)
    q = gaussian_quantile(1e-300)
    assert math.isfinite(q) and q == pytest.approx(-37.05, abs=5e-3)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            gaussian_quantile(p)


# --- the rho-family bound ---

def test_rho_family_scalar():
    prob = scalar_problem(1.0)
    est = build_linear_estimate(prob)
    ms = m_star(prob.B, prob.ell)
    rep = lower_bound_rho_family(est.opt, ms, 1)
    assert 0 < rep.lb <= math.sqrt(est.opt) + 1e-12
    assert 0 < rep.rho <= 1.0
    assert rep.factor_numeric >= 1.0


def test_rho_family_degenerate_grid():
    prob = scalar_problem(1.0)
    est = build_linear_estimate(prob)
    rep = lower_bound_rho_family(est.opt, 1.0, 1, rho_grid=[1.0])
    # rho = 1 forces delta = 1: confidence term vanishes, bound collapses to 0
    assert rep.lb == 0.0


def test_rho_family_positive_at_scale():
    n = 16
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1.0) ** 2))
    prob = EstimationProblem(np.eye(n), np.eye(n), 0.05, ell)
    est = build_linear_estimate(prob)
    ms = m_star(np.eye(n), ell)
    rep = lower_bound_rho_family(est.opt, ms, 1)
    assert 0 < rep.lb <= math.sqrt(est.opt)


# --- refined bounds ---

def test_refined_bounds_small_ellipsoid():
    rng = stream(31, 2)
    n, m, nu = 4, 4, 2
    A = rng.normal(size=(m, n))
    B = rng.normal(size=(nu, n))
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1.0) ** 2))
    prob = EstimationProblem(A, B, 0.5, ell)
    est = build_linear_estimate(prob)
    ms = m_star(B, ell)
    for meth in (CONTRACTION, QUADRATIC_APPROX):
        r = refined_lower_bound(prob, meth, 0.1, opt=est.opt, mstar=ms)
        assert 0 <= r.lb <= math.sqrt(est.opt) + 1e-9
        assert r.delta_refined <= r.delta + 1e-15
        assert r.details["opt_delta"] > 0
    # a K = 1 T is [0, 1] whatever its variant, so every one is the same ellipsoid
    quad = refined_lower_bound(prob, QUADRATIC_APPROX, 0.1, opt=est.opt, mstar=ms)
    for tset in (TSet.unit_box(1), TSet.pnorm_ball(1, 2.0), TSet.pnorm_ball(1, 4.0)):
        other = EstimationProblem(A, B, 0.5, Ellitope(n, ell.S, tset))
        r = refined_lower_bound(other, QUADRATIC_APPROX, 0.1, opt=est.opt, mstar=ms)
        assert (r.lb, r.details["opt_delta"]) == (quad.lb, quad.details["opt_delta"])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_qs_product_triplets_give_smat_q_times_s(n):
    # the quadratic_approx SOC rows 1 + mi n + mj hold (smat(q) S)[mi, mj]
    rng = stream(37, n)
    S = random_psd(rng, n)
    mi, mj, qc, vv = _qs_product_triplets(S)
    M = np.zeros((n * n, svec_len(n)))
    np.add.at(M, (mi * n + mj, qc), vv)
    for _ in range(3):
        q = rng.standard_normal(svec_len(n))
        np.testing.assert_allclose(M @ q, (smat(q, n) @ S).ravel(), rtol=1e-12, atol=1e-12)


def test_contraction_tight_at_scale():
    n = 16
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1.0) ** 2))
    prob = EstimationProblem(np.eye(n), np.eye(n), 0.05, ell)
    est = build_linear_estimate(prob)
    ms = m_star(np.eye(n), ell)
    r = refined_lower_bound(prob, CONTRACTION, 0.1, opt=est.opt, mstar=ms)
    assert r.lb > 0
    assert est.risk_bound / r.lb < 3.0


def test_contraction_on_three_constraint_box():
    # K = 3: the refined delta sums one chi-square tail per constraint
    ell = Ellitope.coordinate_box(np.array([1.0, 0.5, 0.25]))
    prob = EstimationProblem(np.eye(3), np.eye(3), 0.3, ell)
    est = build_linear_estimate(prob)
    ms = m_star(np.eye(3), ell)
    r = refined_lower_bound(prob, CONTRACTION, 0.1, opt=est.opt, mstar=ms)
    assert 0.0 <= r.delta_refined <= r.delta
    assert r.lb <= math.sqrt(est.opt)


def test_parallelotope_on_box():
    ab = np.array([1.0, 0.5, 0.25])
    ell = Ellitope.coordinate_box(ab)
    prob = EstimationProblem(np.eye(3), np.eye(3), 0.3, ell)
    est = build_linear_estimate(prob)
    ms = m_star(np.eye(3), ell)
    r = refined_lower_bound(prob, PARALLELOTOPE, 0.1, opt=est.opt, mstar=ms)
    assert 0 <= r.lb <= math.sqrt(est.opt) + 1e-9


def test_parallelotope_is_the_contracted_bayesian_program():
    # the parallelotope set is the admissible set contracted by rho = 1/q^2,
    # and phi_sigma(rho Q) = rho phi_{sigma/sqrt(rho)}(Q): its value is
    # 1/q^2 times the Bayesian value at noise sigma q
    rng = stream(31, 4)
    ell = Ellitope.coordinate_box(np.array([1.0, 0.5, 0.25]))
    A, B = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
    sigma, delta = 0.3, 0.1
    q = gaussian_quantile(1.0 - delta / 6.0)
    r = refined_lower_bound(EstimationProblem(A, B, sigma, ell), PARALLELOTOPE, delta,
                            opt=1.0, mstar=1.0)
    bayes = solve_bayesian_sdp(EstimationProblem(A, B, sigma * q, ell))
    assert r.details["opt_delta"] == pytest.approx(bayes.opt_star / q ** 2, rel=1e-6)
    assert r.rho is None


def test_parallelotope_quantile_cap():
    # K = 1, delta = 0.2: the inscribed set is the segment scaled by
    # 1/q_{0.9}, so the Bayesian value is phi at the capped variance
    q90 = gaussian_quantile(0.9)
    ell = Ellitope.coordinate_box(np.array([1.0]))
    sig = 100.0
    prob = EstimationProblem(np.array([[1.0]]), np.array([[1.0]]), sig, ell)
    r = refined_lower_bound(prob, PARALLELOTOPE, 0.2, opt=1.0, mstar=1.0)
    cap = 1.0 / q90 ** 2
    want = cap * sig ** 2 / (sig ** 2 + cap)
    assert r.details["opt_delta"] == pytest.approx(want, rel=1e-5)


def test_parallelotope_far_tail_is_not_rounded_to_zero(monkeypatch):
    # A constraint quantile of 10 caps the marginal at sigma = 1/10, whose
    # two-sided tail 2(1 - Phi(10)) = 1.5e-23 rounds to 0 in 1 - Phi form
    real = lower_bound.gaussian_quantile
    monkeypatch.setattr(lower_bound, "gaussian_quantile",
                        lambda a: 10.0 if a == 1.0 - 0.1 / 2.0 else real(a))
    ell = Ellitope.coordinate_box(np.array([1.0]))
    prob = EstimationProblem(np.array([[1.0]]), np.array([[1.0]]), 1.0, ell)
    r = refined_lower_bound(prob, PARALLELOTOPE, 0.1, opt=1.0, mstar=1.0)
    assert r.details["Q"][0, 0] == pytest.approx(0.01, rel=1e-6)
    assert r.delta_refined > 0
    assert r.delta_refined == pytest.approx(math.erfc(10.0 / math.sqrt(2.0)), rel=1e-4)


def test_refined_method_validation():
    prob = scalar_problem(1.0)
    with pytest.raises(ValueError):
        refined_lower_bound(prob, "unknown", 0.1, opt=1.0, mstar=1.0)
    with pytest.raises(ValueError):
        refined_lower_bound(prob, CONTRACTION, 0.0, opt=1.0, mstar=1.0)
    # parallelotope needs rank-1 blocks; a round 2-D ball has none
    ball = EstimationProblem(np.eye(2), np.eye(2), 1.0,
                             Ellitope.ellipsoid(np.eye(2)))
    with pytest.raises(ValueError):
        refined_lower_bound(ball, PARALLELOTOPE, 0.1, opt=1.0, mstar=1.0)


def test_best_refined_lower_bound_picks_max():
    n = 8
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1.0) ** 2))
    prob = EstimationProblem(np.eye(n), np.eye(n), 0.05, ell)
    est = build_linear_estimate(prob)
    ms = m_star(np.eye(n), ell)
    deltas = (0.1, 0.2)
    best = best_refined_lower_bound(prob, CONTRACTION, deltas=deltas,
                                    opt=est.opt, mstar=ms)
    singles = [refined_lower_bound(prob, CONTRACTION, d, opt=est.opt, mstar=ms).lb
               for d in deltas]
    assert best.lb == pytest.approx(max(singles), rel=1e-12)


# --- factors ---

def test_near_optimality_factor_identity():
    opt, ms, K = 0.37, 1.4, 2
    fe = near_optimality_factor(opt, ms, K)
    assert fe.factor_computable == 12.0 * math.log(17.0 * K * ms ** 2 / opt)
    assert fe.factor_computable_sqrt == math.sqrt(fe.factor_computable)


def test_simplified_factor_identity():
    n = 16
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1.0) ** 2))
    prob = EstimationProblem(np.eye(n), np.eye(n), 0.05, ell)
    arg, val = simplified_factor(prob)
    assert arg > 1.0
    assert val == math.sqrt(math.log(arg))
