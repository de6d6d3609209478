"""Relative risk with the (1 + x'Sx) normalization: design values,
duality against the Bayesian dual, whole-space closed forms, and the
optimization over the normalizing matrix."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellest import (
    Ellitope,
    EstimationProblem,
    SRiskProblem,
    TSet,
    build_linear_estimate,
    build_srisk_estimate,
    optimize_S_bisection,
    solve_bayesian_sdp,
    srisk_lower_bound,
    whole_space_estimate,
)
from ellest import s_risk
from ellest.experiments import build_pendulum_problem, pendulum_block_sizes
from ellest.s_risk import _srisk_dual
from ellest.rng import stream

import conftest
from conftest import optimize_S_midpoint, optimize_S_sdp

ELL1 = Ellitope.ellipsoid(np.array([[1.0]]))
A1 = np.array([[1.0]])
B1 = np.array([[1.0]])


def test_zero_s_reduces_to_plain_design():
    prob = EstimationProblem(A1, B1, 1.0, ELL1)
    sp = SRiskProblem(prob, np.zeros((1, 1)))
    est = build_srisk_estimate(sp)
    plain = build_linear_estimate(prob)
    assert est.tau == pytest.approx(plain.opt, rel=1e-7)


def test_srisk_lower_bound_reads_the_solver_tolerance(monkeypatch):
    # the lower bound's own solves (the design and m_star) take the same
    # duality-gap target as every other solve
    monkeypatch.setenv("ESTIMATOR_SOLVER_TOL", "abc")
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), np.eye(1))
    with pytest.raises(ValueError, match="ESTIMATOR_SOLVER_TOL"):
        srisk_lower_bound(sp)


def test_scalar_unit_s_closed_form():
    # min over h of max_x [(1-h)^2 x^2 + sigma^2 h^2] / (1 + x^2) with
    # x free over [-1, 1] and S = 1: optimum tau = 1/4 at h = 1/2
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), np.eye(1))
    est = build_srisk_estimate(sp)
    assert est.tau == pytest.approx(0.25, rel=1e-6)
    assert float(est.H[0, 0]) == pytest.approx(0.5, abs=1e-4)
    assert est.srisk_bound == pytest.approx(0.5, rel=1e-6)


def test_tau_decreases_in_s():
    prob = EstimationProblem(A1, B1, 1.0, ELL1)
    tau1 = build_srisk_estimate(SRiskProblem(prob, np.eye(1))).tau
    tau100 = build_srisk_estimate(SRiskProblem(prob, 100.0 * np.eye(1))).tau
    assert tau100 < tau1


def test_scalar_lower_bound_sandwich():
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), np.eye(1))
    est = build_srisk_estimate(sp)
    rep = srisk_lower_bound(sp, est=est)
    assert 0 < rep.lb <= est.srisk_bound + 1e-9
    assert 0 < rep.details["s"] < 1.0


def test_zero_s_dual_equals_bayesian():
    prob = EstimationProblem(A1, B1, 1.0, ELL1)
    sp = SRiskProblem(prob, np.zeros((1, 1)))
    est = build_srisk_estimate(sp)
    rep = srisk_lower_bound(sp, est=est)
    bs = solve_bayesian_sdp(prob)
    assert rep.details["opt_star"] == pytest.approx(bs.opt_star, rel=1e-6)


def test_whole_space_scalar_closed_forms():
    ws = whole_space_estimate(A1, B1, 1.0, np.eye(1))
    assert ws.tau == pytest.approx(0.25, rel=1e-6)
    assert float(ws.H[0, 0]) == pytest.approx(0.5, abs=1e-4)
    # no observation: the best guess is 0, and sup_x x^2/(1+x^2) = 1
    ws0 = whole_space_estimate(np.array([[0.0]]), B1, 1.0, np.eye(1))
    assert ws0.tau == pytest.approx(1.0, rel=1e-6)
    assert float(ws0.H[0, 0]) == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("A", [np.diag([1.0, 0.0]), np.zeros((2, 2))],
                         ids=["unobserved-target", "no-observation"])
def test_whole_space_unobserved_direction(A):
    # x_2 is not observed and B reads it: the risk sup_x x_2^2/(1 + 0.1|x|^2)
    # = 10 is approached only as |x_2| grows, so the dual point has s -> 0
    ws = whole_space_estimate(A, np.array([[0.0, 1.0]]), 1.0, 0.1 * np.eye(2))
    assert ws.tau == pytest.approx(10.0, rel=1e-6)


def test_whole_space_dual_scale_at_zero():
    # a 4x5 A has a null space; the dual point read from the design solve
    # sits at s = 0 (tau from the separate dual program of earlier releases)
    rng = stream(77)
    A, B = rng.normal(size=(4, 5)), rng.normal(size=(2, 5))
    ws = whole_space_estimate(A, B, 0.3, 0.4 * np.eye(5))
    assert ws.tau == pytest.approx(2.3698069238, rel=1e-6)
    val, W, s = _srisk_dual(ws, A, B, 0.3, 0.4 * np.eye(5), None, 1e-6)
    assert 0.0 <= s < 1e-6 and val == pytest.approx(ws.tau, rel=1e-6)


def test_lower_bound_makes_one_solve_beside_the_design(conelp_calls):
    # beside the design, m_star is one solve on a K = 2 ellitope and a
    # closed form on the K = 1 one
    box = Ellitope(1, np.array([[[1.0]], [[0.5]]]), TSet.unit_box(2))
    for ell, m_star_solves in ((box, 1), (ELL1, 0)):
        sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ell), np.eye(1))
        est = build_srisk_estimate(sp)
        del conelp_calls[:]
        srisk_lower_bound(sp, est=est)           # m_star only
        assert len(conelp_calls) == m_star_solves
        del conelp_calls[:]
        srisk_lower_bound(sp)                    # the design and m_star
        assert len(conelp_calls) == 1 + m_star_solves
    del conelp_calls[:]
    whole_space_estimate(A1, B1, 1.0, np.eye(1))
    assert len(conelp_calls) == 1


def test_whole_space_vs_ellipsoid_sandwich():
    # over the ellipsoid {x'Sx <= 1} the plain minimax risk is between the
    # whole-space relative risk and sqrt(2) times it
    for trial in range(4):
        rng = stream(41, trial)
        n, m, nu = 4, 3, 2
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(nu, n))
        G = rng.normal(size=(n, n))
        S = G.T @ G + 0.2 * np.eye(n)
        wse = whole_space_estimate(A, B, 0.6, S)
        est = build_linear_estimate(
            EstimationProblem(A, B, 0.6, Ellitope.ellipsoid(S)))
        assert wse.srisk_bound <= est.risk_bound + 1e-7
        assert est.risk_bound <= math.sqrt(2.0) * wse.srisk_bound + 1e-7


def test_duality_random_tsets():
    # the p = 2 ball's support function takes its own epigraph rows
    tsets = [TSet.unit_box(2), TSet.pnorm_ball(2, 4.0)] * 2 + [TSet.pnorm_ball(3, 2.0)]
    for trial, tset in enumerate(tsets):
        rng = stream(42, trial)
        n, m, nu, K = 3, 3, 2, tset.K
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(nu, n))
        Ss = np.zeros((K, n, n))
        for k in range(K):
            Gk = rng.normal(size=(n, 2))
            Ss[k] = Gk @ Gk.T
        Ss[0] += 0.3 * np.eye(n)
        ell = Ellitope(n, Ss, tset)
        G = rng.normal(size=(n, n))
        S = 0.5 * (G.T @ G) / n
        sp = SRiskProblem(EstimationProblem(A, B, 0.5, ell), S)
        est = build_srisk_estimate(sp)
        rep = srisk_lower_bound(sp, est=est)
        assert rep.lb <= est.srisk_bound + 1e-9
        assert rep.details["opt_star"] > 0
        # the dual point is feasible: W >= 0, Tr(WS) + s <= 1, Tr(WS_k)/s in T
        _, W, s = _srisk_dual(est, A, B, 0.5, S, ell, 1e-5)
        assert np.linalg.eigvalsh(W).min() >= -1e-12 and s > 0
        assert np.sum(W * S) + s <= 1.0 + 1e-12
        assert tset.contains(np.einsum("kij,ji->k", Ss, W) / s, tol=1e-12)


def test_optimize_S_scalar_oracle():
    # over trace_cap = 1 the optimal normalization is S = 1 with tau = 1/4
    S_star, H_star, tau_star = optimize_S_bisection(A1, B1, 1.0, trace_cap=1.0)
    assert tau_star == pytest.approx(0.25, rel=1e-6)
    assert float(S_star[0, 0]) == pytest.approx(1.0, rel=1e-6)
    assert float(H_star[0, 0]) == pytest.approx(0.5, abs=1e-6)


def _optimize_S_instance(name):
    """(A, B, sigma, trace_cap) for a seeded random 4x5, tall 7x4 or
    rank-one 6x4 instance, or a pendulum T=8 target (pendulum_w_t, a single
    input, or pendulum_block_K)."""
    if name == "random_4x5":
        rng = stream(77)
        return rng.normal(size=(4, 5)), rng.normal(size=(2, 5)), 0.3, 2.0
    if name == "tall_7x4":
        rng = stream(77, 1)
        return rng.normal(size=(7, 4)), rng.normal(size=(3, 4)), 0.4, 1.5
    if name == "rank_one_6x4":
        rng = stream(77, 2)
        A = np.outer(rng.normal(size=6), rng.normal(size=4))
        return A, rng.normal(size=(2, 4)), 0.2, 1.0
    pp = build_pendulum_problem(T=8, sigma=0.075)
    kind, idx = name.rsplit("_", 1)
    B = pp.input_row(int(idx)) if kind == "pendulum_w" else pp.input_block(int(idx))
    return pp.A, B, 0.075, 1.0


OPTIMIZE_S_CASES = (["random_4x5", "tall_7x4", "rank_one_6x4"]
                    + [f"pendulum_w_{t}" for t in range(1, 9)]
                    + [f"pendulum_block_{K}" for K in (2, 4, 8)])


@pytest.mark.parametrize("name", ["random_4x5", "pendulum_w_3", "pendulum_block_4"])
def test_optimize_S_matches_whole_space_design(name):
    # the returned S, re-solved as a fixed normalization (with its dual
    # certificate), gives back the same level within the trace budget
    A, B, sigma, cap = _optimize_S_instance(name)
    S_star, _, tau_star = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    est = whole_space_estimate(A, B, sigma, S_star)
    assert est.tau == pytest.approx(tau_star, rel=1e-6)
    assert np.trace(S_star) <= cap * (1 + 1e-6)


def _ridge_weight(A, B, sigma, cap, H):
    """The weight theta in [0, 1] at which H meets the stationarity
    condition theta sigma^2 H = (1 - theta) A (B - H'A)' / cap of
    theta sigma^2 ||H||^2 + (1 - theta) ||B - H'A||^2 / cap, fitted by least
    squares."""
    G = A @ (B - H.T @ A).T / cap
    D = sigma ** 2 * H + G
    return float(np.clip(np.sum(G * D) / np.sum(D * D), 0.0, 1.0))


def _ridge_value(A, B, sigma, cap, theta):
    """min_H theta sigma^2 ||H||^2 + (1 - theta) ||B - H'A||^2 / cap, as a
    stacked least-squares problem: for every theta in [0, 1] a lower bound
    on min_H max(sigma^2 ||H||^2, ||B - H'A||^2 / cap)."""
    m = A.shape[0]
    a, b = math.sqrt((1.0 - theta) / cap), math.sqrt(theta) * sigma
    K = np.vstack([a * A.T, b * np.eye(m)])
    H = np.linalg.lstsq(K, np.vstack([a * B.T, np.zeros((m, B.shape[0]))]), rcond=None)[0]
    M = B - H.T @ A
    return theta * sigma ** 2 * float(np.sum(H * H)) + (1.0 - theta) * float(np.sum(M * M)) / cap


@pytest.mark.parametrize("name", OPTIMIZE_S_CASES)
def test_optimize_S_closed_form_matches_the_sdp(name):
    A, B, sigma, cap = _optimize_S_instance(name)
    S, H, tau = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    _, _, tau_ref = optimize_S_sdp(A, B, sigma, cap)
    assert tau == pytest.approx(tau_ref, rel=1e-7)
    # (H, S, tau) is exactly feasible: tau S = M'M fills the design LMI
    # [[tau S, M'],[M, I]] >= 0, within the trace budget and above sigma^2 ||H||^2
    M = B - H.T @ A
    MtM = M.T @ M
    assert np.abs(tau * S - MtM).max() <= 1e-12 * np.abs(MtM).max()
    assert np.trace(S) <= cap * (1 + 1e-12)
    assert sigma ** 2 * np.sum(H * H) <= tau * (1 + 1e-12)
    # the ridge value at H's weight is a lower bound on the optimum
    theta = _ridge_weight(A, B, sigma, cap, H)
    assert _ridge_value(A, B, sigma, cap, theta) >= tau * (1 - 1e-10)


def test_optimize_S_makes_no_conic_solve(conelp_calls):
    for name in OPTIMIZE_S_CASES:
        A, B, sigma, cap = _optimize_S_instance(name)
        optimize_S_bisection(A, B, sigma, trace_cap=cap)
    assert not conelp_calls


def _drawn_instance(seed, m, n, nu, rank):
    """(A, B) from a seeded stream; A has the given rank (A = 0 at rank 0),
    so min(m, n) - rank zero singular values, and B has a part no H
    reaches when rank < n."""
    rng = stream(2310, seed)
    A = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return A, rng.normal(size=(nu, n))


_DRAWS = dict(seed=st.integers(0, 2 ** 20), m=st.integers(1, 6), n=st.integers(1, 6),
              nu=st.integers(1, 3), rank=st.integers(1, 6),
              sigma=st.floats(0.01, 3.0), cap=st.floats(0.05, 20.0))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(**_DRAWS)
def test_optimize_S_level_grows_with_a_target_row(seed, m, n, nu, rank, sigma, cap):
    # one more row of B adds a column to H and a nonnegative term to both
    # f1 and f2, so the level cannot fall
    A, B = _drawn_instance(seed, m, n, nu + 1, min(rank, m, n))
    _, _, tau = optimize_S_bisection(A, B[:nu], sigma, trace_cap=cap)
    _, _, tau_more = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    assert tau <= tau_more * (1 + 1e-12)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(**_DRAWS, grow=st.floats(1.0, 100.0))
def test_optimize_S_level_falls_as_the_budget_grows(seed, m, n, nu, rank, sigma, cap, grow):
    A, B = _drawn_instance(seed, m, n, nu, min(rank, m, n))
    _, _, tau = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    _, _, tau_wide = optimize_S_bisection(A, B, sigma, trace_cap=cap * grow)
    assert tau_wide <= tau * (1 + 1e-12)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 20), m=st.integers(1, 7), n=st.integers(1, 7),
       nu=st.integers(1, 3), rank=st.integers(0, 7), log_sigma=st.floats(-3.0, 1.0),
       log_cap=st.floats(-4.0, 4.0))
# full rank, at a crossing; rank 1 of 3 with a part of B no H reaches, at
# the least-squares end (f1 <= f2 at theta = 0) and at a crossing; A = 0
@example(seed=1, m=5, n=4, nu=2, rank=4, log_sigma=-0.5, log_cap=0.0)
@example(seed=2, m=3, n=6, nu=3, rank=1, log_sigma=0.0, log_cap=1.0)
@example(seed=2, m=3, n=6, nu=3, rank=1, log_sigma=1.0, log_cap=1.0)
@example(seed=3, m=2, n=3, nu=1, rank=0, log_sigma=0.0, log_cap=0.0)
def test_optimize_S_matches_the_midpoint_bisection_bit_for_bit(seed, m, n, nu, rank,
                                                               log_sigma, log_cap):
    A, B = _drawn_instance(seed, m, n, nu, min(rank, m, n))
    sigma, cap = 10.0 ** log_sigma, 10.0 ** log_cap
    S, H, tau = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    S_ref, H_ref, tau_ref = optimize_S_midpoint(A, B, sigma, trace_cap=cap)
    assert tau == tau_ref
    assert S.shape == S_ref.shape and S.tobytes() == S_ref.tobytes()
    assert H.shape == H_ref.shape and H.tobytes() == H_ref.tobytes()


def test_optimize_S_evaluates_the_ridge_path_few_times(monkeypatch):
    # path evaluations over the horizon-32 pendulum targets: at most 20 per
    # call on average, and never more than the midpoint bisection makes
    calls = {"newton": 0, "midpoint": 0}

    def counted(key, path):
        def wrapped(*args):
            calls[key] += 1
            return path(*args)
        return wrapped

    monkeypatch.setattr(s_risk, "_ridge_path", counted("newton", s_risk._ridge_path))
    monkeypatch.setattr(conftest, "midpoint_path", counted("midpoint", conftest.midpoint_path))
    pp = build_pendulum_problem(T=32, sigma=0.075)
    targets = ([pp.input_row(t) for t in range(1, pp.T + 1)]
               + [pp.input_block(K) for K in pendulum_block_sizes(pp.T)])
    newton = []
    for B in targets:
        before = dict(calls)
        optimize_S_bisection(pp.A, B, 0.075)
        optimize_S_midpoint(pp.A, B, 0.075)
        used = {key: calls[key] - before[key] for key in calls}
        assert 0 < used["newton"] <= used["midpoint"]
        newton.append(used["newton"])
    assert np.mean(newton) <= 20


def test_srisk_validation():
    prob = EstimationProblem(A1, B1, 1.0, ELL1)
    with pytest.raises(ValueError):
        SRiskProblem(prob, np.eye(2))            # S shape mismatch
    with pytest.raises(ValueError):
        SRiskProblem(prob, -np.eye(1))           # S not PSD
    with pytest.raises(ValueError):
        optimize_S_bisection(A1, B1, 0.0)        # sigma not positive
    # column counts that differ: both are named
    A23, B12 = np.ones((2, 3)), np.ones((1, 2))
    with pytest.raises(ValueError, match="got 3 and 2"):
        optimize_S_bisection(A23, B12, 0.5)
    with pytest.raises(ValueError, match="got 3 and 2"):
        whole_space_estimate(A23, B12, 0.5, np.eye(3))
