"""Relative risk with the (1 + x'Sx) normalization: design values,
duality against the Bayesian dual, whole-space closed forms, and the
optimization over the normalizing matrix."""

import math

import numpy as np
import pytest

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
from ellest.experiments import build_pendulum_problem
from ellest.s_risk import _srisk_dual
from ellest.rng import stream

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
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), np.eye(1))
    est = build_srisk_estimate(sp)
    del conelp_calls[:]
    srisk_lower_bound(sp, est=est)               # m_star only
    assert len(conelp_calls) == 1
    del conelp_calls[:]
    srisk_lower_bound(sp)                        # the design and m_star
    assert len(conelp_calls) == 2
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
    """(A, B, sigma, trace_cap) for a seeded random 4x5 instance or a
    pendulum T=8 target."""
    if name == "random_4x5":
        rng = stream(77)
        return rng.normal(size=(4, 5)), rng.normal(size=(2, 5)), 0.3, 2.0
    pp = build_pendulum_problem(T=8, sigma=0.075)
    B = pp.input_row(3) if name == "pendulum_w_3" else pp.input_block(4)
    return pp.A, B, 0.075, 1.0


@pytest.mark.parametrize("name", ["random_4x5", "pendulum_w_3", "pendulum_block_4"])
def test_optimize_S_matches_whole_space_design(name):
    # the returned S, re-solved as a fixed normalization (with its dual
    # certificate), gives back the same level within the trace budget
    A, B, sigma, cap = _optimize_S_instance(name)
    S_star, _, tau_star = optimize_S_bisection(A, B, sigma, trace_cap=cap)
    est = whole_space_estimate(A, B, sigma, S_star)
    assert est.tau == pytest.approx(tau_star, rel=1e-6)
    assert np.trace(S_star) <= cap * (1 + 1e-6)


def test_optimize_S_program_has_one_lmi_block(monkeypatch):
    # T >= 0 follows from T being the design LMI's top-left block, so the
    # program carries that one LMI and no order-n block for T
    progs, real = [], s_risk.solve_or_raise
    monkeypatch.setattr(s_risk, "solve_or_raise", lambda prog: progs.append(prog) or real(prog))
    A, B, sigma, cap = _optimize_S_instance("random_4x5")
    optimize_S_bisection(A, B, sigma, trace_cap=cap)
    (prog,) = progs
    assert prog.lower()[3].s == (A.shape[1] + B.shape[0],)


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
