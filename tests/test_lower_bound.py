"""Minimax lower bounds: Bayesian dual value, tail bounds, the rho-family
bound, set-refinement bounds, and the near-optimality factors."""

import math

import numpy as np
import pytest
from scipy import stats

from ellest import (
    CONTRACTION,
    PARALLELOTOPE,
    QUADRATIC_APPROX,
    Ellitope,
    EstimationProblem,
    TSet,
    best_refined_lower_bound,
    build_linear_estimate,
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
)
from ellest.linalg import smat, svec_len
from ellest.lower_bound import _qs_product_triplets
from ellest.rng import stream

from conftest import random_psd


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


def test_gaussian_quantile_frozen_values():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_quantile(0.975) == pytest.approx(1.9599639845400545, rel=1e-10)
    assert gaussian_quantile(0.1) == pytest.approx(-1.2815515655446004, rel=1e-10)


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
