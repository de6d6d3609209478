"""Linear estimate design: closed-form oracles, exactness on ellipsoids,
Monte-Carlo risk validation, and the prediction interface."""

import numpy as np
import pytest

from ellest import (
    Ellitope,
    EstimationProblem,
    TSet,
    apply,
    build_linear_estimate,
    empirical_risk,
    exact_risk_on_ellipsoid,
    worst_case_signal,
)
from ellest.ellitope import SEGMENT
from ellest.experiments import build_pendulum_problem
from ellest.rng import stream

from conftest import random_problem


def scalar_problem(sigma: float) -> EstimationProblem:
    return EstimationProblem(
        A=np.array([[1.0]]), B=np.array([[1.0]]), sigma=sigma,
        ell=Ellitope.ellipsoid(np.array([[1.0]])))


@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
def test_scalar_closed_form(sigma):
    # estimate x from x + sigma*xi on [-1, 1]: Opt = sigma^2 / (1 + sigma^2),
    # attained at h = 1 / (1 + sigma^2)
    est = build_linear_estimate(scalar_problem(sigma))
    expect = sigma ** 2 / (1.0 + sigma ** 2)
    assert est.opt == pytest.approx(expect, abs=1e-6)
    assert est.risk_bound == pytest.approx(np.sqrt(expect), abs=1e-6)
    assert est.H[0, 0] == pytest.approx(1.0 / (1.0 + sigma ** 2), abs=1e-4)
    assert est.lam.shape == (1,)


# one-row designs on a K = 1 ellitope, which take the closed form: the
# horizon-8 pendulum's single targets on its ball, the scalar problem, and a
# random instance under each T variant that K = 1 admits
ONE_ROW_CASES = ([f"pendulum-w{t}" for t in range(1, 9)]
                 + [f"scalar-{sigma}" for sigma in (0.1, 1.0, 10.0)]
                 + ["segment", "box", "pnorm-2"])


def one_row_problem(case: str) -> EstimationProblem:
    if case.startswith("pendulum"):
        pp = build_pendulum_problem(T=8)
        return EstimationProblem(pp.A, pp.input_row(int(case[len("pendulum-w"):])), 0.075,
                                 Ellitope.ellipsoid(np.eye(pp.n) / pp.n))
    if case.startswith("scalar"):
        return scalar_problem(float(case[len("scalar-"):]))
    rng = stream(23, 0)
    n, m = 4, 3
    G = rng.standard_normal((n, n))
    tset = {"segment": TSet.unit_segment(), "box": TSet.unit_box(1),
            "pnorm-2": TSet.pnorm_ball(1, 2.0)}[case]
    return EstimationProblem(rng.standard_normal((m, n)), rng.standard_normal((1, n)), 0.3,
                             Ellitope(n, (G @ G.T / n + 0.2 * np.eye(n))[None], tset))


@pytest.mark.parametrize("case", ONE_ROW_CASES)
def test_one_row_closed_form_matches_the_sdp(case):
    # on an ellipsoid the closed form's Opt is the exact risk of its h, and
    # B = [b; 0] has the same Opt but nu = 2, so it is solved by the SDP
    prob = one_row_problem(case)
    est = build_linear_estimate(prob)
    assert est.solution is None
    assert est.H.shape == (prob.m, 1) and est.lam.shape == (1,)
    assert est.risk_bound == np.sqrt(est.opt)
    if prob.ell.tset.variant == SEGMENT:
        assert exact_risk_on_ellipsoid(est.H, prob) == pytest.approx(est.opt, rel=1e-12)
    padded = EstimationProblem(prob.A, np.vstack([prob.B, 0.0 * prob.B]), prob.sigma, prob.ell)
    sdp = build_linear_estimate(padded)
    assert sdp.solution is not None and sdp.solution.is_optimal
    assert sdp.opt == pytest.approx(est.opt, rel=1e-7)


def test_validation_errors():
    ell = Ellitope.ellipsoid(np.eye(2))
    with pytest.raises(ValueError):
        EstimationProblem(A=np.eye(3), B=np.eye(2), sigma=0.1, ell=ell)
    with pytest.raises(ValueError):
        EstimationProblem(A=np.eye(2), B=np.eye(2), sigma=0.0, ell=ell)
    with pytest.raises(ValueError):
        EstimationProblem(A=np.eye(2), B=np.zeros((2, 2)), sigma=0.1, ell=ell)


def test_design_exact_on_ellipsoids():
    # on a K = 1 ellipsoid the certified bound matches the exact risk of the
    # returned H: the design is tight there
    for trial in range(6):
        rng = stream(21, trial)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        nu = int(rng.integers(1, 4))
        G = rng.standard_normal((n, n))
        S1 = G @ G.T / n + 0.2 * np.eye(n)
        prob = EstimationProblem(
            A=rng.standard_normal((m, n)),
            B=rng.standard_normal((nu, n)),
            sigma=float(rng.uniform(0.1, 1.0)),
            ell=Ellitope.ellipsoid(S1))
        est = build_linear_estimate(prob)
        exact = exact_risk_on_ellipsoid(est.H, prob)
        assert exact == pytest.approx(est.opt, rel=1e-6, abs=1e-8)


def test_certificate_dominates_any_h():
    # Opt is a minimum: the exact risk of a perturbed H can only be larger
    rng = stream(21, 100)
    prob = random_problem(rng, 4, 4, 2, 1, sigma=0.3)
    if prob.ell.K != 1 or prob.ell.tset.variant != "unit_segment":
        prob = EstimationProblem(A=prob.A, B=prob.B, sigma=prob.sigma,
                                 ell=Ellitope.ellipsoid(np.eye(4)))
    est = build_linear_estimate(prob)
    base = exact_risk_on_ellipsoid(est.H, prob)
    for _ in range(5):
        Hp = est.H + 0.05 * rng.standard_normal(est.H.shape)
        assert exact_risk_on_ellipsoid(Hp, prob) >= base - 1e-7


def test_worst_case_signal_attains_bias():
    rng = stream(21, 200)
    n, m, nu = 4, 3, 2
    prob = EstimationProblem(
        A=rng.standard_normal((m, n)), B=rng.standard_normal((nu, n)),
        sigma=0.25, ell=Ellitope.ellipsoid(np.eye(n)))
    est = build_linear_estimate(prob)
    x = worst_case_signal(est.H, prob)
    assert prob.ell.contains(x, tol=1e-9)
    M = prob.B - est.H.T @ prob.A
    bias_sq = float(np.sum((M @ x) ** 2))
    exact = exact_risk_on_ellipsoid(est.H, prob)
    assert prob.sigma ** 2 * np.sum(est.H ** 2) + bias_sq == pytest.approx(exact, rel=1e-9)


def test_empirical_risk_within_certificate():
    rng = stream(21, 300)
    prob = EstimationProblem(
        A=rng.standard_normal((4, 4)), B=np.eye(4), sigma=0.2,
        ell=Ellitope.ellipsoid(np.eye(4)))
    est = build_linear_estimate(prob)
    x = worst_case_signal(est.H, prob)
    mean_sq, se = empirical_risk(est, prob, x, N=40_000, seed=5)
    assert mean_sq <= est.opt + 5 * se
    # worst-case signal pushes the risk close to the certificate
    assert mean_sq >= 0.5 * est.opt


def test_empirical_risk_validation():
    prob = scalar_problem(0.5)
    est = build_linear_estimate(prob)
    with pytest.raises(ValueError):
        empirical_risk(est, prob, np.array([0.5]), N=10, seed=0)
    with pytest.raises(ValueError):
        empirical_risk(est, prob, np.array([2.0]), N=1000, seed=0)


def test_empirical_risk_deterministic():
    prob = scalar_problem(1.0)
    est = build_linear_estimate(prob)
    a = empirical_risk(est, prob, np.array([1.0]), N=500, seed=9)
    b = empirical_risk(est, prob, np.array([1.0]), N=500, seed=9)
    assert a == b
    c = empirical_risk(est, prob, np.array([1.0]), N=500, seed=10)
    assert a != c


def test_apply_shapes():
    rng = stream(21, 400)
    prob = EstimationProblem(
        A=rng.standard_normal((5, 3)), B=rng.standard_normal((2, 3)),
        sigma=0.3, ell=Ellitope.ellipsoid(np.eye(3)))
    est = build_linear_estimate(prob)
    omega = rng.standard_normal(5)
    w = apply(est, omega)
    assert w.shape == (2,)
    np.testing.assert_allclose(w, est.H.T @ omega)
    with pytest.raises(ValueError):
        apply(est, np.zeros(4))


def test_duality_gap_small_random(rng):
    # certified objective equals the dual objective at the solver tolerance
    for trial in range(4):
        sub = stream(22, trial)
        prob = random_problem(sub, 4, 3, 2, 2)
        est = build_linear_estimate(prob)
        sol = est.solution
        assert sol is not None and sol.is_optimal
        assert abs(sol.pobj - sol.dobj) <= 1e-6 * (1 + abs(sol.pobj))
