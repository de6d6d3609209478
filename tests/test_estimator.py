"""Linear estimate design: closed-form oracles, the one-ellipsoid dual
against the SDP, exactness on ellipsoids, Monte-Carlo risk validation, and
the prediction interface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ellest.estimator import _design_sdp, _ellipsoid_dual
from ellest.rng import stream
from ellest.solver import SolverError, ipm

from conftest import (
    DUAL_CASES,
    ONE_ROW_CASES,
    dual_problem,
    one_row_problem,
    random_ellipsoid_problem,
    random_problem,
    scalar_problem,
)


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


@pytest.mark.parametrize("case", ONE_ROW_CASES)
def test_one_row_closed_form_matches_the_sdp(case, conelp_calls):
    # with nu = 1 the dual's only W is 1, so no Newton step is taken and H
    # is the ridge estimate of a linear form: (A'A + sigma^2 S_1) g = b,
    # h = A g, r = b - A'h, lam = r'S_1^-1 r and Opt = sigma^2 ||h||^2 +
    # lam, the exact risk of h. B = [b; 0] has the same Opt at nu = 2,
    # from the dual and from the SDP.
    prob = one_row_problem(case)
    est = build_linear_estimate(prob)
    assert est.solution is None and not conelp_calls
    assert est.H.shape == (prob.m, 1) and est.lam.shape == (1,)
    assert est.risk_bound == np.sqrt(est.opt)
    A, b, S, s2 = prob.A, prob.B[0], prob.ell.S[0], prob.sigma ** 2
    h = A @ np.linalg.solve(A.T @ A + s2 * S, b)
    r = b - A.T @ h
    lam = float(r @ np.linalg.solve(S, r))
    np.testing.assert_allclose(est.H[:, 0], h, rtol=1e-12, atol=1e-12 * np.abs(h).max())
    assert est.lam[0] == pytest.approx(lam, rel=1e-12, abs=1e-12 * est.opt)
    assert est.opt == pytest.approx(s2 * (h @ h) + lam, rel=1e-12)
    assert exact_risk_on_ellipsoid(est.H, prob) == pytest.approx(est.opt, rel=1e-12)
    padded = EstimationProblem(prob.A, np.vstack([prob.B, 0.0 * prob.B]), prob.sigma, prob.ell)
    assert build_linear_estimate(padded).opt == pytest.approx(est.opt, rel=ipm.gap_tolerance())
    sdp = _design_sdp(padded)
    assert sdp.solution is not None and sdp.solution.is_optimal
    assert sdp.opt == pytest.approx(est.opt, rel=1e-7)


@pytest.mark.parametrize("case", DUAL_CASES)
def test_ellipsoid_dual_certifies_the_sdp_value(case, conelp_calls):
    # Opt is the exact risk of H, within the gap target of the dual value
    # g(W), which lies below the exact risk of every H (the SDP's included)
    prob = dual_problem(case)
    est, lower = _ellipsoid_dual(prob)
    assert build_linear_estimate(prob).opt == est.opt
    assert est.solution is None and not conelp_calls
    assert est.H.shape == (prob.m, prob.nu) and est.lam.shape == (1,)
    assert est.risk_bound == np.sqrt(est.opt)
    assert exact_risk_on_ellipsoid(est.H, prob) == pytest.approx(est.opt, rel=1e-12)
    assert 0.0 <= est.opt - lower <= ipm.gap_tolerance() * est.opt
    sdp = _design_sdp(prob)
    assert abs(est.opt - sdp.opt) <= 1e-7 * max(1.0, est.opt)
    assert lower <= exact_risk_on_ellipsoid(sdp.H, prob) * (1.0 + 1e-12)


def test_ellipsoid_dual_raises_when_the_steps_run_out(monkeypatch):
    monkeypatch.setattr(ipm, "MAX_ITER", 1)
    with pytest.raises(SolverError, match="1 Newton steps with relative gap"):
        build_linear_estimate(dual_problem("pendulum8-4"))


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 20), m=st.integers(1, 5), n=st.integers(1, 5),
       nu=st.integers(1, 4), sigma=st.floats(0.01, 3.0), grow=st.floats(1.01, 4.0))
def test_ellipsoid_opt_grows_with_sigma_and_targets(seed, m, n, nu, sigma, grow):
    # Opt is nondecreasing in sigma and in the rows of B; each value is
    # certified to within the gap target above the true one
    rng = stream(25, seed)
    prob = random_ellipsoid_problem(seed, rng.standard_normal((m, n)),
                             rng.standard_normal((nu, n)), sigma)
    floor = build_linear_estimate(prob).opt * (1.0 - ipm.gap_tolerance())
    noisier = EstimationProblem(prob.A, prob.B, grow * sigma, prob.ell)
    more = EstimationProblem(prob.A, np.vstack([prob.B, rng.standard_normal(n)]), sigma, prob.ell)
    assert build_linear_estimate(noisier).opt >= floor
    assert build_linear_estimate(more).opt >= floor


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


@pytest.mark.parametrize("tset", [TSet.unit_box(1), TSet.pnorm_ball(1, 2.0),
                                  TSet.pnorm_ball(1, 4.0)], ids=["box", "pnorm-2", "pnorm-4"])
def test_every_one_target_set_is_the_same_ellipsoid(tset):
    # a K = 1 T is [0, 1] whatever its variant, so the exact risk and the
    # worst-case signal are those of the segment's ellipsoid {x'S_1 x <= 1}
    rng = stream(21, 250)
    n, m, nu = 4, 3, 2
    G = rng.standard_normal((n, n))
    S1 = G @ G.T / n + 0.2 * np.eye(n)
    A, B = rng.standard_normal((m, n)), rng.standard_normal((nu, n))
    segment = EstimationProblem(A, B, 0.25, Ellitope.ellipsoid(S1))
    other = EstimationProblem(A, B, 0.25, Ellitope(n, S1[None], tset))
    H = build_linear_estimate(segment).H
    assert exact_risk_on_ellipsoid(H, other) == exact_risk_on_ellipsoid(H, segment)
    np.testing.assert_array_equal(worst_case_signal(H, other), worst_case_signal(H, segment))
    two = EstimationProblem(A, B, 0.25, Ellitope(n, np.stack([S1, np.eye(n)]), TSet.unit_box(2)))
    with pytest.raises(ValueError, match="K = 1"):
        exact_risk_on_ellipsoid(H, two)


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
