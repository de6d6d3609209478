"""Robust design under norm-bounded structured perturbations of (A, B):
reduction to the nominal problem at r = 0, domination of every fixed
perturbation, sampled feasibility, and monotonicity in the radius."""

import numpy as np
import pytest

from ellest import (
    Ellitope,
    EstimationProblem,
    SRiskProblem,
    UncertaintyModel,
    build_robust_estimate,
    build_srisk_estimate,
    verify_robust_feasibility,
)
from ellest import robust
from ellest.experiments import gen_random_rotated_A
from ellest.linalg import svec_len
from ellest.rng import stream

ELL1 = Ellitope.ellipsoid(np.array([[1.0]]))
A1 = np.array([[1.0]])
B1 = np.array([[1.0]])
S0 = np.zeros((1, 1))


def nominal_tau() -> float:
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), S0)
    return build_srisk_estimate(sp).tau


def test_zero_radius_equals_nominal():
    um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.0)
    _, _, _, opt = build_robust_estimate(um, 1.0, S0, ELL1)
    assert opt == pytest.approx(nominal_tau(), rel=1e-6)


@pytest.mark.parametrize("S1", [np.diag(np.arange(1.0, 17.0) ** 2), np.eye(16)],
                         ids=["weighted", "identity"])
def test_zero_radius_nonzero_channel_is_the_nominal_program(S1):
    # at r = 0, mu would enter only as mu I_p, its optimum reached only as
    # mu -> infinity; the channel must vanish instead
    rng = stream(51, 3)
    n, p, sigma = 16, 4, 0.05
    ell = Ellitope.ellipsoid(S1)
    A, B, S = gen_random_rotated_A(n, seed=3), np.eye(n), np.zeros((n, n))
    um = UncertaintyModel(A, B, 0.2 * rng.normal(size=(p, 2 * n)),
                          0.2 * rng.normal(size=(p, n)), 0.0)
    _, _, mu, opt = build_robust_estimate(um, sigma, S, ell)
    assert mu == 0.0
    assert opt == build_srisk_estimate(
        SRiskProblem(EstimationProblem(A, B, sigma, ell), S)).tau


def test_zero_left_factor_trivial_path():
    um = UncertaintyModel(A1, B1, np.zeros((1, 2)), np.array([[1.0]]), 0.5)
    _, _, mu, opt = build_robust_estimate(um, 1.0, S0, ELL1)
    assert opt == pytest.approx(nominal_tau(), rel=1e-6)
    assert mu == pytest.approx(0.0, abs=1e-9)


def test_robust_dominates_fixed_perturbations():
    um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.5)
    Hr, lamr, mur, optr = build_robust_estimate(um, 1.0, S0, ELL1)
    assert optr >= nominal_tau() - 1e-9
    worst = 0.0
    for d in np.linspace(-0.5, 0.5, 11):
        Ad, Bd = um.perturbed(np.array([[d]]))
        vd = build_srisk_estimate(
            SRiskProblem(EstimationProblem(Ad, Bd, 1.0, ELL1), S0)).tau
        worst = max(worst, vd)
    assert worst <= optr + 1e-7


def test_sampled_feasibility():
    um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.5)
    Hr, lamr, mur, optr = build_robust_estimate(um, 1.0, S0, ELL1)
    fr = verify_robust_feasibility(Hr, lamr, optr, um, S0, ELL1, N=500, seed=7)
    assert fr == 1.0
    # the nominal design must fail somewhere inside the uncertainty set
    sp = SRiskProblem(EstimationProblem(A1, B1, 1.0, ELL1), S0)
    nom = build_srisk_estimate(sp)
    fn = verify_robust_feasibility(nom.H, nom.lam, nom.tau, um, S0, ELL1,
                                   N=500, seed=7)
    assert fn < 1.0


def _single_draw_fraction(H, lam, tau, um, S, ell, N, seed):
    # verify_robust_feasibility one draw at a time, through design_lmi_min_eig
    p, q = um.E.shape[0], um.F.shape[0]
    good = 0
    for i in range(N):
        rng = stream(seed, i)
        Delta = np.zeros((p, q))
        if um.r > 0:
            G = rng.normal(size=(p, q))
            u = 1.0 if i == 0 else rng.uniform()
            Delta = G * (u * um.r / np.linalg.norm(G, 2))
        Ap, Bp = um.perturbed(Delta)
        good += robust.design_lmi_min_eig(H, lam, tau, Ap, Bp, S, ell) >= -1e-7
    return good / N


@pytest.mark.parametrize("r", [0.5, 0.0])
def test_batched_feasibility_matches_single_draws(monkeypatch, r):
    # a design made robust to radius 0.25 holds at some draws of radius 0.5
    # and fails at others; batches of 7 draws, so N = 60 ends in a partial
    # batch
    rng = stream(51, 2)
    n, m, nu, p, q = 3, 3, 2, 2, 2
    ell = Ellitope.coordinate_box(np.array([1.0, 0.5, 2.0]))
    A, B = rng.normal(size=(m, n)), rng.normal(size=(nu, n))
    E, F = rng.normal(size=(p, m + nu)) * 0.3, rng.normal(size=(q, n)) * 0.3
    S = np.diag([0.1, 0.2, 0.05])
    H, lam, _, opt = build_robust_estimate(UncertaintyModel(A, B, E, F, 0.25), 0.5, S, ell)
    monkeypatch.setattr(robust, "VERIFY_ENTRIES", 7 * (n + nu) ** 2)
    args = (H, lam, opt, UncertaintyModel(A, B, E, F, r), S, ell)
    frac = verify_robust_feasibility(*args, N=60, seed=4)
    assert frac == _single_draw_fraction(*args, N=60, seed=4)
    if r:
        assert 0.0 < frac < 1.0


def test_mu_enters_only_the_lmi(monkeypatch):
    # the mu I_p corner of the bordered LMI makes mu >= 0: no orthant row
    progs, real = [], robust.solve_or_raise
    monkeypatch.setattr(robust, "solve_or_raise", lambda prog: progs.append(prog) or real(prog))
    um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.5)
    _, _, mu, _ = build_robust_estimate(um, 1.0, S0, ELL1)
    (prog,) = progs
    _, G, _, dims = prog.lower()
    G = G.toarray()
    lo, hi = prog.var_table["mu"]
    lmi_rows = sum(svec_len(k) for k in dims.s)
    assert dims.s == (3,) and mu >= 0.0
    assert not np.any(G[:-lmi_rows, lo:hi])
    assert np.any(G[-lmi_rows:, lo:hi])


def test_value_monotone_in_radius():
    prev = -1.0
    for r in np.linspace(0.0, 1.0, 6):
        um = UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), r)
        _, _, _, v = build_robust_estimate(um, 1.0, S0, ELL1)
        assert v >= prev - 1e-7
        prev = v


def test_matrix_instance_with_srisk_and_box():
    rng = stream(51, 0)
    n, m, nu, p, q = 3, 3, 2, 2, 2
    ell = Ellitope.coordinate_box(np.array([1.0, 0.5, 2.0]))
    A = rng.normal(size=(m, n))
    B = rng.normal(size=(nu, n))
    E = rng.normal(size=(p, m + nu)) * 0.3
    F = rng.normal(size=(q, n)) * 0.3
    S = np.diag([0.1, 0.2, 0.05])
    um = UncertaintyModel(A, B, E, F, 0.4)
    H, lam, mu, opt = build_robust_estimate(um, 0.5, S, ell)
    feas = verify_robust_feasibility(H, lam, opt, um, S, ell, N=300, seed=1)
    nom = build_srisk_estimate(SRiskProblem(EstimationProblem(A, B, 0.5, ell), S))
    assert opt >= nom.tau - 1e-8
    assert feas == 1.0


def test_perturbed_respects_structure():
    rng = stream(51, 1)
    m, n, nu, p, q = 3, 2, 2, 2, 2
    A = rng.normal(size=(m, n))
    B = rng.normal(size=(nu, n))
    E = rng.normal(size=(p, m + nu))
    F = rng.normal(size=(q, n))
    um = UncertaintyModel(A, B, E, F, 0.7)
    D = rng.normal(size=(p, q))
    D *= 0.7 / max(np.linalg.norm(D, 2), 1e-12)
    Ad, Bd = um.perturbed(D)
    stacked = np.vstack([Ad - A, Bd - B])
    np.testing.assert_allclose(stacked, np.vstack([E[:, :m].T, E[:, m:].T]) @ D @ F,
                               atol=1e-12)


def test_uncertainty_model_validation():
    with pytest.raises(ValueError):
        UncertaintyModel(A1, B1, np.array([[1.0, 1.0]]), np.array([[1.0]]), -0.1)
    with pytest.raises(ValueError):
        UncertaintyModel(A1, B1, np.array([[1.0]]), np.array([[1.0]]), 0.5)
