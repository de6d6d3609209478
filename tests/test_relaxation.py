"""Semidefinite relaxation of quadratic maximization over an ellitope:
tightness on ellipsoids, the 4 ln(5K) approximation window against a
brute-force vertex oracle on boxes, randomized rounding, the sign-vector
moment inequality behind the rounding guarantee, and the one dual solve
that gives the relaxation value, its covariance and m_star."""

import itertools
import math

import numpy as np
import pytest

from ellest import (
    Ellitope,
    TSet,
    check_rademacher_moment,
    factor_bound,
    m_star,
    relax_quadratic_max,
    round_rademacher,
    solve_and_round,
)
from ellest import sdp_relaxation
from ellest.ellitope import add_tset_cone
from ellest.linalg import svec, svec_len
from ellest.rng import stream
from ellest.solver import Builder, solve_or_raise


def test_constraint_matrix_objective():
    # C equal to the defining S1: optimum 1 on the boundary
    n = 4
    S1 = np.diag(np.arange(1.0, n + 1.0))
    ell = Ellitope.ellipsoid(S1)
    opt, Q, t = relax_quadratic_max(S1, ell)
    assert opt == pytest.approx(1.0, rel=1e-6)
    assert np.trace(S1 @ Q) <= 1.0 + 1e-7
    assert t.shape == (1,)


def test_negative_definite_objective():
    ell = Ellitope.ellipsoid(np.diag(np.arange(1.0, 5.0)))
    opt, Q, t = relax_quadratic_max(-np.eye(4), ell)
    assert opt == pytest.approx(0.0, abs=1e-6)


def test_tight_on_ellipsoids():
    # K = 1: the relaxation value is exactly the Rayleigh quotient maximum
    rng = stream(61, 0)
    n = 4
    S1 = np.diag(np.arange(1.0, n + 1.0))
    ell = Ellitope.ellipsoid(S1)
    G = rng.normal(size=(n, n))
    C = 0.5 * (G + G.T)
    L = np.linalg.cholesky(S1)
    Mi = np.linalg.inv(L)
    true = max(float(np.linalg.eigvalsh(Mi @ C @ Mi.T)[-1]), 0.0)
    opt, Q, t = relax_quadratic_max(C, ell)
    assert opt == pytest.approx(true, rel=1e-6)
    x_hat, val_hat, used = round_rademacher(C, ell, Q, t, seed=3, budget=100)
    assert val_hat >= 0.99 * opt
    assert ell.contains(x_hat, tol=1e-9)


def test_scalar_rounding_exact():
    e1 = Ellitope.ellipsoid(np.array([[2.0]]))
    opt, Q, t = relax_quadratic_max(np.array([[3.0]]), e1)
    x1, v1, used = round_rademacher(np.array([[3.0]]), e1, Q, t, seed=0, budget=10)
    # in one dimension the boundary rescale recovers the relaxation value
    assert v1 == pytest.approx(opt, rel=1e-6)
    assert used == 1


def test_box_vertex_oracle_window():
    # PSD objective on a coordinate box: the true maximum sits at a vertex,
    # enumerable for n = 6; relaxation within [opt / (4 ln(5K)), opt]
    for trial in range(3):
        rng = stream(61, 1, trial)
        nb = 6
        a = rng.uniform(0.5, 2.0, size=nb)
        ell = Ellitope.coordinate_box(a)
        G = rng.normal(size=(nb, nb))
        C = G @ G.T
        opt, Q, t = relax_quadratic_max(C, ell)
        verts = np.array(list(itertools.product(*[(-1.0 / ak, 1.0 / ak) for ak in a])))
        brute = max(float(v @ C @ v) for v in verts)
        sstar = factor_bound(nb)
        rel = 1e-7 * (1.0 + abs(opt))
        assert opt / sstar - rel <= brute <= opt + rel
        x, v, used = round_rademacher(C, ell, Q, t, seed=trial, budget=200)
        assert v >= opt / sstar - rel
        assert ell.contains(x, tol=1e-9)


def test_factor_bound_formula():
    assert factor_bound(1) == pytest.approx(4.0 * math.log(5.0))
    assert factor_bound(7) == pytest.approx(4.0 * math.log(35.0))
    with pytest.raises(ValueError):
        factor_bound(0)


def test_moment_rank_one_exact():
    # S = e1 e1': the moment is E exp(s^2/4) with s^2 = 1, exactly e^(1/4)
    mc, ok = check_rademacher_moment(np.diag([1.0] + [0.0] * 7), N=20_000, seed=1)
    assert mc == pytest.approx(math.exp(0.25), rel=1e-12)
    assert ok


def test_moment_identity_scaled():
    mc, ok = check_rademacher_moment(np.eye(16) / 16.0, N=50_000, seed=2)
    assert ok
    assert mc < 3.0 * math.sqrt(2.0)


def test_moment_random_rank_one():
    rng = stream(61, 2)
    g = rng.normal(size=12)
    Sg = np.outer(g, g) / (g @ g)
    mc, ok = check_rademacher_moment(Sg, N=50_000, seed=3)
    assert ok


def test_solve_and_round_wrapper():
    rng = stream(61, 3)
    n = 5
    a = rng.uniform(0.5, 2.0, size=n)
    ell = Ellitope.coordinate_box(a)
    G = rng.normal(size=(n, n))
    C = G @ G.T
    res = solve_and_round(C, ell, seed=4, budget=150)
    assert res.opt > 0
    assert 0 < res.val_hat <= res.opt * (1.0 + 1e-7)
    assert res.ratio == pytest.approx(res.val_hat / res.opt, rel=1e-12)
    assert res.ratio >= 1.0 / factor_bound(ell.K) - 1e-9
    assert ell.contains(res.x_hat, tol=1e-9)
    assert res.details["factor_bound"] == pytest.approx(factor_bound(ell.K))
    assert res.trials_used >= 1


@pytest.mark.parametrize("C", [-np.eye(3), np.diag([-1.0, -2.0, 0.0]), -np.ones((3, 3))],
                         ids=["minus-identity", "nsd-diagonal", "minus-ones"])
def test_nonpositive_relaxation_returns_the_origin(C, monkeypatch):
    # opt <= 0 bounds x'Cx over the set, so x = 0 is optimal and nothing is rounded
    def no_rounding(*a, **kw):
        raise AssertionError("rounded although opt <= 0")

    monkeypatch.setattr(sdp_relaxation, "round_rademacher", no_rounding)
    ell = Ellitope.coordinate_box(np.ones(3))
    res = solve_and_round(C, ell)
    assert res.opt <= 0
    assert np.array_equal(res.x_hat, np.zeros(3))
    assert (res.val_hat, res.ratio, res.trials_used) == (0.0, 1.0, 0)
    assert res.details["factor_bound"] == pytest.approx(factor_bound(3))


def _covariance_primal(C, ell):
    """Reference value of max Tr(CQ) over Q >= 0, Tr(QS_k) <= t_k, t in T,
    solved as the program in (Q, t)."""
    n = ell.n
    b = Builder()
    q, t = b.vars("Q", svec_len(n)), b.vars("t", ell.K)
    b.objective(q, -svec(C))
    b.lmi(n).matrix_term(q, np.eye(n), np.eye(n))
    for k in range(ell.K):
        b.ineq(np.append(q, t[k]), np.append(svec(ell.S[k]), -1.0), 0.0)
    add_tset_cone(b, ell.tset, t)
    return -solve_or_raise(b.build()).pobj


def _instance(tset, seed):
    rng = stream(61, 4, seed)
    n = 6
    S = np.empty((tset.K, n, n))
    for k in range(tset.K):
        G = rng.normal(size=(n, n // 2))
        S[k] = G @ G.T
    S[0] += 0.1 * np.eye(n)
    G = rng.normal(size=(n, n))
    return Ellitope(n, S, tset), G + G.T, rng.normal(size=(4, n))


TSETS = [TSet.unit_box(3), TSet.pnorm_ball(3, 2.0), TSet.pnorm_ball(3, 4.0)]


@pytest.mark.parametrize("tset", TSETS, ids=["box", "p2", "p4"])
def test_covariance_from_the_dual_multiplier(tset):
    ell, C, B = _instance(tset, 0)
    opt, Q, t = relax_quadratic_max(C, ell)
    assert np.linalg.eigvalsh(Q)[0] >= -1e-12
    loads = np.einsum("kij,ji->k", ell.S, Q)
    assert tset.contains(loads) and tset.contains(t)
    assert np.all(t >= loads - 1e-12)
    assert abs(np.sum(C * Q) - opt) <= 1e-6 * (1.0 + abs(opt))
    ref = _covariance_primal(C, ell)
    assert opt == pytest.approx(ref, rel=1e-6)
    assert m_star(B, ell) ** 2 == pytest.approx(_covariance_primal(B.T @ B, ell), rel=1e-6)


def test_one_solve_in_k_variables(conelp_calls):
    ell, C, B = _instance(TSETS[2], 1)
    relax_quadratic_max(C, ell)
    assert len(conelp_calls) == 1
    m_star(B, ell)
    assert len(conelp_calls) == 2
    # (c, G, h, dims): K multipliers and the epigraph of phi_T
    assert [len(call[0]) for call in conelp_calls] == [ell.K + 1] * 2
