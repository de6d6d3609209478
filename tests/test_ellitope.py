"""Ellitope geometry: parameter sets, membership, support functions,
sampling, serialization, and the calculus operations."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from ellest import (
    Ellitope,
    EstimationProblem,
    TSet,
    build_linear_estimate,
    direct_product,
    intersect,
    inverse_image,
    read_ellitope,
    write_ellitope,
    write_matrix,
)
from ellest.cli import main
from ellest.rng import stream

from conftest import random_ellitope


# --- TSet ---

def test_tset_validation():
    with pytest.raises(ValueError):
        TSet("simplex", 2)
    with pytest.raises(ValueError):
        TSet("unit_segment", 2)
    with pytest.raises(ValueError):
        TSet.pnorm_ball(3, 1.5)
    with pytest.raises(ValueError):
        TSet("unit_box", 3, p=2.0)
    with pytest.raises(ValueError):
        TSet("unit_box", 0)


def test_tset_contains_segment_and_box():
    seg = TSet.unit_segment()
    assert seg.contains(np.array([0.0]))
    assert seg.contains(np.array([1.0]))
    assert not seg.contains(np.array([1.1]))
    assert not seg.contains(np.array([-0.1]))
    box = TSet.unit_box(3)
    assert box.contains(np.array([1.0, 0.5, 0.0]))
    assert not box.contains(np.array([1.0, 1.2, 0.0]))


def test_tset_contains_pball():
    # p = 2: sum t_k <= 1 on the nonnegative orthant
    b2 = TSet.pnorm_ball(2, 2.0)
    assert b2.contains(np.array([0.5, 0.5]))
    assert not b2.contains(np.array([0.6, 0.6]))
    # p = 4: sum t_k^2 <= 1
    b4 = TSet.pnorm_ball(2, 4.0)
    r = 1.0 / np.sqrt(2.0)
    assert b4.contains(np.array([r, r]))
    assert not b4.contains(np.array([r + 1e-3, r + 1e-3]))


def test_tset_support_closed_forms():
    lam = np.array([0.3, 0.0, 1.2])
    box = TSet.unit_box(3)
    assert box.support(lam) == pytest.approx(1.5)
    seg = TSet.unit_segment()
    assert seg.support(np.array([0.7])) == pytest.approx(0.7)
    # p = 2: max over vertices e_k
    b2 = TSet.pnorm_ball(3, 2.0)
    assert b2.support(lam) == pytest.approx(1.2)
    # p = 4: dual norm with exponent q = p/(p-2) = 2
    b4 = TSet.pnorm_ball(3, 4.0)
    assert b4.support(lam) == pytest.approx(np.sqrt(0.09 + 1.44))
    assert TSet.unit_box(2).support(np.array([0.5, 1.5])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        box.support(np.array([0.1, -0.2, 0.0]))


def test_tset_support_matches_sampled_max():
    rng = stream(3, 0)
    for tset in (TSet.unit_box(4), TSet.pnorm_ball(4, 2.0), TSet.pnorm_ball(4, 4.0)):
        lam = rng.uniform(0.0, 2.0, size=4)
        ts = tset.sample(rng, 4000)
        sampled = float(np.max(ts @ lam))
        sup = tset.support(lam)
        assert sampled <= sup + 1e-9
        assert sampled >= 0.9 * sup  # sampler reaches near the support value


def test_tset_boundary_scale():
    box = TSet.unit_box(2)
    assert box.boundary_scale(np.array([0.5, 0.25])) == pytest.approx(2.0)
    assert box.boundary_scale(np.zeros(2)) == np.inf
    b4 = TSet.pnorm_ball(2, 4.0)
    g = np.array([1.0, 1.0])
    gam = b4.boundary_scale(g)
    # gam * g must land exactly on the boundary: sum (gam g)^2 = 1
    assert np.sum((gam * g) ** 2) == pytest.approx(1.0)


def test_tset_summary_quantities():
    assert TSet.unit_box(5).max_sum() == 5.0
    assert TSet.unit_box(5).maximin() == 1.0
    assert TSet.unit_segment().cond() == 1.0
    b2 = TSet.pnorm_ball(4, 2.0)
    assert b2.max_sum() == pytest.approx(1.0)
    assert b2.maximin() == pytest.approx(0.25)
    assert b2.cond() == pytest.approx(2.0)
    b4 = TSet.pnorm_ball(4, 4.0)
    assert b4.max_sum() == pytest.approx(2.0)
    assert b4.maximin() == pytest.approx(0.5)


# --- Ellitope ---

def test_ellitope_validation():
    S = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        Ellitope(2, S, TSet.unit_segment())      # sum not PD
    S_bad = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        Ellitope(2, S_bad, TSet.unit_segment())  # not symmetric
    S_neg = np.array([[[1.0, 0.0], [0.0, -1.0]]])
    with pytest.raises(ValueError):
        Ellitope(2, S_neg, TSet.unit_segment())  # not PSD
    with pytest.raises(ValueError):
        Ellitope(2, np.eye(2)[None], TSet.unit_box(2))  # K mismatch


def test_ellipsoid_membership():
    S1 = np.diag([1.0, 4.0])
    ell = Ellitope.ellipsoid(S1)
    assert ell.K == 1
    assert ell.contains(np.array([1.0, 0.0]))
    assert ell.contains(np.array([0.0, 0.5]))
    assert not ell.contains(np.array([0.0, 0.51]))
    assert ell.loads(np.array([1.0, 0.5])) == pytest.approx(np.array([2.0]))


def test_coordinate_box_membership():
    a = np.array([1.0, 2.0, 4.0])
    ell = Ellitope.coordinate_box(a)
    assert ell.K == 3
    assert ell.contains(np.array([1.0, 0.5, 0.25]))
    assert not ell.contains(np.array([1.0, 0.5, 0.26]))
    assert not ell.contains(np.array([-1.01, 0.0, 0.0]))


def test_ellitope_sample_on_boundary():
    rng = stream(3, 1)
    ell = random_ellitope(rng, 4, 3)
    X = ell.sample(rng, 50, boundary=True)
    for x in X:
        assert ell.contains(x, tol=1e-7)
        # on the boundary: scaling up by 0.1% must leave the set
        assert not ell.contains(x * 1.001, tol=1e-9) or np.allclose(x, 0)
    Xi = ell.sample(rng, 50, boundary=False)
    for x in Xi:
        assert ell.contains(x, tol=1e-7)


def test_ellitope_kappa_positive():
    rng = stream(3, 2)
    ell = random_ellitope(rng, 5, 2)
    assert ell.kappa > 0
    w = np.linalg.eigvalsh(ell.S.sum(axis=0))
    assert ell.kappa == pytest.approx(w[0])


# --- io round trip ---

def test_ellitope_json_roundtrip(tmp_path, rng):
    ell = random_ellitope(rng, 4, 2)
    path = tmp_path / "ell.json"
    write_ellitope(str(path), ell)
    back = read_ellitope(str(path))
    assert back.n == ell.n and back.K == ell.K
    assert back.tset == ell.tset
    np.testing.assert_allclose(back.S, ell.S, atol=1e-15)
    payload = json.loads(path.read_text())
    assert payload["n"] == 4


# --- calculus ---

def test_direct_product_membership():
    e1 = Ellitope.ellipsoid(np.eye(2))
    e2 = Ellitope.coordinate_box(np.array([1.0, 1.0]))
    prod = direct_product([e1, e2])
    assert isinstance(prod, Ellitope)
    assert prod.n == 4
    assert prod.K == e1.K + e2.K
    x = np.array([0.6, 0.8, 1.0, -1.0])
    assert prod.contains(x, tol=1e-6)
    assert not prod.contains(np.array([0.8, 0.8, 1.0, -1.0]))


def test_intersection_membership():
    ball = Ellitope.ellipsoid(np.eye(2) / 4.0)          # radius 2
    box = Ellitope.coordinate_box(np.array([1.0, 1.0]))  # unit box
    inter = intersect([ball, box])
    assert inter.K == ball.K + box.K
    assert inter.contains(np.array([1.0, 1.0]), tol=1e-6)  # corner: norm sqrt2 < 2
    assert not inter.contains(np.array([1.5, 0.0]))        # in ball, not box
    assert inter.contains(np.array([0.9, -0.9]))


def test_calculus_rejects_bad_operands():
    ell = Ellitope.ellipsoid(np.eye(2))
    with pytest.raises(ValueError):
        intersect([])
    with pytest.raises(ValueError):
        intersect([ell, Ellitope.ellipsoid(np.eye(3))])
    with pytest.raises(ValueError):
        inverse_image(ell, np.ones((2, 2)))               # nontrivial kernel
    with pytest.raises(ValueError):
        inverse_image(ell, np.eye(3))                     # wrong ambient size
    with pytest.raises(NotImplementedError):
        direct_product([ell, Ellitope(2, np.stack([np.eye(2)] * 2), TSet.pnorm_ball(2, 2.0))])


# --- calculus: property tests of the paper identities ---

calculus_settings = settings(max_examples=6, derandomize=True, deadline=None)


def box_family_ellitope(rng, n, K):
    """Random ellitope whose T is a segment or a box, so products exist."""
    ell = random_ellitope(rng, n, K)
    return Ellitope(n, ell.S, TSet.unit_segment() if K == 1 else TSet.unit_box(K))


def probe_points(rng, ell, count=20):
    """Points around the boundary of ell: inside and outside both occur."""
    X = ell.sample(rng, count)
    return X * rng.uniform(0.5, 1.5, size=(count, 1))


def design_opt(A, B, ell, sigma=0.5):
    return build_linear_estimate(EstimationProblem(A, B, sigma, ell)).opt


@calculus_settings
@given(seed=st.integers(0, 2 ** 20), n=st.integers(2, 4), K=st.integers(1, 3))
def test_calculus_contains_agrees_with_operands(seed, n, K):
    rng = stream(61, seed)
    X = box_family_ellitope(rng, n, K)
    Y = box_family_ellitope(rng, n, 1 + K % 2)
    both = intersect([X, Y])
    for x in np.vstack([probe_points(rng, X), probe_points(rng, Y)]):
        assert both.contains(x) == (X.contains(x) and Y.contains(x))
    prod = direct_product([X, Y])
    for x, y in zip(probe_points(rng, X), probe_points(rng, Y)):
        assert prod.contains(np.concatenate([x, y])) == (X.contains(x) and Y.contains(y))
    R = rng.standard_normal((n, n - seed % 2))               # square or tall
    pre = inverse_image(X, R)
    for z in probe_points(rng, pre):
        assert pre.contains(z) == X.contains(R @ z)


@calculus_settings
@given(seed=st.integers(0, 2 ** 20), n=st.integers(2, 3), K=st.integers(1, 2))
def test_intersect_with_itself_keeps_opt(seed, n, K):
    rng = stream(62, seed)
    X = box_family_ellitope(rng, n, K)
    A, B = rng.standard_normal((2, n)), rng.standard_normal((2, n))
    assert design_opt(A, B, intersect([X, X])) == pytest.approx(design_opt(A, B, X), rel=1e-6)


@calculus_settings
@given(seed=st.integers(0, 2 ** 20), n1=st.integers(1, 3), n2=st.integers(1, 3))
def test_direct_product_opt_is_sum(seed, n1, n2):
    """Block-diagonal A and B over X1 x X2: Opt is Opt1 + Opt2."""
    rng = stream(63, seed)
    X1, X2 = box_family_ellitope(rng, n1, 1), box_family_ellitope(rng, n2, 2)
    A1, B1 = rng.standard_normal((2, n1)), rng.standard_normal((1, n1))
    A2, B2 = rng.standard_normal((1, n2)), rng.standard_normal((2, n2))
    opt = design_opt(block_diag(A1, A2), block_diag(B1, B2), direct_product([X1, X2]))
    assert opt == pytest.approx(design_opt(A1, B1, X1) + design_opt(A2, B2, X2), rel=1e-6)


@calculus_settings
@given(seed=st.integers(0, 2 ** 20), n=st.integers(2, 4), K=st.integers(1, 3))
def test_inverse_image_is_the_linear_image_route(seed, n, K):
    """P Y is the inverse image of Y under P^-1, and Opt over it is Opt over Y
    with A -> A P, B -> B P."""
    rng = stream(64, seed)
    Y = random_ellitope(rng, n, K)
    P = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    A, B = rng.standard_normal((3, n)), rng.standard_normal((2, n))
    image = inverse_image(Y, np.linalg.inv(P))
    assert design_opt(A, B, image) == pytest.approx(design_opt(A @ P, B @ P, Y), rel=1e-6)


@calculus_settings
@given(seed=st.integers(0, 2 ** 20), n=st.integers(1, 3))
def test_calculus_result_round_trips_through_cli(seed, n, tmp_path_factory):
    rng = stream(65, seed)
    X = intersect([box_family_ellitope(rng, n, 1), box_family_ellitope(rng, n, 2)])
    X = inverse_image(direct_product([X, box_family_ellitope(rng, 1, 1)]),
                      rng.standard_normal((n + 1, n + 1)))
    A, B = rng.standard_normal((2, n + 1)), rng.standard_normal((2, n + 1))
    d = tmp_path_factory.mktemp("calculus")
    write_ellitope(str(d / "ell.json"), X)
    write_matrix(str(d / "A.csv"), A)
    write_matrix(str(d / "B.csv"), B)
    rc = main(["estimate", str(d / "A.csv"), str(d / "B.csv"), str(d / "ell.json"),
               "--sigma", "0.5", "--out-h", str(d / "H.csv"), "--report", str(d / "r.json")])
    assert rc == 0
    report = json.loads((d / "r.json").read_text())
    assert report["opt"] == pytest.approx(design_opt(A, B, X), rel=1e-9)
