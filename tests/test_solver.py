"""Conic engine: hand-checkable programs, random LPs against scipy,
infeasibility certificates, and the Builder front end."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from ellest import (
    CONTRACTION,
    PARALLELOTOPE,
    QUADRATIC_APPROX,
    Ellitope,
    EstimationProblem,
    SRiskProblem,
    UncertaintyModel,
    build_linear_estimate,
    build_robust_estimate,
    build_srisk_estimate,
    estimator,
    lower_bound,
    m_star,
    solve_bayesian_sdp,
    whole_space_estimate,
)
from ellest.linalg import smat, svec, svec_len
from ellest.lower_bound import _qs_product_triplets, refined_lower_bound
from ellest.rng import stream
from ellest.solver import Builder, SolverError, ipm, program, solve, solve_or_raise
from ellest.solver.cones import (
    PSD_CHUNK,
    ColumnFactors,
    ConeDims,
    Scaling,
    _psd_terms,
    cone_margin,
    max_step,
)
from ellest.solver.ipm import _KKT, conelp

from conftest import optimize_S_sdp


def test_lp_simplex_corner():
    # min -x1-x2 s.t. x1+x2 <= 1, x >= 0  ->  -1
    c = np.array([-1.0, -1.0])
    G = np.vstack([np.array([[1.0, 1.0]]), -np.eye(2)])
    h = np.array([1.0, 0.0, 0.0])
    res = conelp(c, G, h, ConeDims(l=3))
    assert res.status == "optimal"
    assert abs(res.pobj + 1.0) < 1e-7
    assert res.gap < 1e-7


def test_sdp_smallest_diagonal():
    # min u s.t. [[u, 3], [3, u]] >= 0  ->  3
    c = np.array([1.0])
    G = -svec(np.eye(2)).reshape(-1, 1)
    h = svec(np.array([[0.0, 3.0], [3.0, 0.0]]))
    res = conelp(c, G, h, ConeDims(s=(2,)))
    assert res.status == "optimal"
    assert abs(res.pobj - 3.0) < 1e-6


def test_soc_distance_with_equalities():
    # min t s.t. (t, -a) in SOC: the distance of a from the origin  ->  ||a|| = 5
    c = np.array([1.0])
    G = -np.array([[1.0], [0.0], [0.0]])
    h = np.array([0.0, -3.0, -4.0])
    res = conelp(c, G, h, ConeDims(q=(3,)))
    assert res.status == "optimal"
    assert abs(res.pobj - 5.0) < 1e-6


def test_random_lps_match_linprog():
    rng = stream(7, 1)
    matched = 0
    for k in range(25):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        Al = rng.normal(size=(m, n))
        xf = rng.uniform(0.5, 1.5, size=n)
        bl = Al @ xf + rng.uniform(0.1, 1.0, size=m)
        cl = rng.normal(size=n)
        ref = linprog(cl, A_ub=Al, b_ub=bl, bounds=[(0, 10)] * n, method="highs")
        if ref.status != 0:
            continue
        G = np.vstack([Al, -np.eye(n), np.eye(n)])
        h = np.concatenate([bl, np.zeros(n), 10.0 * np.ones(n)])
        res = conelp(cl, G, h, ConeDims(l=G.shape[0]))
        assert res.status == "optimal", (k, res.status, res.message)
        assert abs(res.pobj - ref.fun) < 1e-5 * (1 + abs(ref.fun)), (k, res.pobj, ref.fun)
        matched += 1
    assert matched >= 20


def test_primal_infeasible_certificate():
    # x >= 1 together with x <= 0 is infeasible
    c = np.array([1.0])
    G = np.array([[-1.0], [1.0]])
    h = np.array([-1.0, 0.0])
    res = conelp(c, G, h, ConeDims(l=2))
    assert res.status == "primal_infeasible"
    # Farkas: z >= 0 in the dual cone, G'z = 0, h'z = -1 after normalization
    z = res.z
    assert np.all(z >= -1e-9)
    assert float(np.abs(G.T @ z).max()) < 1e-6
    assert abs(float(h @ z) + 1.0) < 1e-9


def test_dual_infeasible_ray():
    # min -x with only x >= 0 is unbounded below
    c = np.array([-1.0])
    G = np.array([[-1.0]])
    h = np.array([0.0])
    res = conelp(c, G, h, ConeDims(l=1))
    assert res.status == "dual_infeasible"
    x = res.x
    assert abs(float(c @ x) + 1.0) < 1e-9
    assert float((G @ x)[0]) <= 1e-9


def test_sdp_trace_maximization():
    # max Tr(Q) s.t. Tr(diag(1,4) Q) <= 1, Q >= 0  ->  1 (all mass on Q_11)
    S1 = np.diag([1.0, 4.0])
    c = -svec(np.eye(2))
    G = np.vstack([svec(S1), -np.eye(3)])
    h = np.array([1.0, 0.0, 0.0, 0.0])
    res = conelp(c, G, h, ConeDims(l=1, s=(2,)))
    assert res.status == "optimal"
    assert abs(-res.pobj - 1.0) < 1e-6


@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
def test_mixed_soc_psd_scalar_design(sigma):
    # min sigma^2 u + lam s.t. (1-h)^2 <= lam (LMI), h^2 <= u (SOC)
    # optimum sigma^2 / (1 + sigma^2)
    c = np.array([0.0, 1.0, sigma ** 2])
    Glmi = np.zeros((3, 3))
    Glmi[:, 0] = -svec(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    Glmi[:, 1] = -svec(np.array([[1.0, 0.0], [0.0, 0.0]]))
    hlmi = svec(np.array([[0.0, 1.0], [1.0, 1.0]]))
    Gsoc = np.zeros((3, 3))
    Gsoc[0, 2] = -1.0
    Gsoc[1, 0] = -2.0
    Gsoc[2, 2] = -1.0
    hsoc = np.array([1.0, 0.0, -1.0])
    G = np.vstack([Gsoc, Glmi])
    h = np.concatenate([hsoc, hlmi])
    res = conelp(c, G, h, ConeDims(q=(3,), s=(2,)))
    expect = sigma ** 2 / (1.0 + sigma ** 2)
    assert res.status == "optimal"
    assert abs(res.pobj - expect) < 1e-7


def test_builder_lp_roundtrip():
    b = Builder()
    x = b.vars("x", 2)
    b.objective(x, [-1.0, -1.0])
    b.ineq(x, [1.0, 1.0], 1.0)
    b.nonneg(x)
    prog = b.build()
    sol = solve_or_raise(prog)
    assert abs(sol.pobj + 1.0) < 1e-7
    xv = sol.var(prog, "x")
    assert abs(float(np.sum(xv)) - 1.0) < 1e-6


def test_builder_named_variable_extraction():
    b = Builder()
    u = b.vars("u", 1)
    v = b.vars("v", 2)
    b.objective(u, [1.0])
    b.ineq(v, [-1.0, -1.0], -2.0)            # v0 + v1 >= 2
    b.ineq([v[0], u[0]], [1.0, -1.0], 0.0)   # v0 <= u
    b.ineq([v[1], u[0]], [1.0, -1.0], 0.0)   # v1 <= u
    b.nonneg(v)
    prog = b.build()
    sol = solve_or_raise(prog)
    assert abs(sol.pobj - 1.0) < 1e-6
    uv = sol.var(prog, "u")
    vv = sol.var(prog, "v")
    assert uv.shape == (1,) and vv.shape == (2,)
    assert abs(float(vv.sum()) - 2.0) < 1e-6


def test_solve_or_raise_on_infeasible():
    b = Builder()
    x = b.vars("x", 1)
    b.objective(x, [1.0])
    b.ineq(x, [1.0], 0.0)    # x <= 0
    b.ineq(x, [-1.0], -1.0)  # x >= 1
    with pytest.raises(SolverError):
        solve_or_raise(b.build())
    sol = solve(b.build())
    assert sol.status == "primal_infeasible"


def test_random_conic_duality(rng):
    # random mixed-cone programs: strong duality and residual quality
    checked = 0
    for k in range(12):
        sub = stream(11, k)
        n = int(sub.integers(2, 7))
        b = Builder()
        x = b.vars("x", n)
        b.objective(x, sub.normal(size=n))
        b.nonneg(x)
        for _ in range(int(sub.integers(1, 4))):
            cols = np.arange(n)
            b.ineq(x[cols], sub.uniform(0.1, 1.0, size=n), float(sub.uniform(1.0, 3.0)))
        if n >= 3:
            soc = b.soc(3)
            soc.set_row(0, [x[0]], [1.0], 1.0)
            soc.set_row(1, [x[1]], [1.0])
            soc.set_row(2, [x[2]], [1.0])
        sol = solve(b.build())
        if sol.status != "optimal":
            continue
        assert sol.relgap <= 1e-6, (k, sol.relgap)
        assert sol.pres <= 1e-6
        assert sol.dres <= 1e-6
        checked += 1
    assert checked >= 8


def _interior(rng, dims: ConeDims) -> np.ndarray:
    v = np.empty(dims.cone_len)
    for kind, off, ln, n in dims.blocks():
        if kind == "l":
            v[off:off + ln] = rng.uniform(0.1, 2.0, ln)
        elif kind == "q":
            v[off + 1:off + ln] = rng.standard_normal(ln - 1)
            v[off] = np.linalg.norm(v[off + 1:off + ln]) + rng.uniform(0.1, 1.0)
        else:
            X = rng.standard_normal((n, n))
            v[off:off + ln] = svec(X @ X.T + 0.1 * np.eye(n))
    return v


@pytest.mark.parametrize("dims", [
    pytest.param(ConeDims(l=6), id="orthant"),
    pytest.param(ConeDims(q=(1, 7)), id="soc"),
    pytest.param(ConeDims(s=(5,)), id="psd"),
    pytest.param(ConeDims(l=3, q=(4, 6), s=(2, 4)), id="mixed"),
])
def test_scaling_algebra(dims):
    rng = stream(5, dims.cone_len)
    s, z = _interior(rng, dims), _interior(rng, dims)
    sc = Scaling.compute(dims, s, z)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(sc.apply(z, "w"), sc.lam, **tol)
    np.testing.assert_allclose(sc.apply(s, "winvt"), sc.lam, **tol)
    v = rng.standard_normal(dims.cone_len)
    np.testing.assert_allclose(sc.apply(sc.apply(v, "w"), "winv"), v, **tol)
    np.testing.assert_allclose(sc.apply(sc.apply(v, "wt"), "winvt"), v, **tol)

    V = rng.standard_normal((dims.cone_len, 3))
    for mode in ("w", "wt", "winv", "winvt"):
        cols = np.column_stack([sc.apply(V[:, j], mode) for j in range(V.shape[1])])
        np.testing.assert_allclose(sc.apply(V, mode), cols, rtol=1e-13, atol=1e-13)

    # the frames max_step reads: T_s S T_s' = I and T_z Z T_z' = I
    for (kind, off, ln, n), blk in zip(dims.blocks(), sc.blocks):
        if kind == "s":
            _, _, Ts, Tz = blk
            np.testing.assert_allclose(Ts @ smat(s[off:off + ln], n) @ Ts.T, np.eye(n), **tol)
            np.testing.assert_allclose(Tz @ smat(z[off:off + ln], n) @ Tz.T, np.eye(n), **tol)


def _as_matrix(kind: str, v: np.ndarray, n: int) -> np.ndarray:
    """A symmetric matrix that is PSD exactly when the block v is in its
    cone: diag(v), the arrow matrix [[v0, v1'], [v1, v0 I]], or smat(v)."""
    if kind == "l":
        return np.diag(v)
    if kind == "q":
        M = v[0] * np.eye(n)
        M[0, 1:] = M[1:, 0] = v[1:]
        return M
    return smat(v, n)


def _cholesky_step(dims: ConeDims, x: np.ndarray, dx: np.ndarray) -> float:
    """The step to the boundary from a Cholesky factor of each block's
    matrix: X + alpha D is PSD iff I + alpha L^{-1} D L^{-T} is."""
    alpha = np.inf
    for kind, off, ln, n in dims.blocks():
        X, D = (_as_matrix(kind, v[off:off + ln], n) for v in (x, dx))
        L = np.linalg.cholesky(X)
        M = np.linalg.solve(L, np.linalg.solve(L, D).T)
        lam_min = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
        if lam_min < 0:
            alpha = min(alpha, 1.0 / -lam_min)
    return alpha


@pytest.mark.parametrize("dims", [
    pytest.param(ConeDims(l=6), id="orthant"),
    pytest.param(ConeDims(q=(1, 7)), id="soc"),
    pytest.param(ConeDims(s=(5,)), id="psd"),
    pytest.param(ConeDims(l=3, q=(4, 6), s=(2, 4)), id="mixed"),
])
def test_max_step_reaches_the_boundary(dims):
    rng = stream(7, dims.cone_len)
    s, z = _interior(rng, dims), _interior(rng, dims)
    sc = Scaling.compute(dims, s, z)
    for side, x in (("s", s), ("z", z)):
        for _ in range(5):
            dx = rng.standard_normal(dims.cone_len)
            alpha = max_step(sc, x, dx, side)
            assert np.isfinite(alpha)
            edge = x + alpha * dx
            assert abs(cone_margin(dims, edge)) <= 1e-8 * np.linalg.norm(edge)
            assert cone_margin(dims, x + 0.99 * alpha * dx) > 0
            assert alpha == pytest.approx(_cholesky_step(dims, x, dx), rel=1e-8)
        # directions inside the cone never leave it
        assert max_step(sc, x, x, side) == np.inf
        assert max_step(sc, x, dims.identity(), side) == np.inf


def _mixed_columns(rng, dims: ConeDims, d: int) -> np.ndarray:
    """A (cone_len, d) G whose columns, block by block, cycle through: dense
    (full rank on a PSD block), rank one, rank two, and absent from the
    block; the last column is zero everywhere."""
    G = np.zeros((dims.cone_len, d))
    for b, (kind, off, ln, n) in enumerate(dims.blocks()):
        for j in range(d - 1):
            kind_j = (j + b) % 4
            if kind_j == 3:
                continue
            if kind != "s":
                G[off:off + ln, j] = rng.standard_normal(ln) * (kind_j + 1)
            elif kind_j == 0:
                X = rng.standard_normal((n, n))
                G[off:off + ln, j] = svec(X + X.T)
            else:
                x, y = rng.standard_normal(n), rng.standard_normal(n)
                F = np.outer(x, x) if kind_j == 1 else np.outer(x, y) + np.outer(y, x)
                G[off:off + ln, j] = -svec(F)
    return G


def _columns_case(dims: ConeDims, d: int):
    def make():
        rng = stream(6, dims.cone_len + d)
        return rng, _mixed_columns(rng, dims, d), dims, ()
    return make


def _spd(rng, n: int) -> np.ndarray:
    X = rng.standard_normal((n, n))
    return X @ X.T + 0.1 * np.eye(n)


def _design_terms(b, rng):
    # -M'H in the off-diagonal block of an order-6 LMI (H 3 x 2), as in the
    # design LMI, next to a full-rank lam column
    lam, h = b.vars("lam", 1), b.vars("H", 6)
    L = b.lmi(6)
    full = np.zeros((6, 6))
    full[:4, :4] = _spd(rng, 4)
    L.term(lam[0], full)
    U, V = np.zeros((6, 3)), np.zeros((6, 2))
    U[:4] = -2.0 * rng.standard_normal((3, 4)).T
    V[4:] = np.eye(2)
    L.matrix_term(h, U, V)


def _covariance_terms(b, rng):
    # V Q V' for a symmetric Q, and Q >= 0 in a block of its own
    q, t = b.vars("Q", svec_len(3)), b.vars("t", 1)
    L = b.lmi(5)
    L.matrix_term(q, *[rng.standard_normal((5, 3))] * 2)
    L.term(t[0], _spd(rng, 5))
    b.lmi(3).matrix_term(q, np.eye(3), np.eye(3))


def _qs_terms(b, rng):
    # [[w I, QS], [SQ, w I]]: a symmetric Q with U != V
    w, q = b.vars("w", 1), b.vars("Q", svec_len(3))
    L = b.lmi(6)
    L.term(w[0], np.eye(6))
    L.matrix_term(q, np.vstack([2 * np.eye(3), np.zeros((3, 3))]),
                  np.vstack([np.zeros((3, 3)), _spd(rng, 3)]))


def _phi_terms(b, rng):
    # V Q V' - V0 Q V0' as two opposite-sign terms on the same columns,
    # beside a slack G in the leading block and a noise column s
    g, q, s = b.vars("G", svec_len(2)), b.vars("Q", svec_len(3)), b.vars("s", 1)
    L = b.lmi(4)
    E = np.eye(4)[:, :2]
    L.matrix_term(g, E, E)
    V = rng.standard_normal((4, 3))
    V0 = np.vstack([V[:2], np.zeros((2, 3))])
    L.matrix_term(q, V, V)
    L.matrix_term(q, -V0, V0)
    Es = np.zeros((4, 4))
    Es[2:, 2:] = np.eye(2)
    L.term(s[0], Es)


def _robust_terms(b, rng):
    # one H (2 x 2) in two terms of one order-6 block, and a dense mu column
    h, mu = b.vars("H", 4), b.vars("mu", 1)
    L = b.lmi(6)
    V = np.zeros((6, 2))
    V[2:4] = np.eye(2)
    for rows in (slice(0, 2), slice(4, 6)):
        U = np.zeros((6, 2))
        U[rows] = -2.0 * rng.standard_normal((2, 2))
        L.matrix_term(h, U, V)
    Mm = np.zeros((6, 6))
    Mm[4:, 4:] = np.eye(2)
    L.term(mu[0], Mm)


def _mixed_terms(b, rng):
    # other cones beside the LMIs; eigen columns on both sides of the term
    # columns (term columns inside the eigen run), an all-zero column among them,
    # and a rectangular and a symmetric term in one block
    lam, h, unused, t, u = (b.vars(k, n) for k, n in
                            (("lam", 2), ("H", 4), ("unused", 1), ("T", 3), ("u", 1)))
    b.nonneg(lam)
    b.ineq(np.concatenate([lam, u]), rng.uniform(0.5, 1.0, 3), 1.0)
    soc = b.soc(6)
    soc.set_row(0, [u[0]], [1.0], 1.0)
    soc.set_triplets(np.arange(1, 5), h, np.full(4, 2.0))
    L = b.lmi(5)
    for col, n in ((lam[0], 3), (u[0], 5)):
        F = np.zeros((5, 5))
        F[:n, :n] = _spd(rng, n)
        L.term(col, F)
    U, V = np.zeros((5, 2)), np.zeros((5, 2))
    U[:3, :] = -2.0 * rng.standard_normal((3, 2))
    V[3:] = np.eye(2)
    L.matrix_term(h, U, V)
    E = np.eye(5)[:, :2]
    L.matrix_term(t, E, E)
    b.lmi(2).matrix_term(t, np.eye(2), np.eye(2))


def _terms_case(build, seed: int):
    def make():
        rng = stream(6, 1000 + seed)
        b = Builder()
        build(b, rng)
        b.vars("zero", 1)      # a column no block touches
        prog = b.build()
        _, G, _, dims = prog.lower()
        return rng, G.toarray(), dims, prog.lmi_terms()
    return make


GRAM_CASES = [
    pytest.param(_columns_case(ConeDims(l=6), 5), id="orthant"),
    pytest.param(_columns_case(ConeDims(q=(1, 7)), 9), id="soc"),
    pytest.param(_columns_case(ConeDims(s=(5,)), 9), id="psd"),
    pytest.param(_columns_case(ConeDims(s=(3, 6)), 12), id="two-psd"),
    pytest.param(_columns_case(ConeDims(l=3, q=(4, 6), s=(2, 4)), 11), id="mixed"),
    pytest.param(_columns_case(ConeDims(l=2, q=(5,), s=(4,)), PSD_CHUNK + 44), id="wide"),
    pytest.param(_terms_case(_design_terms, 0), id="term-rectangular"),
    pytest.param(_terms_case(_covariance_terms, 1), id="term-symmetric"),
    pytest.param(_terms_case(_qs_terms, 2), id="term-symmetric-u-ne-v"),
    pytest.param(_terms_case(_phi_terms, 3), id="term-opposite-signs"),
    pytest.param(_terms_case(_robust_terms, 4), id="term-shared-variable"),
    pytest.param(_terms_case(_mixed_terms, 5), id="term-mixed"),
]


def test_start_scaling_is_the_identity():
    # conelp factors its start at the NT scaling of (e, e): exactly the
    # identity in every block, lambda = e
    dims = ConeDims(l=3, q=(1, 2, 5, 578), s=(1, 2, 13, 48, 65))
    e = dims.identity()
    sc = Scaling.compute(dims, e, e)
    for (kind, off, ln, n), blk in zip(dims.blocks(), sc.blocks):
        if kind == "l":
            assert blk.tobytes() == np.ones(ln).tobytes()
        elif kind == "q":
            assert blk[0] == 1.0 and blk[1].tobytes() == e[off:off + ln].tobytes()
        else:
            assert len(blk) == 4
            assert all(M.shape == (n, n) and M.tobytes() == np.eye(n).tobytes() for M in blk)
    assert sc.lam.tobytes() == e.tobytes()


@pytest.mark.parametrize("make", GRAM_CASES)
def test_factored_gram_matches_dense(make):
    # reference: W^{-T} G column by column, then its Gram; matrix_term
    # columns reach scale_G only through their recorded (U, V)
    rng, G, dims, terms = make()
    d = G.shape[1]
    fac = ColumnFactors.of(G, dims, terms)
    e = dims.identity()
    scalings = (Scaling.compute(dims, e, e),
                Scaling.compute(dims, _interior(rng, dims), _interior(rng, dims)))
    # one buffer, assembled into under each scaling after the other one (both
    # orders), must hold what a fresh assembly gives: a stale entry or a
    # missed zero-fill would show (it starts as NaN)
    buf = np.full((d, d), np.nan)
    for sc in scalings + scalings[::-1]:
        Gs = np.column_stack([sc.apply(G[:, j], "winvt") for j in range(d)])
        H_ref = Gs.T @ Gs
        H = sc.scale_G(fac, np.empty((d, d)))
        assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
        assert not H[-1].any() and not H[:, -1].any()
        assert sc.scale_G(fac, buf) is buf
        assert np.abs(buf - H).max() <= 1e-12 * np.abs(H).max()


def test_psd_terms_group_each_column():
    # columns of every rank 1..n, indefinite ones among them, across two
    # PSD_CHUNK batches, with an all-zero column at the end of the first:
    # each column's terms are one contiguous group that rebuilds it
    rng, n = stream(6, 2000), 5
    d = PSD_CHUNK + 20
    zero = PSD_CHUNK - 1
    Gb = np.zeros((svec_len(n), d))
    for j in range(d):
        if j != zero:
            X = rng.standard_normal((n, 1 + j % n))
            Gb[:, j] = svec(X @ np.diag(rng.choice([-1.0, 1.0], X.shape[1])) @ X.T)
    Q, sgn, starts = _psd_terms(Gb, n)
    assert len(starts) == d and starts[0] == 0 and np.all(np.diff(starts) > 0)
    assert Q.shape[1] == len(sgn)
    for j, (a, b) in enumerate(zip(starts, list(starts[1:]) + [len(sgn)])):
        F = smat(Gb[:, j], n)
        rebuilt = (Q[:, a:b] * sgn[a:b]) @ Q[:, a:b].T
        assert np.abs(rebuilt - F).max() <= 1e-12 * max(np.abs(F).max(), 1.0)
    # the zero column keeps one zero term: np.add.reduceat at a repeated
    # start would return that start's row, not 0
    assert starts[zero + 1] - starts[zero] == 1
    assert not Q[:, starts[zero]].any()


@pytest.mark.parametrize("p, q, k", [(3, 2, 6), (3, 3, 6), (1, 1, 1), (2, 3, 6)])
def test_matrix_term_triplets(p, q, k):
    # column j of the block is svec(sym(U E_j V')) over X's basis: row-major
    # E_j for a p x q X, the svec basis when X is symmetric (k < p q)
    rng = stream(9, 10 * p + q)
    order = 5
    U, V = rng.standard_normal((order, p)), rng.standard_normal((order, q))
    U[1], V[3] = 0.0, 0.0
    b = Builder()
    x = b.vars("X", k)
    b.lmi(order).matrix_term(x, U, V)
    prog = b.build()
    blk = prog.blocks[-1]
    F = np.zeros((svec_len(order), k))
    np.add.at(F, (blk.rows, blk.cols), blk.vals)
    for j in range(k):
        E = smat(np.eye(k)[j], p) if k < p * q else np.eye(k)[j].reshape(p, q)
        M = U @ E @ V.T
        np.testing.assert_allclose(F[:, j], svec(0.5 * (M + M.T)), rtol=1e-14, atol=1e-14)
    (cols, Ur, Vr), = blk.terms
    assert np.array_equal(cols, x) and np.array_equal(Ur, U) and np.array_equal(Vr, V)
    # the engine sees G = -F and the factors with G's sign
    _, G, _, _ = prog.lower()
    np.testing.assert_array_equal(G.toarray()[-svec_len(order):], -F)
    (cols, Ug, Vg), = prog.lmi_terms()[0]
    assert np.array_equal(Ug, -U) and np.array_equal(Vg, V)


def test_matrix_term_rejects_bad_variables():
    b = Builder()
    x = b.vars("X", 5)
    L = b.lmi(3)
    with pytest.raises(ValueError, match="fit neither"):
        L.matrix_term(x, np.eye(3)[:, :2], np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="distinct"):
        L.matrix_term(x[[0, 0, 1]], np.eye(3)[:, :2], np.eye(3)[:, :2])
    L.matrix_term(x[:3], np.eye(3)[:, :2], np.eye(3)[:, :2])
    L.term(x[0], np.eye(3))
    with pytest.raises(ValueError, match="other entries"):
        b.build()


def _dense_lowering(prog) -> np.ndarray:
    """G = -F of prog as a dense array, each triplet added by np.add.at."""
    offs = np.cumsum([0] + [len(blk.F0) for blk in prog.blocks])
    G = np.zeros((offs[-1], prog.num_vars))
    np.add.at(G, (np.concatenate([blk.rows + off for blk, off in zip(prog.blocks, offs)]),
                  np.concatenate([blk.cols for blk in prog.blocks])),
              -np.concatenate([blk.vals for blk in prog.blocks]))
    return G


def test_lower_is_the_canonical_csr_of_the_triplets():
    # quadratic-approx's QS triplets write each svec-diagonal entry of Q
    # twice into the same row; a zero triplet, two triplets that cancel and
    # a column no block touches store nothing
    rng, n = stream(9, 77), 3
    b = Builder()
    x, q, untouched = b.vars("x", 2), b.vars("Q", svec_len(n)), b.vars("untouched", 1)
    mi, mj, qc, vv = _qs_product_triplets(_spd(rng, n))
    soc = b.soc(1 + n * n)
    soc.set_row(0, [x[0]], [1.0])
    soc.set_triplets(1 + mi * n + mj, q[qc], vv)
    b.ineq(x, [1.0, 0.0], 1.0)
    b.lmi(2).set_triplets([0, 0, 2], [x[1], x[1], x[0]], [0.5, -0.5, 1.0])
    prog = b.build()
    soc_blk = prog.blocks[2]
    written = soc_blk.rows * prog.num_vars + soc_blk.cols
    assert len(np.unique(written)) < len(written)
    _, G, _, _ = prog.lower()
    ref = _dense_lowering(prog)
    assert G.format == "csr" and G.has_canonical_format and np.all(G.data != 0)
    assert G.shape == ref.shape and G.nnz == np.count_nonzero(ref)
    assert G.toarray().tobytes() == ref.tobytes()
    assert not ref[:, untouched].any() and not ref[:, x[1]].any()


def _problem(n: int, seed: int) -> EstimationProblem:
    rng = stream(seed, n)
    return EstimationProblem(rng.standard_normal((n, n)), np.eye(n), 0.1,
                             Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1))))


def test_conelp_solves_dense_and_sparse_g_alike(monkeypatch):
    # a quadratic-approximation covariance program (orthant, SOC and LMI
    # blocks, duplicate triplets, matrix-variable columns) from its CSR G
    # and from the same G dense
    progs, real = [], lower_bound.solve_or_raise
    monkeypatch.setattr(lower_bound, "solve_or_raise",
                        lambda prog: progs.append(prog) or real(prog))
    refined_lower_bound(_problem(3, 5), QUADRATIC_APPROX, 0.05)
    prog = progs[-1]
    c, G, h, dims = prog.lower()
    sparse = conelp(c, G, h, dims, terms=prog.lmi_terms())
    dense = conelp(c, G.toarray(), h, dims, terms=prog.lmi_terms())
    assert sparse.is_optimal and sparse.iterations == dense.iterations
    assert sparse.x.tobytes() == dense.x.tobytes()
    assert sparse.z.tobytes() == dense.z.tobytes()


class _Built(Exception):
    pass


def test_lowering_and_column_factors_stay_below_half_a_dense_g(monkeypatch):
    # an n = 24 design program (the SDP an ellipsoid design is held
    # against): G is 1,755 x 578 with 14,427 nonzeros, so neither lower()
    # nor ColumnFactors.of may hold it dense
    progs = []

    def capture(prog):
        progs.append(prog)
        raise _Built

    monkeypatch.setattr(estimator, "solve_or_raise", capture)
    with pytest.raises(_Built):
        estimator._design_sdp(_problem(24, 6))
    (prog,) = progs
    tracemalloc.start()
    try:
        _, G, _, dims = prog.lower()
        ColumnFactors.of(G, dims, prog.lmi_terms())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dims.cone_len * prog.num_vars / 2


@pytest.mark.parametrize("dims", [
    pytest.param(ConeDims(l=3, q=(4, 6), s=(2, 4)), id="mixed"),
    pytest.param(ConeDims(q=(5,), s=(3, 4)), id="soc-two-psd"),
])
def test_kkt_solve_matches_dense_saddle(dims):
    # [0 G'; G -W'W] (u, w) = (bx, bz) against a dense solve that holds W'W
    # as a matrix (G without _mixed_columns' zero last column, which would
    # make the system singular)
    rng = stream(8, dims.cone_len)
    d = 8
    G = _mixed_columns(rng, dims, d + 1)[:, :d]
    sc = Scaling.compute(dims, _interior(rng, dims), _interior(rng, dims))
    m = dims.cone_len
    WtW = sc.apply(sc.apply(np.eye(m), "w"), "wt")
    K = np.block([[np.zeros((d, d)), G.T], [G, -WtW]])
    bx, bz = rng.standard_normal(d), rng.standard_normal(m)
    ref = np.linalg.solve(K, np.concatenate([bx, bz]))
    kkt = _KKT(G, dims)
    kkt.factor(sc)
    got = np.concatenate(kkt.solve(bx, bz))
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
    # a batched right-hand side solves column by column
    B = [rng.standard_normal((k, 2)) for k in (d, m)]
    cols = [np.concatenate(kkt.solve(B[0][:, j], B[1][:, j])) for j in range(2)]
    np.testing.assert_allclose(np.concatenate(kkt.solve(*B)), np.column_stack(cols),
                               rtol=1e-12, atol=1e-12)


def _count_lu(monkeypatch) -> Counter:
    """Count the lu_factor and lu_solve calls that ipm makes through its
    scipy global, the way the benchmark wraps them to time the KKT."""
    counts = Counter()

    def counted(fn):
        def call(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return call

    class Proxy:
        def __init__(self, module, **overrides):
            self.module, self.overrides = module, overrides

        def __getattr__(self, name):
            return self.overrides.get(name) or getattr(self.module, name)

    la = scipy.linalg
    monkeypatch.setattr(ipm, "scipy", Proxy(scipy, linalg=Proxy(
        la, lu_factor=counted(la.lu_factor), lu_solve=counted(la.lu_solve))))
    return counts


def test_kkt_factor_and_solves_go_through_scipy_linalg(monkeypatch):
    # the benchmark's KKT factor and solve times wrap these calls: every
    # factorization (the start and one per iteration) must be one of them
    counts = _count_lu(monkeypatch)
    res = conelp(np.array([1.0]), -svec(np.eye(2)).reshape(-1, 1),
                 svec(np.array([[0.0, 3.0], [3.0, 0.0]])), ConeDims(s=(2,)))
    assert res.is_optimal and res.iterations > 0
    assert counts["lu_factor"] >= res.iterations + 1
    assert counts["lu_solve"] > 0


def test_kkt_regularises_a_zero_column(monkeypatch):
    # an all-zero column makes the Schur block singular, so the first LU
    # fails; the failed LU has overwritten the block, so the regularised
    # retry must assemble it again. With bx = 0 at that column the solve is
    # the saddle solve of the other columns.
    dims = ConeDims(l=3, q=(4, 6), s=(2, 4))
    rng = stream(8, 1 + dims.cone_len)
    d, zero = 8, 3
    G = _mixed_columns(rng, dims, d + 1)[:, :d]
    G[:, zero] = 0.0
    keep = np.arange(d) != zero
    sc = Scaling.compute(dims, _interior(rng, dims), _interior(rng, dims))
    m = dims.cone_len
    WtW = sc.apply(sc.apply(np.eye(m), "w"), "wt")
    K = np.block([[np.zeros((d - 1, d - 1)), G[:, keep].T], [G[:, keep], -WtW]])
    bx, bz = rng.standard_normal(d), rng.standard_normal(m)
    bx[zero] = 0.0
    ref = np.linalg.solve(K, np.concatenate([bx[keep], bz]))
    counts = _count_lu(monkeypatch)
    kkt = _KKT(G, dims)
    kkt.factor(sc)
    assert counts["lu_factor"] == 2
    u, w = kkt.solve(bx, bz)
    got = np.concatenate([u[keep], w])
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_kkt_rejects_a_nan_scaling():
    dims = ConeDims(l=3)
    sc = Scaling(dims, [np.array([1.0, np.nan, 1.0])], dims.identity())
    with pytest.raises(np.linalg.LinAlgError, match="KKT system is singular"):
        _KKT(np.eye(3), dims).factor(sc)


def _layout_cases():
    rng = stream(6, 3000)
    A, B = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    ell = Ellitope.ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))
    box = Ellitope.coordinate_box(np.array([1.0, 0.5, 2.0, 1.5]))
    um = UncertaintyModel(A, B, 0.1 * np.ones((2, 5)), 0.1 * np.ones((2, 4)), 0.5)
    S = np.eye(4)

    def on(signals):
        return EstimationProblem(A, B, 0.3, signals)

    return {
        "design-ellipsoid": lambda: estimator._design_sdp(on(ell)),
        "design-box": lambda: build_linear_estimate(on(box)),
        "srisk-ellitope": lambda: build_srisk_estimate(SRiskProblem(on(box), S)),
        "srisk-whole-space": lambda: whole_space_estimate(A, B, 0.3, S),
        "robust": lambda: build_robust_estimate(um, 0.3, S, ell),
        "optimize-S": lambda: optimize_S_sdp(A, B, 0.3, 1.0),
        "m-star": lambda: m_star(B, box),
        "bayesian": lambda: solve_bayesian_sdp(on(ell)),
        "contraction": lambda: refined_lower_bound(on(box), CONTRACTION, 0.05),
        "quadratic-approx": lambda: refined_lower_bound(on(ell), QUADRATIC_APPROX, 0.05),
        "parallelotope": lambda: refined_lower_bound(on(box), PARALLELOTOPE, 0.05),
    }


LAYOUT_CASES = _layout_cases()


@pytest.mark.parametrize("case", list(LAYOUT_CASES))
def test_every_lmi_eigendecomposes_one_slice_beside_its_terms(monkeypatch, case):
    # every LMI of the package's programs keeps its eigendecomposed columns
    # in one run, a slice that no matrix variable's columns overlap, so the
    # Schur assembly adds to slices of the buffer only
    lowered, real = [], program.conelp

    def record(c, G, h, dims, terms=()):
        lowered.append((G, dims, terms))
        return real(c, G, h, dims, terms=terms)

    monkeypatch.setattr(program, "conelp", record)
    LAYOUT_CASES[case]()
    assert lowered
    for G, dims, terms in lowered:
        fac = ColumnFactors.of(G, dims, terms)
        lmis = [fb for (kind, *_), fb in zip(dims.blocks(), fac.blocks) if kind == "s"]
        for eig, recorded, _ in filter(None, lmis):
            if eig is None:
                continue
            run = eig[0]
            assert isinstance(run, slice)
            for idx, *_ in recorded:
                assert idx.stop <= run.start or idx.start >= run.stop


def test_conelp_rejects_a_matrix_term_with_scattered_columns():
    # the columns of a matrix variable are one consecutive run
    rng = stream(6, 3001)
    b = Builder()
    h1, lam, h2 = b.vars("H1", 2), b.vars("lam", 1), b.vars("H2", 2)
    b.objective(lam, [1.0])
    L = b.lmi(4)
    L.term(lam[0], np.eye(4))
    L.matrix_term(np.concatenate([h1, h2]), rng.standard_normal((4, 2)),
                  rng.standard_normal((4, 2)))
    prog = b.build()
    with pytest.raises(ValueError, match="consecutive"):
        conelp(*prog.lower(), terms=prog.lmi_terms())
