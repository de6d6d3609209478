"""Design of near-optimal linear estimates.

Observation model: omega = A x + sigma * xi with xi standard normal and the
signal x confined to an ellitope. The estimate w = H' omega for the target
w = B x is obtained from the semidefinite design problem

    min_{H, lam >= 0}  sigma^2 Tr(H'H) + phi_T(lam)
    s.t.  [ sum_k lam_k S_k   B' - A'H ]
          [ B - H'A            I       ]  >= 0,

whose optimal value Opt certifies Risk^2 <= Opt over the whole set.
add_design_objective declares (H, lam, u >= Tr(H'H)) and that objective for
this program and for the S-risk and robust ones.

On one ellipsoid (K = 1, where every T variant is [0, 1] and phi_T(lam) =
lam) no conic program is solved. Write S_1 = L L' and Abar = A L^-T =
U diag(s) V' with V n x n orthogonal (s padded with zeros, and values below
numpy's matrix_rank cut set to 0); b_j is column j of B L^-T V and c_j =
s_j^2 / sigma^2. Opt is the saddle value min_H max_W over bias weights
W >= 0 with Tr W = 1 (nu x nu), and the inner minimum splits along the
singular directions:

    Opt = max_W g(W),  g(W) = sum_j b_j' W (I + c_j W)^-1 b_j,

where the columns with s_j = 0 (A's null space among them) contribute
<W, P_0> with P_0 = sum_{s_j = 0} b_j b_j'. The minimizer at W is
H_W' = sum_j s_j (sigma^2 I + s_j^2 W)^-1 W b_j u_j'. Its exact risk
sigma^2 ||H_W||^2 + lam_max(M M') (M = B L^-T - H_W' Abar) is above Opt and
g(W) is below it, so their gap certifies both. _ellipsoid_dual maximizes
t g(W) + log det W by Newton steps, growing t, until that gap is within the
solver's relative duality-gap target (Boyd and Vandenberghe, Convex
Optimization, 11.3). With nu = 1 the only W is 1 and H_W is the ridge
estimate of a linear form (Donoho 1994).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ellitope import Ellitope, TSet, phi_terms
from .linalg import _svec_index, _svec_scale, _tri_indices, psd_sqrt, smat, svec
from .rng import stream
from .solver import Builder, ConicSolution, SolverError, ipm, solve_or_raise


def check_observation(A, B, sigma: float, n: int | None = None):
    """(A, B) as 2-D float arrays with n columns (A's if None), sigma > 0 finite, B != 0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[1] if n is None else n
    if A.shape[1] != n or B.shape[1] != n:
        raise ValueError(f"A and B must have n = {n} columns, got {A.shape[1]} and {B.shape[1]}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be a finite positive number, got {sigma}")
    if not np.any(B):
        raise ValueError("B must be nonzero")
    return A, B


@dataclass(frozen=True)
class EstimationProblem:
    """Estimate Bx from omega = Ax + sigma xi with x in ell. For a signal set
    P Y, the linear image of an ellitope Y, pass (A P, B P) with ell = Y."""

    A: np.ndarray           # m x n
    B: np.ndarray           # nu x n
    sigma: float
    ell: Ellitope

    def __post_init__(self):
        A, B = check_observation(self.A, self.B, self.sigma, self.ell.n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def nu(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True)
class LinearEstimate:
    """The design (H, lam) with its value Opt and risk bound sqrt(Opt).
    solution is the design program's conic solution, None on a K = 1
    ellitope, where the nu x nu dual gives H, Opt is the exact risk of H
    (certified by the dual to the solver's gap target) and lam = Opt -
    sigma^2 ||H||_F^2 is its worst squared bias."""

    H: np.ndarray           # m x nu
    lam: np.ndarray         # K
    opt: float
    risk_bound: float
    solution: ConicSolution | None = field(default=None, repr=False, compare=False)


def add_design_objective(b: Builder, sigma: float, m: int, nu: int, tset: TSet | None):
    """Declare the design variables H (m x nu, row-major), lam >= 0 (none
    when tset is None: the whole space) and u >= ||H||_F^2, the last as one
    cone block ||[2h; u-1]|| <= u+1. Returns the indices (H, lam) and the
    risk bound sigma^2 u + phi_T(lam) as linear terms (cols, vals)."""
    h = b.vars("H", m * nu)
    lam = b.vars("lam", tset.K) if tset is not None else np.zeros(0, dtype=int)
    u = b.vars("u", 1)
    cols, vals = lam, np.zeros(0)
    if tset is not None:
        b.nonneg(lam)
        cols, vals = phi_terms(b, tset, lam)
    soc = b.soc(m * nu + 2)
    soc.set_row(0, u, [1.0], 1.0)
    soc.set_row(1, u, [1.0], -1.0)
    soc.set_triplets(np.arange(2, m * nu + 2), h, np.full(m * nu, 2.0))
    return h, lam, (np.concatenate([u, cols]), np.concatenate([[sigma ** 2], vals]))


def add_design_lmi(L, A: np.ndarray, B: np.ndarray, S: np.ndarray,
                   lam_idx: np.ndarray, h_idx: np.ndarray,
                   extra_00: list | None = None) -> None:
    """Fill the leading (n + nu) block of the LMI L (of any order) with

        [ sum_k lam_k S_k (+ extra)   B' - A'H ]
        [ (B - H'A)                    I_nu    ]

    with H entered row-major (h_idx[a*nu + b] = H[a, b]). extra_00 is a list
    of (col, M) terms added to the upper-left block. Rows and columns past
    n + nu are left to the caller.
    """
    n = A.shape[1]
    nu = B.shape[0]
    F0 = np.zeros((L.order, L.order))
    F0[:n, n:n + nu] = B.T
    F0[n:n + nu, :n] = B
    F0[n:n + nu, n:n + nu] = np.eye(nu)
    L.const(F0)
    for col, M in [*zip(lam_idx, S), *(extra_00 or ())]:
        full = np.zeros((L.order, L.order))
        full[:n, :n] = M
        L.term(col, full)
    add_neg_product(L, A, h_idx, nu, 0, n)


def add_neg_product(L, M: np.ndarray, h_idx: np.ndarray, nu: int,
                    row0: int, col0: int) -> None:
    """Enter -M'H into L at rows row0.. and columns col0.. (and its transpose
    below the diagonal), with H (m x nu) entered row-major as in
    add_design_lmi: sym(U H V') with U = -2M' at rows row0.. and V = I at
    rows col0..."""
    m, r = M.shape
    U = np.zeros((L.order, m))
    U[row0:row0 + r] = -2.0 * M.T
    V = np.zeros((L.order, nu))
    V[col0:col0 + nu] = np.eye(nu)
    L.matrix_term(h_idx, U, V)


def build_linear_estimate(prob: EstimationProblem) -> LinearEstimate:
    """The optimal (H, lam) of the design problem: on a K = 1 ellitope from
    the nu x nu dual (_ellipsoid_dual), with Opt the exact risk of H, and
    otherwise from the SDP (_design_sdp)."""
    if prob.ell.K == 1:
        return _ellipsoid_dual(prob)[0]
    return _design_sdp(prob)


def _design_sdp(prob: EstimationProblem) -> LinearEstimate:
    """The design SDP of the module docstring, solved by the conic solver."""
    A, B, ell = prob.A, prob.B, prob.ell
    m, n, nu = prob.m, ell.n, prob.nu
    b = Builder()
    h, lam, bound = add_design_objective(b, prob.sigma, m, nu, ell.tset)
    b.objective(*bound)
    add_design_lmi(b.lmi(n + nu), A, B, ell.S, lam, h)

    prog = b.build()
    sol = solve_or_raise(prog)
    H = sol.var(prog, "H").reshape(m, nu)
    lam_v = np.maximum(sol.var(prog, "lam"), 0.0)
    opt = float(sol.pobj)
    return LinearEstimate(H, lam_v, opt, float(np.sqrt(max(opt, 0.0))), sol)


def _ellipsoid_dual(prob: EstimationProblem) -> tuple[LinearEstimate, float]:
    """The K = 1 design from max g(W) over W >= 0, Tr W = 1 (module
    docstring), and g at the last W: a lower bound on Opt.

    A barrier method on t g(W) + log det W from W = I/nu and t = 1. Each
    Newton step works in W's eigenframe W = Q diag(lam) Q', where every
    (I + c_j W)^-1 is diagonal: y_j = (I + c_j lam)^-1 Q'b_j, and P = sum_j
    y_j y_j' is both the gradient of g and M M' at H_W, so the gap of the
    module docstring is lam_max(P) - <lam, diag P>. The step D is solved
    for over its upper triangle scaled by sqrt(lam_a lam_r), which makes
    the barrier's Hessian the identity, with Tr D = 0 as one bordered row.
    It goes at most 0.9 of the way to the boundary of W >= 0 and backtracks
    until it gains a quarter of its first-order gain. t grows 30-fold
    whenever the gap is at most nu / t, as it is at the center for t. The
    loop stops when the gap is within ipm.gap_tolerance() of the exact
    risk, and raises SolverError when ipm.MAX_ITER Newton steps do not get
    there."""
    A, B, s2 = prob.A, prob.B, prob.sigma ** 2
    (m, n), nu = A.shape, prob.nu
    L = np.linalg.cholesky(prob.ell.S[0])
    U, s, Vt = np.linalg.svd(np.linalg.solve(L, A.T).T, full_matrices=m < n)
    # singular values at rounding level (numpy's matrix_rank cut) are zero
    s = np.where(s > s[0] * max(m, n) * np.finfo(float).eps, s, 0.0)
    Bv = np.linalg.solve(L, B.T).T @ Vt.T     # columns b_j
    c = np.zeros(n)
    c[:len(s)] = s * s / s2
    rows, cols = _tri_indices(nu)
    tri, pos = len(rows), _svec_index(nu)[1]
    diag = (rows == cols).astype(float)
    # -Hess g[D, D] = 2 sum_r d_r' G_r d_r over the columns d_r of D, so
    # G_r[a, b] adds to the Hessian at (pos[a, r], pos[b, r])
    hess_at = (pos[:, :, None] * tri + pos[:, None, :]).ravel()
    tol = ipm.gap_tolerance()

    def at(lam, Q):
        """(Y, X, P, g) at W = Q diag(lam) Q': the rows y_j and x_j (H_W =
        U X Q') in the frame, P = Y'Y and g = sigma^2 ||X||^2 + <lam, diag P>."""
        Y = (Q.T @ Bv).T / (1.0 + np.outer(c, lam))
        X = (s / s2)[:, None] * lam * Y[:len(s)]
        P = Y.T @ Y
        return Y, X, P, s2 * float(np.sum(X * X)) + float(lam @ np.diag(P))

    lam, Q, t = np.full(nu, 1.0 / nu), np.eye(nu), 1.0
    Y, X, P, g = at(lam, Q)
    for it in range(ipm.MAX_ITER + 1):
        top = float(np.linalg.eigvalsh(P)[-1])
        up = s2 * float(np.sum(X * X)) + top
        if up - g <= tol * up:
            H = U[:, :len(s)] @ (X @ Q.T)
            return LinearEstimate(H, np.array([top]), up, float(np.sqrt(up))), g
        if it == ipm.MAX_ITER:
            break
        if up - g <= nu / t:
            t *= 30.0
        sig = np.sqrt(lam[rows] * lam[cols])           # D = smat(sig * q)
        w = c[:, None] / (1.0 + np.outer(c, lam))
        G = (Y.T[None] * w.T[:, None, :]) @ Y            # G_r = sum_j w_jr y_j y_j'
        su = sig / _svec_scale(nu)
        hess = np.bincount(hess_at, G.ravel(), tri * tri).reshape(tri, tri)
        hess *= 2.0 * np.outer(su, su)
        # P - top I in place of P moves only the multiplier of Tr D = 0, and
        # keeps t * top from cancelling in it
        grad = t * sig * svec(P - top * np.eye(nu)) + diag
        trace = sig * diag
        u1, u2 = np.linalg.solve(t * hess + np.eye(tri), np.column_stack([grad, trace])).T
        q = u1 - (trace @ u1) / (trace @ u2) * u2
        gain = float(grad @ q)
        D = smat(sig * q, nu)
        lo = float(np.linalg.eigvalsh(smat(q, nu))[0])  # of diag(lam)^-1/2 D diag(lam)^-1/2
        alpha = min(1.0, -0.9 / lo) if lo < 0 else 1.0
        f0 = t * g + float(np.sum(np.log(lam)))
        for _ in range(50):                  # past 2^-50 the step is lost in rounding
            mu, R = np.linalg.eigh(np.diag(lam) + alpha * D)
            if mu[0] > 0:
                mu /= mu.sum()               # Tr W = 1 to rounding, so g(W) <= Opt
                trial = at(mu, Q @ R)
                if t * trial[3] + float(np.sum(np.log(mu))) >= f0 + 0.25 * alpha * gain:
                    break
            alpha *= 0.5
        else:
            break
        lam, Q = mu, Q @ R
        Y, X, P, g = trial
    raise SolverError(f"ellipsoid dual stopped after {it} Newton steps with relative gap "
                      f"{(up - g) / up:.3e} above {tol:g}")


def apply(est: LinearEstimate, omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (est.H.shape[0],):
        raise ValueError("omega has wrong length")
    return est.H.T @ omega


def empirical_risk(est: LinearEstimate, prob: EstimationProblem, x: np.ndarray,
                   N: int, seed: int):
    """Monte-Carlo estimate of E ||H'(Ax + sigma xi) - Bx||^2, drawn in
    batches of at most 100,000 noise vectors.

    Returns (mean, standard error); deterministic under the seed.
    """
    x = np.asarray(x, dtype=float)
    if N < 100:
        raise ValueError("N must be at least 100")
    if not prob.ell.contains(x, tol=1e-7):
        raise ValueError("x is not in the signal set")
    bias = est.H.T @ (prob.A @ x) - prob.B @ x
    rng = stream(seed, 0)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < N:
        nb = min(100_000, N - done)
        Z = rng.standard_normal((nb, prob.m))
        errs = bias[None, :] + prob.sigma * (Z @ est.H)
        vals = np.einsum("ij,ij->i", errs, errs)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += nb
    mean = total / N
    var = max(total_sq / N - mean ** 2, 0.0) * N / max(N - 1, 1)
    return mean, float(np.sqrt(var / N))


def _ellipsoid_bias(H: np.ndarray, prob: EstimationProblem):
    """(W, R^-1) with R = S1^{1/2}, M = B - H'A and W = R^-1 M'M R^-1, whose
    top eigenvalue is the worst squared bias over the ellipsoid {x'S1 x <= 1}:
    every K = 1 ellitope, whose T is [0, 1] whatever its variant."""
    ell = prob.ell
    if ell.K != 1:
        raise ValueError("needs a K = 1 ellipsoid")
    M = prob.B - H.T @ prob.A
    Rinv = np.linalg.inv(psd_sqrt(ell.S[0]))
    return Rinv @ (M.T @ M) @ Rinv, Rinv


def exact_risk_on_ellipsoid(H: np.ndarray, prob: EstimationProblem) -> float:
    """Exact squared risk of w = H'omega when the signal set is an ellipsoid
    {x'S1 x <= 1}: sigma^2 Tr(H'H) + lam_max(S1^{-1/2} M'M S1^{-1/2}) with
    M = B - H'A."""
    W, _ = _ellipsoid_bias(H, prob)
    top = float(np.linalg.eigvalsh(W)[-1])
    return float(prob.sigma ** 2 * np.sum(H * H) + top)


def worst_case_signal(H: np.ndarray, prob: EstimationProblem) -> np.ndarray:
    """Boundary signal maximizing the bias term on a K = 1 ellipsoid."""
    ell = prob.ell
    W, Rinv = _ellipsoid_bias(H, prob)
    vals, vecs = np.linalg.eigh(W)
    x = Rinv @ vecs[:, -1]
    g = float(x @ ell.S[0] @ x)
    return x / np.sqrt(g) if g > 0 else x
