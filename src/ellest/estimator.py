"""Design of near-optimal linear estimates.

Observation model: omega = A x + sigma * xi with xi standard normal and the
signal x confined to an ellitope. The estimate w = H' omega for the target
w = B x is obtained from the semidefinite design problem

    min_{H, lam >= 0}  sigma^2 Tr(H'H) + phi_T(lam)
    s.t.  [ sum_k lam_k S_k   B' - A'H ]
          [ B - H'A            I       ]  >= 0,

whose optimal value Opt certifies Risk^2 <= Opt over the whole set.
add_design_objective declares (H, lam, u >= Tr(H'H)) and that objective for
this program and for the S-risk, robust and S-optimization ones.

On one ellipsoid (K = 1) with one target row (nu = 1, B = b') no program is
solved. There T is [0, 1] whatever its variant, phi_T(lam) = lam and the
S-lemma is exact, so the design is the ridge least-squares problem of
estimating a linear form (Donoho 1994): with (A'A + sigma^2 S_1) g = b and
h = A g, Opt = sigma^2 b'g, which is the exact risk of h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ellitope import SEGMENT, Ellitope, TSet, phi_terms
from .linalg import psd_sqrt
from .rng import stream
from .solver import Builder, ConicSolution, solve_or_raise


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
    solution is the design program's conic solution, None when the K = 1,
    nu = 1 closed form ran and no program was solved."""

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
    """The optimal (H, lam) of the design problem. On a K = 1 ellitope with
    nu = 1 it is the closed form: (A'A + sigma^2 S_1) g = b, h = A g,
    r = b - A'h, lam = r'S_1^-1 r and Opt = sigma^2 ||h||^2 + lam, the
    exact risk of h. Every other input solves the SDP."""
    A, B, ell = prob.A, prob.B, prob.ell
    m, n, nu = prob.m, ell.n, prob.nu
    if ell.K == 1 and nu == 1:
        S, s2 = ell.S[0], prob.sigma ** 2
        h = A @ np.linalg.solve(A.T @ A + s2 * S, B[0])
        r = B[0] - A.T @ h
        lam = float(r @ np.linalg.solve(S, r))
        opt = float(s2 * (h @ h) + lam)
        return LinearEstimate(h[:, None], np.array([lam]), opt, float(np.sqrt(opt)))

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
    top eigenvalue is the worst squared bias over the ellipsoid {x'S1 x <= 1}."""
    ell = prob.ell
    if ell.K != 1 or ell.tset.variant != SEGMENT:
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
