"""Relative-scale estimation: S-risk design, lower bound, and S selection.

The S-risk of an estimate w(.) is sup_x sqrt(E||w(Ax + sigma xi) - Bx||^2 /
(1 + x'Sx)) with S >= 0 fixing the scale on which accuracy degrades away
from the origin. S = 0 recovers the plain worst-case risk. The linear design
problem gets one extra term tau*S in the slack block of the risk LMI; its
dual is a Gaussian-prior problem homogenized by a scalar s, and equality of
the two values holds with s > 0 at the optimum whenever B is nonzero. The
design solve also gives a point of that dual: W is its LMI multiplier read
into the set by lower_bound's _admissible_covariance, s = 1 - Tr(WS).

The whole-space variant (signal set = all of R^n) drops the ellitope
constraints entirely; there the linear estimate is exactly minimax among all
estimates, which the dual point of the same solve certifies.
optimize_S_bisection treats S itself as a design variable under a trace
budget c. With M = B - H'A the cheapest tau S is M'M, so the level is
min_H max(sigma^2 ||H||_F^2, ||M||_F^2 / c), reached on the ridge path of
one SVD of A where the two terms cross or at its least-squares end (no
conic solve), and S = M'M / tau has rank at most nu. The S-risk program
declares tau after estimator.add_design_objective's (H, lam, u), so the
design LMI's scalar columns (lam, tau, mu) follow its matrix variable H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ellitope import Ellitope, TSet
from .estimator import EstimationProblem, add_design_lmi, add_design_objective, check_observation
from .linalg import min_eig, psd_tolerance, sym
from .lower_bound import (
    LowerBoundReport,
    _admissible_covariance,
    _rho_scan,
    m_star,
    phi_gauss,
)
from .solver import Builder, ConicSolution, solve_or_raise

SRISK_RHO_FAMILY = "srisk_rho_family"


def psd_weight(S: np.ndarray, n: int) -> np.ndarray:
    """The S-risk weight S as a symmetric n x n matrix; ValueError naming S
    unless it has that shape and is positive semidefinite."""
    S = np.asarray(S, dtype=float)
    if S.shape != (n, n):
        raise ValueError(f"S must be {n}x{n}, got shape {S.shape}")
    S = sym(S)
    if min_eig(S) < -psd_tolerance(S):
        raise ValueError("S must be positive semidefinite")
    return S


@dataclass(frozen=True)
class SRiskProblem:
    """An estimation problem plus the regularity-scale matrix S >= 0."""

    prob: EstimationProblem
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", psd_weight(self.S, self.prob.ell.n))


@dataclass(frozen=True)
class SRiskEstimate:
    H: np.ndarray
    lam: np.ndarray
    tau: float
    srisk_bound: float
    solution: ConicSolution | None = field(default=None, repr=False, compare=False)


def _add_srisk_objective(b: Builder, sigma: float, m: int, nu: int,
                         tset: TSet | None):
    """The design variables of add_design_objective (no lam when tset is
    None: the whole space) and, declared after them, tau with objective tau
    and sigma^2 u + phi_T(lam) <= tau. Returns the indices (tau, H, lam);
    the caller adds the design LMI."""
    h, lam, (cols, vals) = add_design_objective(b, sigma, m, nu, tset)
    tau = b.vars("tau", 1)
    b.objective(tau, [1.0])
    b.ineq(np.concatenate([cols, tau]), np.concatenate([vals, [-1.0]]), 0.0)
    return tau, h, lam


def _srisk_design(A: np.ndarray, B: np.ndarray, sigma: float, S: np.ndarray,
                  ell: Ellitope | None) -> SRiskEstimate:
    """min tau s.t. [[sum_k lam_k S_k + tau S, B'-A'H],[B-H'A, I]] >= 0 and
    sigma^2 Tr(H'H) + phi_T(lam) <= tau; with ell None there is no lam
    (whole space)."""
    m, n = A.shape
    nu = B.shape[0]
    tset, S_ell = (ell.tset, ell.S) if ell is not None else (None, np.zeros((0, n, n)))
    b = Builder()
    tau, h, lam = _add_srisk_objective(b, sigma, m, nu, tset)
    add_design_lmi(b.lmi(n + nu), A, B, S_ell, lam, h, extra_00=[(tau[0], S)])
    prog = b.build()
    sol = solve_or_raise(prog)
    tau_val = float(sol.var(prog, "tau")[0])
    return SRiskEstimate(sol.var(prog, "H").reshape(m, nu), sol.x[lam], tau_val,
                         math.sqrt(max(tau_val, 0.0)), sol)


def build_srisk_estimate(sp: SRiskProblem) -> SRiskEstimate:
    """The S-risk design (_srisk_design) of sp over its ellitope."""
    return _srisk_design(sp.prob.A, sp.prob.B, sp.prob.sigma, sp.S, sp.prob.ell)


def _srisk_dual(est: SRiskEstimate, A: np.ndarray, B: np.ndarray, sigma: float,
                S: np.ndarray, ell: Ellitope | None, rtol: float):
    """(value, W, s) at a point of the dual max s phi_sigma(W/s) s.t. W >= 0,
    Tr(WS) + s <= 1, Tr(WS_k)/s in T, from the design est: W is read from
    its LMI multiplier by _admissible_covariance, s = 1 - Tr(WS) the largest
    s W allows. value <= tau by weak duality, and must match est.tau to a
    relative rtol (stationarity in tau gives Tr(WS) + s = 1)."""
    n = A.shape[1]
    W, tr_ws = _admissible_covariance(est.solution, n + B.shape[0], n, ell, S)
    s = 1.0 - tr_ws
    val = phi_gauss(W, A, B, sigma * math.sqrt(s))
    if abs(val - est.tau) > rtol * (1.0 + abs(est.tau)):
        raise AssertionError(f"dual value {val} disagrees with design value {est.tau}")
    return val, W, s


def srisk_lower_bound(sp: SRiskProblem, *,
                      est: SRiskEstimate | None = None) -> LowerBoundReport:
    """Lower bound on the minimax S-risk via the contracted-Gaussian-prior
    argument with Q_rho = rho W / s, scanned over DEFAULT_RHO_GRID, where
    (W, s) is the homogenized Bayesian dual point of the design est (solved
    here when None). Its dual value must match tau to a relative 1e-5."""
    prob = sp.prob
    if est is None:
        est = build_srisk_estimate(sp)
    opt_star, _, s_val = _srisk_dual(est, prob.A, prob.B, prob.sigma, sp.S, prob.ell, 1e-5)
    if s_val < 1e-8:
        raise AssertionError(f"dual scale s = {s_val} violates positivity")
    # Tr(WS) = 1 - s at the dual point
    phi_star, tr_qs = opt_star / s_val, (1.0 - s_val) / s_val
    mstar = m_star(prob.B, prob.ell)
    best_val, best_rho, best_delta = _rho_scan(phi_star, mstar, prob.ell.K, tr_qs)
    lb = math.sqrt(max(best_val, 0.0))
    factor = est.srisk_bound / lb if lb > 0 else math.inf
    return LowerBoundReport(method=SRISK_RHO_FAMILY, lb=lb, rho=best_rho,
                            delta=best_delta, factor_numeric=factor,
                            details={"opt_star": opt_star, "s": s_val,
                                     "tau": est.tau, "tr_ws": 1.0 - s_val})


def whole_space_estimate(A: np.ndarray, B: np.ndarray, sigma: float,
                         S: np.ndarray) -> SRiskEstimate:
    """Minimax-optimal estimate of Bx from Ax + sigma*xi under the S-risk
    with no signal-set restriction. Optimality (among all estimates, not
    just linear ones) is certified by the Bayesian dual point read from the
    same solve, whose value must match tau to a relative 1e-6."""
    A, B = check_observation(A, B, sigma)
    S = psd_weight(S, A.shape[1])
    est = _srisk_design(A, B, sigma, S, None)
    _srisk_dual(est, A, B, sigma, S, None, 1e-6)
    return est


def optimize_S_bisection(A: np.ndarray, B: np.ndarray, sigma: float,
                         trace_cap: float = 1.0):
    """Smallest achievable S-risk level when S itself is a design variable
    under Tr(S) <= c = trace_cap. With M = B - H'A the whole-space design
    LMI [[tau S, M'],[M, I]] >= 0 is tau S >= M'M, and the cheapest tau S
    within the budget is M'M, so the level is the minimax

        tau* = min_H max(f1, f2),  f1 = sigma^2 ||H||_F^2,  f2 = ||M||_F^2 / c.

    The minimizer H(theta) of theta f1 + (1 - theta) f2 is a ridge
    regression, closed form in one thin SVD of A; from the least-squares end
    theta = 0 to H = 0 at theta = 1, f1 falls and f2 rises. tau* is f2 at
    theta = 0 when f1 <= f2 there, and otherwise the crossing f1 = f2,
    bisected to adjacent floats: min_H theta f1 + (1 - theta) f2 is a lower
    bound on tau* for every theta, and meets max(f1, f2) there. Returns
    (S_star, H_star, tau_star) with tau_star = max(f1, f2) at H_star and
    S_star = M'M / tau_star, of rank at most nu: exactly feasible, with
    tau_star its exact objective."""
    A, B = check_observation(A, B, sigma)
    if not 0 < trace_cap < math.inf:
        raise ValueError(f"trace_cap must be a finite positive number, got {trace_cap}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    # singular values at rounding level (numpy's matrix_rank cut) are zero
    s = np.where(s > s[0] * max(A.shape) * np.finfo(float).eps, s, 0.0)
    C = Vt @ B.T
    w = np.sum(C * C, axis=1)
    p = float(np.sum((B.T - Vt.T @ C) ** 2))      # the part of B' no H reaches
    ridge = sigma ** 2 * trace_cap

    def path(theta):
        """(h, f1, f2) at H(theta) = U diag(h) C, whose residual
        B' - A'H(theta) is (B' - V C) + V diag(r) C; at theta = 0 a zero s_i
        takes h_i = 0, r_i = 1."""
        den = theta * ridge + (1.0 - theta) * s * s
        h = np.divide((1.0 - theta) * s, den, out=np.zeros_like(s), where=den > 0)
        r = np.divide(theta * ridge, den, out=np.ones_like(s), where=den > 0)
        return h, sigma ** 2 * float(w @ h ** 2), (p + float(w @ r ** 2)) / trace_cap

    _, f1, f2 = path(0.0)
    lo, hi = 0.0, (1.0 if f1 > f2 else 0.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        _, f1, f2 = path(mid)
        if f1 > f2:
            lo = mid
        else:
            hi = mid
    theta = min((lo, hi), key=lambda t: max(path(t)[1:]))
    H = U @ (path(theta)[0][:, None] * C)
    M = B - H.T @ A
    tau = max(sigma ** 2 * float(np.sum(H * H)), float(np.sum(M * M)) / trace_cap)
    return M.T @ M / tau, H, tau
