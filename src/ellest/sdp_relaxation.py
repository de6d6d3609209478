"""Semidefinite relaxation of quadratic maximization over an ellitope.

max x'Cx over the ellitope is NP-hard in general; replacing xx' by a matrix
variable Q in the admissible covariance set gives a tractable upper bound.
It is solved once, as its dual min phi_T(lam) s.t. sum lam_k S_k >= C (one
order-n LMI in K variables), and Q is read off the LMI's multiplier.
Randomized Rademacher rounding recovers a feasible point losing at most a
factor 4 ln(5K). The rounding has a sharp structure: for any sign vector
xi, the candidate y = Q^(1/2) U xi / sqrt(s_*) satisfies y'Cy = Tr(CQ)/s_*
exactly (U diagonalizes the conjugated objective), so all the randomness
does is hunt for a candidate that lands inside the set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ellitope import Ellitope
from .linalg import psd_sqrt, sym
from .lower_bound import _max_trace_over_covariances
from .rng import stream


@dataclass(frozen=True)
class RelaxationResult:
    opt: float
    Q_star: np.ndarray
    t_star: np.ndarray
    x_hat: np.ndarray
    val_hat: float
    ratio: float
    trials_used: int = 0
    details: dict = field(default_factory=dict, repr=False, compare=False)


def factor_bound(K: int) -> float:
    """The rounding guarantee 4 ln(5K)."""
    return 4.0 * math.log(5.0 * K)


def solve_and_round(C: np.ndarray, ell: Ellitope, *, seed: int = 0,
                    budget: int = 200) -> RelaxationResult:
    """Relaxation value plus a rounded feasible point, in one package.

    When opt <= 0 the point x = 0 is optimal and nothing is rounded: xx' is an
    admissible Q for every admissible x, so x'Cx <= opt <= 0."""
    opt, Q_star, t_star = relax_quadratic_max(C, ell)
    details = {"factor_bound": factor_bound(ell.K)}
    if opt <= 0:
        return RelaxationResult(opt, Q_star, t_star, np.zeros(ell.n), 0.0, 1.0, 0,
                                details=details)
    x_hat, val_hat, trials = round_rademacher(C, ell, Q_star, t_star,
                                              seed=seed, budget=budget)
    return RelaxationResult(opt, Q_star, t_star, x_hat, val_hat, val_hat / opt,
                            trials, details=details)


def relax_quadratic_max(C: np.ndarray, ell: Ellitope):
    """Upper bound max Tr(CQ) over Q >= 0, Tr(QS_k) <= t_k, t in T.

    One solve of the dual min phi_T(lam) s.t. sum lam_k S_k >= C gives the
    value; Q_star is the multiplier of its LMI, scaled into the set, and
    Tr(C Q_star) must agree with the value to a relative 1e-6. Returns
    (opt, Q_star, t_star)."""
    C = np.asarray(C, dtype=float)
    if C.shape != (ell.n, ell.n):
        raise ValueError(f"C must be {ell.n}x{ell.n}, got shape {C.shape}")
    if np.max(np.abs(C - C.T)) > 1e-12 * (1.0 + np.max(np.abs(C))):
        warnings.warn("C is not symmetric; using its symmetric part")
    return _max_trace_over_covariances(sym(C), ell)


def round_rademacher(C: np.ndarray, ell: Ellitope, Q_star: np.ndarray,
                     t_star: np.ndarray, seed: int = 0, budget: int = 200):
    """Draw Rademacher sign vectors until y = Q^(1/2) U xi / sqrt(s_*) lands
    inside the ellitope (loads <= t_star componentwise), then stretch the
    accepted point to the set boundary. Returns (x_hat, val_hat, trials_used).

    If the budget runs out (possible but exponentially unlikely), the least
    violating candidate is shrunk onto the boundary instead and a warning is
    issued; the opt/s_* guarantee does not apply to that fallback."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    C = sym(np.asarray(C, dtype=float))
    s_star = factor_bound(ell.K)
    R = psd_sqrt(Q_star)
    w, U = np.linalg.eigh(sym(R @ C @ R))
    del w
    best_y = None
    best_mult = -np.inf
    for trial in range(budget):
        rng = stream(seed, trial)
        xi = rng.integers(0, 2, size=ell.n) * 2.0 - 1.0
        y = R @ (U @ xi) / math.sqrt(s_star)
        loads = ell.loads(y)
        # largest c with sqrt(c) y still admissible
        mult = ell.tset.boundary_scale(loads)
        if mult > best_mult:
            best_mult, best_y = mult, y
        if np.all(loads <= t_star + 1e-12):
            c = max(mult, 1.0)
            x_hat = _polish_inside(ell, math.sqrt(c) * y)
            return x_hat, float(x_hat @ (C @ x_hat)), trial + 1
    warnings.warn(f"rounding budget {budget} exhausted; returning the "
                  "least-violating candidate scaled to the boundary")
    c = max(min(best_mult, 1.0), 0.0) if np.isfinite(best_mult) else 0.0
    x_hat = _polish_inside(ell, math.sqrt(c) * best_y)
    return x_hat, float(x_hat @ (C @ x_hat)), budget


def _polish_inside(ell: Ellitope, x: np.ndarray) -> np.ndarray:
    """Shave accumulated roundoff so the scaled point is strictly admissible."""
    fix = ell.tset.boundary_scale(ell.loads(x))
    if np.isfinite(fix) and fix < 1.0:
        x = math.sqrt(fix * (1.0 - 1e-12)) * x
    return x


def check_rademacher_moment(S_unit_trace: np.ndarray, N: int = 100_000,
                            seed: int = 0):
    """Monte-Carlo check of E exp{xi'S xi / 4} <= 3 sqrt(2) for Rademacher xi
    and unit-trace S >= 0. Returns (mc_estimate, pass)."""
    S = sym(np.asarray(S_unit_trace, dtype=float))
    tr = float(np.trace(S))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"S must have unit trace, got {tr}")
    if np.linalg.eigvalsh(S)[0] < -1e-10:
        raise ValueError("S must be positive semidefinite")
    n = S.shape[0]
    rng = stream(seed)
    bound = 3.0 * math.sqrt(2.0)
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 200_000 // max(n, 1) + 1
    while done < N:
        k = min(batch, N - done)
        xi = rng.integers(0, 2, size=(k, n)) * 2.0 - 1.0
        vals = np.exp(0.25 * np.einsum("ij,jk,ik->i", xi, S, xi))
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        done += k
    mc = total / N
    var = max(total_sq / N - mc ** 2, 0.0)
    se = math.sqrt(var / N)
    return mc, mc <= bound + 4.0 * se
