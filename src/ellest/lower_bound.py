"""Lower bounds on the minimax risk and near-optimality factors.

The route to a lower bound is Bayesian: for a centered Gaussian prior N(0, Q)
supported (with high probability) on the signal set, no estimate can beat the
optimal affine recovery error phi(Q). Maximizing phi over admissible Q gives
the value Opt_* which matches the design value Opt of the linear estimate;
correcting for the prior mass outside the set turns phi-values into honest
lower bounds on the minimax risk.

Probability bookkeeping uses chi-square tail bounds (closed form and the
1-parameter Chernoff form), a rho-contraction family, a quadratic
approximation of the ellipsoid chance constraint, and exact Gaussian
marginals for parallelotopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .ellitope import BOX, SEGMENT, Ellitope, add_support_epigraph, add_tset_cone
from .estimator import EstimationProblem, build_linear_estimate
from .linalg import (
    SQRT2,
    _tri_indices,
    min_eig,
    psd_sqrt,
    smat,
    spectral_norm,
    svec,
    svec_len,
    sym,
)
from .solver import Builder, ConicSolution, solve_or_raise

RHO_FAMILY = "rho_family"
CONTRACTION = "contraction"
QUADRATIC_APPROX = "quadratic_approx"
PARALLELOTOPE = "parallelotope"

DEFAULT_RHO_GRID = np.logspace(-3, 0, 40)
DEFAULT_DELTA_GRID = (0.05, 0.1, 0.15, 0.2)


@dataclass(frozen=True)
class BayesianSolution:
    Q: np.ndarray
    t: np.ndarray
    opt_star: float
    G: np.ndarray
    solution: ConicSolution | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class LowerBoundReport:
    method: str
    lb: float
    rho: float | None = None
    delta: float | None = None
    delta_refined: float | None = None
    factor_numeric: float | None = None
    details: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class FactorEstimate:
    """Near-optimality factors.

    factor_computable bounds the ratio Opt / Risk_opt^2 (squared-risk scale;
    this is the quantity whose numeric range is reported for the experiment
    suites). factor_computable_sqrt = sqrt of it bounds sqrt(Opt)/Risk_opt.
    factor_theorem is the analogous sqrt-scale value using a known optimal
    risk instead of Opt.
    """

    factor_computable: float
    factor_computable_sqrt: float
    factor_theorem: float | None = None


def gaussian_quantile(alpha: float) -> float:
    """Standard normal quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return float(ndtri(alpha))


def delta_rho(rho: float, K: int) -> float:
    """min[K exp{-(1 - rho + rho ln rho)/(2 rho)}, 1] for rho in (0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    expo = -(1.0 - rho + rho * math.log(rho)) / (2.0 * rho)
    return min(K * math.exp(expo), 1.0)


def rho_of_delta(delta: float, K: int) -> float:
    """Inverse of delta_rho by bisection (delta_rho is increasing in rho)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta_rho(1.0, K) <= delta:
        return 1.0
    lo, hi = 1e-300, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if delta_rho(mid, K) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


def chi2_tail_bound(Q: np.ndarray, S: np.ndarray) -> float:
    """Upper bound on Prob{eta' S eta > 1} for eta ~ N(0, Q), valid whenever
    rho = Tr(SQ) <= 1: the better of the closed form
    exp{-(1 - rho + rho ln rho)/(2 rho)} and the optimized Chernoff form
    inf_gamma exp{-1/2 sum ln(1 - 2 gamma s_i) - gamma} over the eigenvalues
    s_i of Q^(1/2) S Q^(1/2)."""
    R = psd_sqrt(Q)
    s = np.clip(np.linalg.eigvalsh(sym(R @ S @ R)), 0.0, None)
    rho = float(np.sum(s))
    if rho > 1.0 + 1e-9:
        raise ValueError(f"Tr(SQ) = {rho} exceeds 1")
    return _chi2_tail(s)


def _chi2_tail(s: np.ndarray) -> float:
    """chi2_tail_bound from the clipped eigenvalues s, sum(s) <= 1 + 1e-9."""
    rho = min(float(np.sum(s)), 1.0)
    if rho <= 0.0 or s.max(initial=0.0) <= 0.0:
        return 0.0
    closed = math.exp(-(1.0 - rho + rho * math.log(rho)) / (2.0 * rho))
    smax = float(s.max())

    def fval(g):
        return -0.5 * float(np.sum(np.log1p(-2.0 * g * s))) - g

    def fprime(g):
        return float(np.sum(s / (1.0 - 2.0 * g * s))) - 1.0

    gmax = 1.0 / (2.0 * smax)
    best = 1.0
    if rho < 1.0:
        # fprime(0) = rho - 1 < 0 and fprime -> +inf at gmax: unique root
        hi = gmax * (1.0 - 1e-12)
        if fprime(hi) > 0.0:
            gstar = brentq(fprime, 0.0, hi, xtol=1e-14, rtol=1e-12)
            best = math.exp(fval(gstar))
    return float(min(best, closed, 1.0))


def phi_gauss(Q: np.ndarray, A: np.ndarray, B: np.ndarray, sigma: float) -> float:
    """Optimal affine recovery error Tr(B [Q - QA'(sigma^2 I + AQA')^{-1}AQ] B')."""
    Q = sym(np.asarray(Q, dtype=float))
    lo = min_eig(Q)
    if lo < -1e-8 * (1.0 + abs(np.trace(Q))):
        raise ValueError("Q must be positive semidefinite")
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    m = A.shape[0]
    M = sigma ** 2 * np.eye(m) + A @ Q @ A.T
    AQBt = A @ Q @ B.T
    sol = cho_solve(cho_factor(sym(M)), AQBt)
    val = float(np.trace(B @ Q @ B.T) - np.sum(AQBt * sol))
    return max(val, 0.0)


def _add_q_in_script_q(b: Builder, ell: Ellitope, q_idx: np.ndarray,
                       rho_scale: float = 1.0, tau_idx: int | None = None,
                       name: str = "t") -> None:
    """Constraints Tr(Q S_k) <= rho_scale * t_k with [t; tau] in the cone of
    T (tau = 1 when tau_idx is None), t a new variable group called name.
    Q >= 0 is left to the caller."""
    t = b.vars(name, ell.K)
    for k in range(ell.K):
        sv = svec(ell.S[k])
        nz = np.nonzero(sv)[0]
        b.ineq(np.concatenate([q_idx[nz], [t[k]]]),
               np.concatenate([sv[nz], [-rho_scale]]), 0.0)
    add_tset_cone(b, ell.tset, t, tau_idx=tau_idx)


def _add_phi_objective(b: Builder, A: np.ndarray, B: np.ndarray, sigma: float,
                       q_idx: np.ndarray):
    """Epigraph of the Bayesian objective: adds slack G and the Schur block

        [ G      B Q A'              ]
        [ A Q B' sigma^2 I_m + A Q A']  >= 0

    and sets the (minimization) objective Tr(G) - Tr(B Q B'). Returns the
    block's handle, so a caller passing sigma = 0 can add its own noise
    term."""
    m, n = A.shape
    nu = B.shape[0]
    g = b.vars("G", svec_len(nu))
    b.objective(g, svec(np.eye(nu)))
    sv_btb = svec(sym(B.T @ B))
    b.objective(q_idx, -sv_btb)
    L = b.lmi(nu + m)
    F0 = np.zeros((nu + m, nu + m))
    F0[nu:, nu:] = sigma ** 2 * np.eye(m)
    L.const(F0)
    E = np.eye(nu + m)[:, :nu]
    L.matrix_term(g, E, E)
    # V Q V' - V0 Q V0' with V = [B; A], V0 = [B; 0] is sym(U Q Va') with
    # Va = [0; A] and U = 2 V0 + Va
    L.matrix_term(q_idx, np.vstack([2 * B, A]), np.vstack([np.zeros_like(B), A]))
    return L


def solve_bayesian_sdp(prob: EstimationProblem, *,
                       check_against_opt: float | None = None) -> BayesianSolution:
    """Maximize Tr(BQB') - Tr(G) over the Schur-complement form of phi(Q)
    with Q in the admissible covariance set of the ellitope. A given
    check_against_opt must match the value to a relative 1e-5."""
    A, B, ell = prob.A, prob.B, prob.ell
    n = ell.n
    b = Builder()
    q = b.vars("Q", svec_len(n))
    _add_phi_objective(b, A, B, prob.sigma, q)
    b.lmi(n).matrix_term(q, np.eye(n), np.eye(n))
    _add_q_in_script_q(b, ell, q)
    prog = b.build()
    sol = solve_or_raise(prog)
    Q = smat(sol.var(prog, "Q"), n)
    G = smat(sol.var(prog, "G"), prob.nu)
    t = sol.var(prog, "t").copy()
    opt_star = -float(sol.pobj)
    if check_against_opt is not None:
        gap = abs(opt_star - check_against_opt)
        if gap > 1e-5 * (1.0 + abs(check_against_opt)):
            raise AssertionError(
                f"Bayesian value {opt_star} disagrees with design value "
                f"{check_against_opt} beyond tolerance")
    return BayesianSolution(Q, t, opt_star, G, sol)


def _max_trace_over_covariances(C: np.ndarray, ell: Ellitope):
    """max Tr(CQ) over Q >= 0 with Tr(QS_k) <= t_k, t in T, for symmetric C,
    through its dual min phi_T(lam) s.t. sum lam_k S_k >= C, lam >= 0.
    Returns (value, Q, t): the dual value; the LMI's multiplier, clipped to
    PSD and scaled into the set; its loads pushed onto the boundary of T.
    Tr(CQ) must match the value to a relative 1e-6."""
    n = ell.n
    b = Builder()
    lam = b.vars("lam", ell.K)
    b.nonneg(lam)
    add_support_epigraph(b, ell.tset, lam)
    L = b.lmi(n)
    L.const(-C)
    for k in range(ell.K):
        L.term(lam[k], ell.S[k])
    sol = solve_or_raise(b.build())
    val = float(sol.pobj)
    R = psd_sqrt(smat(sol.z[-svec_len(n):], n))   # the LMI block is last in z
    Q = R @ R
    loads = np.einsum("kij,ji->k", ell.S, Q)
    gam = ell.tset.boundary_scale(loads)
    Q *= min(gam, 1.0)
    t = gam * loads if np.isfinite(gam) else loads
    if abs(float(np.sum(C * Q)) - val) > 1e-6 * (1.0 + abs(val)):
        raise AssertionError(f"duality gap: Tr(CQ) = {np.sum(C * Q)} vs dual {val}")
    return val, Q, t


def m_star(B: np.ndarray, ell: Ellitope) -> float:
    """sqrt(max Tr(BQB') over Q >= 0 with Tr(QS_k) <= t_k, t in T), from
    one solve of its dual in K variables; independent of sigma."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if not np.any(B):
        return 0.0
    val, _, _ = _max_trace_over_covariances(sym(B.T @ B), ell)
    return float(np.sqrt(max(val, 0.0)))


def lower_bound_rho_family(opt: float, mstar: float, K: int,
                           rho_grid=None) -> LowerBoundReport:
    """Best lower bound of the form
    Risk^2 >= rho*Opt - [1 + sqrt(2 rho) q_{1-delta_rho/2}]^2 M_*^2 delta_rho
    over a grid of rho values."""
    best_val, best_rho, best_delta = _rho_scan(opt, mstar, K, 0.0, rho_grid)
    lb = math.sqrt(max(best_val, 0.0))
    factor = math.sqrt(max(opt, 0.0)) / lb if lb > 0 else math.inf
    return LowerBoundReport(method=RHO_FAMILY, lb=lb, rho=best_rho,
                            delta=best_delta, factor_numeric=factor)


def _rho_scan(phi: float, mstar: float, K: int, tr_qs: float, rho_grid=None):
    """max over rho in the grid (default DEFAULT_RHO_GRID) of

        [rho phi - (1 + sqrt(2 rho) q_{1-delta_rho/2})^2 M_*^2 delta_rho]
        / (1 + rho tr_qs / (1 - delta_rho)),

    floored at 0. tr_qs = 0 gives the plain rho family, tr_qs = Tr(QS) the
    S-risk one. Returns (value, rho, delta_rho), rho and delta None when no
    grid point beats 0."""
    if rho_grid is None:
        rho_grid = DEFAULT_RHO_GRID
    best_val, best_rho, best_delta = 0.0, None, None
    for rho in np.asarray(rho_grid, dtype=float):
        d = delta_rho(float(rho), K)
        if d >= 1.0:
            continue
        if d > 0.0:
            # quantile via the lower tail: q_{1-d/2} = -q_{d/2}, stable for tiny d
            bracket = 1.0 + math.sqrt(2.0 * rho) * (-gaussian_quantile(d / 2.0))
            num = rho * phi - bracket ** 2 * mstar ** 2 * d
        else:
            num = rho * phi
        val = num / (1.0 + rho * tr_qs / (1.0 - d))
        if val > best_val:
            best_val, best_rho, best_delta = val, float(rho), d
    return best_val, best_rho, best_delta


def _extract_rank1_dirs(ell: Ellitope) -> np.ndarray:
    """Rows a_k with S_k = a_k a_k'; fails unless every S_k is rank one."""
    dirs = []
    for k in range(ell.K):
        w, V = np.linalg.eigh(ell.S[k])
        if w[-1] <= 0 or (len(w) > 1 and w[-2] > 1e-9 * w[-1]):
            raise ValueError("parallelotope bound needs rank-1 S_k")
        dirs.append(np.sqrt(w[-1]) * V[:, -1])
    return np.array(dirs)


def _qs_product_triplets(S: np.ndarray):
    """Triplets (mi, mj, qcol, val) with (smat(q) @ S)[mi, mj] = sum val*q[qcol].
    Column c = (a, b) of the svec basis is (e_a e_b' + e_b e_a') / div, div 2
    on the diagonal and sqrt(2) off it, so it puts S[b, :] / div in row a and
    S[a, :] / div in row b (both halves in row a on the diagonal)."""
    n = S.shape[0]
    a, b = _tri_indices(n)
    div = np.where(a == b, 2.0, SQRT2)
    rows, src = np.concatenate([a, b]), np.concatenate([b, a])
    qcol = np.tile(np.arange(len(a)), 2)
    vals = S[src] / np.tile(div, 2)[:, None]
    return (np.repeat(rows, n), np.tile(np.arange(n), len(rows)),
            np.repeat(qcol, n), vals.ravel())


def refined_lower_bound(prob: EstimationProblem, method: str, delta: float, *,
                        opt: float | None = None,
                        mstar: float | None = None) -> LowerBoundReport:
    """Lower bound from maximizing phi over a delta-reliable covariance set.

    method selects the set: 'contraction' shrinks the trace constraints by
    rho(delta) (any ellitope); 'quadratic_approx' uses the one-constraint
    chance-constraint surrogate (K = 1 ellipsoid only); 'parallelotope' uses
    exact Gaussian marginals (rank-1 S_k only). The probability estimate is
    refined at the optimizer before entering the risk bound.
    """
    if not 0.0 < delta <= 0.2:
        raise ValueError("delta must lie in (0, 1/5]")
    A, B, ell = prob.A, prob.B, prob.ell
    n, K = ell.n, ell.K
    if mstar is None:
        mstar = m_star(B, ell)
    if opt is None:
        opt = build_linear_estimate(prob).opt

    b = Builder()
    q = b.vars("Q", svec_len(n))
    _add_phi_objective(b, A, B, prob.sigma, q)
    b.lmi(n).matrix_term(q, np.eye(n), np.eye(n))

    rho = None
    if method == CONTRACTION:
        rho = rho_of_delta(delta, K)
        _add_q_in_script_q(b, ell, q, rho_scale=rho)
    elif method == QUADRATIC_APPROX:
        if K != 1 or ell.tset.variant != SEGMENT:
            raise ValueError("quadratic_approx needs a K = 1 ellipsoid")
        wf = b.vars("w_fro", 1)
        ws = b.vars("w_spec", 1)
        mi, mj, qc, vv = _qs_product_triplets(ell.S[0])
        soc = b.soc(1 + n * n)
        soc.set_row(0, [wf[0]], [1.0])
        soc.set_triplets(1 + mi * n + mj, q[qc], vv)
        Ls = b.lmi(2 * n)
        Ls.term(ws[0], np.eye(2 * n))
        # [[0, QS], [S Q, 0]] = sym(U Q V') with U = [2I; 0], V = [0; S']
        Ls.matrix_term(q, np.vstack([2 * np.eye(n), np.zeros((n, n))]),
                       np.vstack([np.zeros((n, n)), ell.S[0].T]))
        lnd = math.log(1.0 / delta)
        sv = svec(ell.S[0])
        nz = np.nonzero(sv)[0]
        b.ineq(np.concatenate([q[nz], wf, ws]),
               np.concatenate([sv[nz], [2.0 * math.sqrt(lnd), 2.0 * lnd]]), 1.0)
    elif method == PARALLELOTOPE:
        if ell.tset.variant not in (SEGMENT, BOX):
            raise ValueError("parallelotope bound needs a box-family T")
        dirs = _extract_rank1_dirs(ell)
        qq = gaussian_quantile(1.0 - delta / (2.0 * K))
        for k in range(K):
            sv = svec(np.outer(dirs[k], dirs[k]))
            nz = np.nonzero(sv)[0]
            b.ineq(q[nz], sv[nz], 1.0 / qq ** 2)
    else:
        raise ValueError(f"unknown refined-bound method {method!r}")

    prog = b.build()
    sol = solve_or_raise(prog)
    opt_delta = -float(sol.pobj)
    R = psd_sqrt(smat(sol.var(prog, "Q"), n))
    Q = R @ R                                # PSD projection for the tail work

    # refined outside-probability at the optimizer
    if method == PARALLELOTOPE:
        sigmas = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", dirs, Q, dirs), 0.0))
        tails = np.where(sigmas > 0, 2.0 * (1.0 - ndtr(1.0 / np.maximum(sigmas, 1e-300))), 0.0)
        delta_ref = float(min(delta, np.sum(tails)))
    elif method == QUADRATIC_APPROX:
        delta_ref = min(delta, chi2_tail_bound(Q, ell.S[0]))
    else:
        t_opt = np.maximum(sol.var(prog, "t"), 0.0)
        total = 0.0
        R = psd_sqrt(Q)
        for k in range(K):
            Sk = ell.S[k] / max(float(t_opt[k]), 1e-12)
            s = np.clip(np.linalg.eigvalsh(sym(R @ Sk @ R)), 0.0, None)
            total += _chi2_tail(s) if float(np.sum(s)) <= 1.0 + 1e-9 else 1.0
        delta_ref = min(delta, total)

    fro = math.sqrt(max(float(np.trace(B @ Q @ B.T)), 0.0))
    qref = -gaussian_quantile(delta_ref / 2.0) if delta_ref > 0 else 0.0
    lb_sq = opt_delta - (mstar + math.sqrt(2.0) * qref * fro) ** 2 * delta_ref
    lb = math.sqrt(max(lb_sq, 0.0))
    factor = math.sqrt(max(opt, 0.0)) / lb if lb > 0 else math.inf
    return LowerBoundReport(method=method, lb=lb, rho=rho, delta=delta,
                            delta_refined=delta_ref, factor_numeric=factor,
                            details={"opt_delta": opt_delta, "Q": Q})


def best_refined_lower_bound(prob: EstimationProblem, method: str,
                             deltas=DEFAULT_DELTA_GRID, **kw) -> LowerBoundReport:
    """The refined bound maximized over a delta grid."""
    best = None
    for d in deltas:
        rep = refined_lower_bound(prob, method, d, **kw)
        if best is None or rep.lb > best.lb:
            best = rep
    return best


def near_optimality_factor(opt: float, mstar: float, K: int,
                           risk_opt: float | None = None) -> FactorEstimate:
    """A-priori suboptimality factors from (Opt, M_*, K) alone:
    Risk_opt^2 >= Opt / factor_computable with
    factor_computable = 12 ln(17 K M_*^2 / Opt)."""
    if opt <= 0 or mstar <= 0:
        raise ValueError("opt and mstar must be positive")
    bracket = 12.0 * math.log(17.0 * K * mstar ** 2 / opt)
    if bracket <= 0:
        raise ValueError("degenerate factor argument")
    ft = None
    if risk_opt is not None:
        if risk_opt <= 0:
            raise ValueError("risk_opt must be positive")
        ft = math.sqrt(6.0 * math.log(8.0 * K * mstar ** 2 / risk_opt ** 2))
    return FactorEstimate(factor_computable=bracket,
                          factor_computable_sqrt=math.sqrt(bracket),
                          factor_theorem=ft)


def simplified_factor(prob: EstimationProblem) -> tuple[float, float]:
    """Closed-form factor argument K Cond^2(B) [Cond^2(T) + ||A||^2 T/(sigma^2 kappa)]
    and its sqrt-log value."""
    B = prob.B
    sv = np.linalg.svd(B, compute_uv=False)
    if B.shape[0] < B.shape[1] or sv[-1] <= 0:
        raise ValueError("B must have full column rank")
    cond_b = float(sv[0] / sv[-1])
    ell = prob.ell
    T = ell.tset.max_sum()
    cond_t_sq = ell.tset.cond() ** 2
    arg = ell.K * cond_b ** 2 * (cond_t_sq + spectral_norm(prob.A) ** 2 * T
                                 / (prob.sigma ** 2 * ell.kappa))
    return float(arg), float(math.sqrt(math.log(arg)))

