"""Dense primal-dual interior-point engine for cone programs.

Solves the pair

    minimize  c'x                      maximize  -h'z
    s.t.      Gx + s = h, s in K       s.t.      G'z + c = 0, z in K

over K = R_+^l x SOC(q_i) x PSD(s_j), via the homogeneous self-dual embedding
with Nesterov-Todd scaling and a Mehrotra predictor-corrector. This is the
inequality form (c, G, h, dims) of CVXOPT's conelp; program.py lowers every
ConicProgram onto it. Infeasible problems terminate with a Farkas-type
certificate in the ConicSolution's x/z instead of a solution:

  * primal infeasible: z in K* with G'z = 0, h'z = -1;
  * dual infeasible (primal unbounded direction): x with Gx + s = 0 for
    some s in K, c'x = -1.

Each iteration factors the KKT system through its d x d Schur block
G'(W'W)^{-1}G, assembled per cone block from factors of G's columns that are
computed once per solve (cones.ColumnFactors, Scaling.scale_G): neither
W^{-T}G nor a dense G is formed. LMI columns that a matrix variable fills by
a fixed congruence arrive as terms (U, V) and get Kronecker-product Schur
blocks; the other LMI columns are eigendecomposed; an SOC block adds a
rank-one update and its sparse constant part. The Schur block is dense,
assembled into one buffer per solve and LU-factored in place; a regularised
retry assembles it again. Everything else multiplies by G in sparse (CSR)
form: the residuals, the certificate checks and the KKT solves. The start
factors the KKT system at Scaling.compute(dims, e, e), the identity.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy  # scipy.linalg and scipy.sparse load on first use, at the first solve

from .cones import ColumnFactors, ConeDims, Scaling, cone_margin, jordan_mul, max_step

STEP_FRACTION = 0.99
TOL_FEAS = 1e-8
TOL_GAP = 1e-8
MAX_ITER = 200


def gap_tolerance() -> float:
    """The relative duality-gap target of every solve: the environment
    variable ESTIMATOR_SOLVER_TOL when set, else TOL_GAP. ValueError unless
    it is a finite positive number."""
    v = os.environ.get("ESTIMATOR_SOLVER_TOL")
    if not v:
        return TOL_GAP
    try:
        tol = float(v)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"ESTIMATOR_SOLVER_TOL must be a finite positive number, got {v!r}")
    return tol


@dataclass
class ConicSolution:
    status: str                      # optimal | primal_infeasible | dual_infeasible | max_iter
    x: np.ndarray | None
    z: np.ndarray | None
    s: np.ndarray | None
    pobj: float = np.nan
    dobj: float = np.nan
    gap: float = np.nan
    relgap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def var(self, prog, name: str) -> np.ndarray:
        """The slice of x that prog's variable group name occupies."""
        lo, hi = prog.var_table[name]
        return self.x[lo:hi]


class _KKT:
    """The KKT system of one solve, factored once per iteration.

    The Schur block G'(W'W)^{-1}G comes from G's column factors and is
    assembled into one C-ordered d x d buffer allocated per solve. Its
    transpose, F-ordered, is LU-factored in place, so the solves ask for the
    transposed system (trans=1): exact whether or not the assembled block is
    bitwise symmetric. The solves work in the scaled frame, W^{-T} first and
    W^{-1} on the difference, and multiply by G in sparse form: G is mostly
    zeros in the programs of this package."""

    def __init__(self, G, dims: ConeDims, terms=()):
        self.G = scipy.sparse.csr_array(G)
        self.Gt = self.G.T.tocsr()
        self.fac = ColumnFactors.of(self.G, dims, terms)
        self.M = np.empty((G.shape[1], G.shape[1]))

    def factor(self, scaling: Scaling) -> None:
        self.scaling = scaling
        for reg in (0.0, 1e-12, 1e-9, 1e-6):
            # assembled again on every rung: a failed LU has overwritten it
            M = scaling.scale_G(self.fac, self.M)
            if reg:
                M.flat[::len(M) + 1] += reg * max(np.abs(M).max(), 1.0)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                    self.lu = scipy.linalg.lu_factor(M.T, overwrite_a=True, check_finite=False)
            except (scipy.linalg.LinAlgError, ValueError):
                continue
            # lu_factor tolerates exact singularity and non-finite input; probe it.
            lu = self.lu[0]
            if np.all(np.isfinite(lu)) and np.abs(np.diag(lu)).min() >= 1e-300:
                return
        raise np.linalg.LinAlgError("KKT system is singular")

    def _solve_once(self, bx, bz):
        W = self.scaling
        bz_s = W.apply(bz, "winvt")
        rhs = bx + self.Gt @ W.apply(bz_s, "winv")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("non-finite KKT right-hand side")
        u = scipy.linalg.lu_solve(self.lu, rhs, trans=1, overwrite_b=True, check_finite=False)
        w = W.apply(W.apply(self.G @ u, "winvt") - bz_s, "winv")
        return u, w

    def solve(self, bx, bz):
        """Solve [0 G'; G -W'W] (u, w) = (bx, bz), with one step of
        iterative refinement."""
        W = self.scaling
        u, w = self._solve_once(bx, bz)
        r1 = bx - self.Gt @ w
        r3 = bz - (self.G @ u - W.apply(W.apply(w, "w"), "wt"))
        du, dw = self._solve_once(r1, r3)
        return u + du, w + dw


def conelp(
    c: np.ndarray,
    G,
    h: np.ndarray,
    dims: ConeDims,
    *,
    terms=(),
) -> ConicSolution:
    """Solve the cone program (c, G, h, dims) to the feasibility tolerance
    TOL_FEAS and the duality-gap target gap_tolerance(). terms lists, per LMI
    block, the (cols, U, V) of columns of G that are svec(sym(U E V')) over
    the basis E of a matrix variable (program.ConicProgram.lmi_terms); the
    Schur block of those columns is built from U and V (cones.ColumnFactors).
    G may be dense or sparse: it is turned into CSR once, here."""
    c = np.asarray(c, dtype=float)
    G = scipy.sparse.csr_array(G, dtype=float)
    h = np.asarray(h, dtype=float)
    d = c.shape[0]
    if G.shape != (dims.cone_len, d):
        raise ValueError(f"G has shape {G.shape}, expected {(dims.cone_len, d)}")
    if d == 0:
        raise ValueError("problem has no variables")
    tol_gap = gap_tolerance()

    deg = dims.degree
    e = dims.identity()
    norm_h = max(1.0, np.linalg.norm(h))
    norm_c = max(1.0, np.linalg.norm(c))

    # Starting point: least-norm primal/dual estimates pushed into the cone.
    kkt = _KKT(G, dims, terms)
    G, Gt = kkt.G, kkt.Gt
    kkt.factor(Scaling.compute(dims, e, e))
    x, w0 = kkt.solve(np.zeros(d), h.copy())
    s = -w0
    m = cone_margin(dims, s)
    if m <= 0:
        s = s + (1.0 - m) * e
    _, z = kkt.solve(-c, np.zeros(dims.cone_len))
    m = cone_margin(dims, z)
    if m <= 0:
        z = z + (1.0 - m) * e
    tau, kappa = 1.0, 1.0

    best = None
    stall = 0

    for it in range(MAX_ITER + 1):
        # Residuals of the embedding.
        rx = Gt @ z + c * tau
        rz = G @ x + s - h * tau
        rt = kappa + c @ x + h @ z

        # Unscaled candidate and its metrics.
        xs, zs, ss = x / tau, z / tau, s / tau
        pobj = float(c @ xs)
        dobj = float(-(h @ zs))
        gap = float(ss @ zs)
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        pres = np.linalg.norm(G @ xs + ss - h) / norm_h
        dres = np.linalg.norm(Gt @ zs + c) / norm_c

        if best is None or max(pres, dres, relgap) < max(best.pres, best.dres, best.relgap):
            best = ConicSolution("max_iter", xs.copy(), zs.copy(), ss.copy(),
                                 pobj, dobj, gap, relgap, pres, dres)

        if pres <= TOL_FEAS and dres <= TOL_FEAS and relgap <= tol_gap:
            return ConicSolution("optimal", xs, zs, ss, pobj, dobj, gap, relgap,
                                 pres, dres, it, "converged")

        # Farkas certificate checks.
        hz = h @ z
        if hz < 0:
            t = -1.0 / hz
            cert_res = np.linalg.norm(Gt @ (t * z))
            if cert_res <= TOL_FEAS * norm_c:
                return ConicSolution("primal_infeasible", None, t * z, None,
                                     pres=cert_res, iterations=it,
                                     message="primal infeasibility certificate found")
        cx = c @ x
        if cx < 0:
            t = -1.0 / cx
            res = np.linalg.norm(G @ (t * x) + t * s)
            if res <= TOL_FEAS * norm_h:
                return ConicSolution("dual_infeasible", t * x, None, t * s,
                                     pres=res, iterations=it,
                                     message="dual infeasibility certificate found")

        def finish(msg: str) -> ConicSolution:
            # Degenerate programs can stall short of full accuracy; accept the
            # best iterate when it clears a 100x-relaxed threshold.
            if (best.pres <= 100 * TOL_FEAS and best.dres <= 100 * TOL_FEAS
                    and best.relgap <= 100 * tol_gap):
                return replace(best, status="optimal", iterations=it,
                               message=f"converged at reduced accuracy ({msg})")
            return replace(best, iterations=it, message=msg)

        if it == MAX_ITER or stall >= 3:
            return finish("stalled" if stall >= 3 else "iteration limit reached")

        mu = (s @ z + tau * kappa) / (deg + 1)

        try:
            scaling = Scaling.compute(dims, s, z)
            kkt.factor(scaling)

            lam = scaling.lam

            def wt_lam_div(dst):
                return scaling.apply(scaling.lam_div(dst), "wt")

            # The predictor's KKT solve and the one for the tau direction
            # (x1, z1) go through the factorization as one batched call.
            dst_aff = -jordan_mul(dims, lam, lam)
            wt_aff = wt_lam_div(dst_aff)
            X, Z = kkt.solve(np.column_stack([-c, -rx]), np.column_stack([h, -rz - wt_aff]))
            x1, z1 = X[:, 0], Z[:, 0]
            den = c @ x1 + h @ z1 - kappa / tau
            if not np.isfinite(den) or den >= -1e-300:
                den = -max(1e-300, abs(den))

            def newton(wt_dst, x2, z2, dkt, eta):
                dtau = (-eta * rt - dkt / tau - (c @ x2 + h @ z2)) / den
                dx = x2 + dtau * x1
                dz = z2 + dtau * z1
                ds = wt_dst - scaling.apply(scaling.apply(dz, "w"), "wt")
                dkap = (dkt - kappa * dtau) / tau
                return dx, dz, ds, dtau, dkap

            # Predictor.
            dx, dz, ds, dtau, dkap = newton(wt_aff, X[:, 1], Z[:, 1], -tau * kappa, 1.0)
            alpha_aff = _step_length(scaling, s, z, tau, kappa, ds, dz, dtau, dkap, cap=1.0)
            mu_aff = ((s + alpha_aff * ds) @ (z + alpha_aff * dz)
                      + (tau + alpha_aff * dtau) * (kappa + alpha_aff * dkap)) / (deg + 1)
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

            # Corrector.
            corr = jordan_mul(dims, scaling.apply(ds, "winvt"), scaling.apply(dz, "w"))
            dst = dst_aff - corr + sigma * mu * e
            dkt = -tau * kappa - dtau * dkap + sigma * mu
            eta = 1.0 - sigma
            wt_dst = wt_lam_div(dst)
            dx, dz, ds, dtau, dkap = newton(
                wt_dst, *kkt.solve(-eta * rx, -eta * rz - wt_dst), dkt, eta)

            alpha = STEP_FRACTION * _step_length(scaling, s, z, tau, kappa, ds, dz, dtau, dkap,
                                                 cap=1.0 / STEP_FRACTION)
        except (np.linalg.LinAlgError, ValueError):
            # boundary/overflow wreckage in the scaling or the KKT solves
            return finish("numerical breakdown in step computation")
        if not np.isfinite(alpha):
            return finish("nonfinite step length")
        if alpha < 1e-10:
            stall += 3
        elif alpha < 1e-5:
            stall += 1
        else:
            stall = 0

        x += alpha * dx
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkap

    raise AssertionError("unreachable")


def _step_length(scaling, s, z, tau, kappa, ds, dz, dtau, dkap, cap=1.0):
    alpha = cap
    alpha = min(alpha, max_step(scaling, s, ds, "s"))
    alpha = min(alpha, max_step(scaling, z, dz, "z"))
    if dtau < 0:
        alpha = min(alpha, tau / -dtau)
    if dkap < 0:
        alpha = min(alpha, kappa / -dkap)
    return min(alpha, cap)
