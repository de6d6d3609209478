"""Dense primal-dual interior-point engine for cone programs.

Solves the pair

    minimize  c'x                      maximize  -h'z - b'y
    s.t.      Gx + s = h, s in K       s.t.      G'z + A'y + c = 0, z in K
              Ax = b

over K = R_+^l x SOC(q_i) x PSD(s_j), via the homogeneous self-dual embedding
with Nesterov-Todd scaling and a Mehrotra predictor-corrector. This is the
(c, G, h, dims, A, b) cone-LP form of CVXOPT's conelp; program.py lowers
every ConicProgram onto it. Infeasible problems terminate with a Farkas-type
certificate in the ConicSolution's x/y/z instead of a solution:

  * primal infeasible: (y, z) with z in K*, A'y + G'z = 0, b'y + h'z = -1;
  * dual infeasible (primal unbounded direction): x with Ax = 0,
    Gx + s = 0 for some s in K, c'x = -1.

Each iteration factors the KKT system through its Schur block
G'(W'W)^{-1}G, assembled per cone block from factors of G's columns that are
computed once per solve (cones.ColumnFactors, Scaling.scale_G): no dense
W^{-T}G is formed. The reduced (d + p) saddle matrix is dense and LU-factored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .cones import ColumnFactors, ConeDims, Scaling, cone_margin, jordan_mul, max_step

STEP_FRACTION = 0.99
TOL_FEAS = 1e-8
MAX_ITER = 200


@dataclass
class ConicSolution:
    status: str                      # optimal | primal_infeasible | dual_infeasible | max_iter
    x: np.ndarray | None
    y: np.ndarray | None
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
    """The KKT saddle system of one solve, factored once per iteration.

    The Schur block G'(W'W)^{-1}G comes from G's column factors. The solves
    work in the scaled frame, W^{-T} first and W^{-1} on the difference, and
    multiply by G in sparse form: G is mostly zeros in the programs of this
    package."""

    def __init__(self, G, A, dims: ConeDims):
        self.G = scipy.sparse.csr_array(G)
        self.Gt = scipy.sparse.csr_array(G.T)
        self.A = A
        self.fac = ColumnFactors.of(G, dims)
        self.d, self.p = G.shape[1], A.shape[0]

    def factor(self, scaling: Scaling) -> None:
        d, p = self.d, self.p
        self.scaling = scaling
        M = np.zeros((d + p, d + p))
        M[:d, :d] = scaling.scale_G(self.fac)
        if p:
            M[:d, d:] = self.A.T
            M[d:, :d] = self.A
        self._factor(M)

    def _factor(self, M):
        d, p = self.d, self.p
        scale = max(np.abs(M).max(), 1.0)
        for reg in (0.0, 1e-12, 1e-9, 1e-6):
            Mr = M.copy()
            if reg:
                Mr[:d, :d] += reg * scale * np.eye(d)
                if p:
                    Mr[d:, d:] -= reg * scale * np.eye(p)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                    self.lu = scipy.linalg.lu_factor(Mr)
                # lu_factor tolerates exact singularity; probe it.
                if not np.all(np.isfinite(self.lu[0])) or np.abs(np.diag(self.lu[0])).min() < 1e-300:
                    continue
                return
            except (scipy.linalg.LinAlgError, ValueError):
                continue
        raise np.linalg.LinAlgError("KKT system is singular")

    def _solve_once(self, bx, by, bz):
        W = self.scaling
        bz_s = W.apply(bz, "winvt")
        rhs = np.concatenate([bx + self.Gt @ W.apply(bz_s, "winv"), by])
        sol = scipy.linalg.lu_solve(self.lu, rhs)
        u, v = sol[:self.d], sol[self.d:]
        w = W.apply(W.apply(self.G @ u, "winvt") - bz_s, "winv")
        return u, v, w

    def solve3(self, bx, by, bz):
        """Solve [0 A' G'; A 0 0; G 0 -W'W] (u,v,w) = (bx,by,bz), with one
        step of iterative refinement."""
        W = self.scaling
        u, v, w = self._solve_once(bx, by, bz)
        r1 = bx - (self.A.T @ v + self.Gt @ w)
        r2 = by - self.A @ u
        r3 = bz - (self.G @ u - W.apply(W.apply(w, "w"), "wt"))
        du, dv, dw = self._solve_once(r1, r2, r3)
        return u + du, v + dv, w + dw


def conelp(
    c: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    dims: ConeDims,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    tol_gap: float = 1e-8,
) -> ConicSolution:
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    d = c.shape[0]
    if A is None:
        A = np.zeros((0, d))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, d)
    b = np.asarray(b, dtype=float).reshape(-1)
    if G.shape != (dims.cone_len, d):
        raise ValueError(f"G has shape {G.shape}, expected {(dims.cone_len, d)}")
    if d == 0:
        raise ValueError("problem has no variables")

    deg = dims.degree
    e = dims.identity()
    norm_b = max(1.0, np.linalg.norm(b))
    norm_h = max(1.0, np.linalg.norm(h))
    norm_c = max(1.0, np.linalg.norm(c))

    # Starting point: least-norm primal/dual estimates pushed into the cone.
    kkt = _KKT(G, A, dims)
    kkt.factor(Scaling.identity(dims))
    x, _, w0 = kkt.solve3(np.zeros(d), b.copy(), h.copy())
    s = -w0
    m = cone_margin(dims, s)
    if m <= 0:
        s = s + (1.0 - m) * e
    _, y, z = kkt.solve3(-c, np.zeros(A.shape[0]), np.zeros(dims.cone_len))
    m = cone_margin(dims, z)
    if m <= 0:
        z = z + (1.0 - m) * e
    tau, kappa = 1.0, 1.0

    best = None
    stall = 0

    for it in range(MAX_ITER + 1):
        # Residuals of the embedding.
        rx = A.T @ y + G.T @ z + c * tau
        ry = A @ x - b * tau
        rz = G @ x + s - h * tau
        rt = kappa + c @ x + b @ y + h @ z

        # Unscaled candidate and its metrics.
        xs, ys, zs, ss = x / tau, y / tau, z / tau, s / tau
        pobj = float(c @ xs)
        dobj = float(-(b @ ys + h @ zs))
        gap = float(ss @ zs)
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        pres = max(
            np.linalg.norm(A @ xs - b) / norm_b,
            np.linalg.norm(G @ xs + ss - h) / norm_h,
        )
        dres = np.linalg.norm(A.T @ ys + G.T @ zs + c) / norm_c

        if best is None or max(pres, dres, relgap) < max(best.pres, best.dres, best.relgap):
            best = ConicSolution("max_iter", xs.copy(), ys.copy(), zs.copy(), ss.copy(),
                                 pobj, dobj, gap, relgap, pres, dres)

        if pres <= TOL_FEAS and dres <= TOL_FEAS and relgap <= tol_gap:
            return ConicSolution("optimal", xs, ys, zs, ss, pobj, dobj, gap, relgap,
                                 pres, dres, it, "converged")

        # Farkas certificate checks.
        by_hz = b @ y + h @ z
        if by_hz < 0:
            t = -1.0 / by_hz
            cert_res = np.linalg.norm(A.T @ (t * y) + G.T @ (t * z))
            if cert_res <= TOL_FEAS * norm_c:
                return ConicSolution("primal_infeasible", None, t * y, t * z, None,
                                     pres=cert_res, iterations=it,
                                     message="primal infeasibility certificate found")
        cx = c @ x
        if cx < 0:
            t = -1.0 / cx
            res1 = np.linalg.norm(A @ (t * x))
            res2 = np.linalg.norm(G @ (t * x) + t * s)
            if res1 <= TOL_FEAS * norm_b and res2 <= TOL_FEAS * norm_h:
                return ConicSolution("dual_infeasible", t * x, None, None, t * s,
                                     pres=max(res1, res2), iterations=it,
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
            # (x1, y1, z1) go through the factorization as one batched call.
            dst_aff = -jordan_mul(dims, lam, lam)
            wt_aff = wt_lam_div(dst_aff)
            X, Y, Z = kkt.solve3(np.column_stack([-c, -rx]), np.column_stack([b, -ry]),
                                 np.column_stack([h, -rz - wt_aff]))
            x1, y1, z1 = X[:, 0], Y[:, 0], Z[:, 0]
            den = c @ x1 + b @ y1 + h @ z1 - kappa / tau
            if not np.isfinite(den) or den >= -1e-300:
                den = -max(1e-300, abs(den))

            def newton(wt_dst, x2, y2, z2, dkt, eta):
                dtau = (-eta * rt - dkt / tau - (c @ x2 + b @ y2 + h @ z2)) / den
                dx = x2 + dtau * x1
                dy = y2 + dtau * y1
                dz = z2 + dtau * z1
                ds = wt_dst - scaling.apply(scaling.apply(dz, "w"), "wt")
                dkap = (dkt - kappa * dtau) / tau
                return dx, dy, dz, ds, dtau, dkap

            # Predictor.
            dx, dy, dz, ds, dtau, dkap = newton(wt_aff, X[:, 1], Y[:, 1], Z[:, 1],
                                                -tau * kappa, 1.0)
            alpha_aff = _step_length(dims, s, z, tau, kappa, ds, dz, dtau, dkap, cap=1.0)
            mu_aff = ((s + alpha_aff * ds) @ (z + alpha_aff * dz)
                      + (tau + alpha_aff * dtau) * (kappa + alpha_aff * dkap)) / (deg + 1)
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

            # Corrector.
            corr = jordan_mul(dims, scaling.apply(ds, "winvt"), scaling.apply(dz, "w"))
            dst = dst_aff - corr + sigma * mu * e
            dkt = -tau * kappa - dtau * dkap + sigma * mu
            eta = 1.0 - sigma
            wt_dst = wt_lam_div(dst)
            dx, dy, dz, ds, dtau, dkap = newton(
                wt_dst, *kkt.solve3(-eta * rx, -eta * ry, -eta * rz - wt_dst), dkt, eta)

            alpha = STEP_FRACTION * _step_length(dims, s, z, tau, kappa, ds, dz, dtau, dkap,
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
        y += alpha * dy
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkap

    raise AssertionError("unreachable")


def _step_length(dims, s, z, tau, kappa, ds, dz, dtau, dkap, cap=1.0):
    alpha = cap
    alpha = min(alpha, max_step(dims, s, ds))
    alpha = min(alpha, max_step(dims, z, dz))
    if dtau < 0:
        alpha = min(alpha, tau / -dtau)
    if dkap < 0:
        alpha = min(alpha, kappa / -dkap)
    return min(alpha, cap)
