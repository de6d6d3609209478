"""Cone bookkeeping and Nesterov-Todd scaling operations.

The engine works over a product cone K = R_+^l x SOC(q_1) x ... x PSD(s_1) x ...
Vectors in cone space are laid out [nonneg | soc blocks | psd blocks], with PSD
blocks stored in svec form (see linalg.svec).

Scaling conventions: W is the NT scaling with lambda = W z = W^{-T} s for
strictly interior s, z. For the nonneg orthant W is diagonal, for SOC blocks it
is a hyperbolic Householder-like symmetric matrix applied in O(dim), and for
PSD blocks it acts by congruence, W v = svec(R^T mat(v) R).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..linalg import safe_cholesky, smat, svec, svec_len


@dataclass(frozen=True)
class ConeDims:
    l: int = 0
    q: tuple[int, ...] = ()
    s: tuple[int, ...] = ()

    def __post_init__(self):
        if self.l < 0 or any(n < 1 for n in self.q) or any(n < 1 for n in self.s):
            raise ValueError("invalid cone dimensions")

    @property
    def cone_len(self) -> int:
        return self.l + sum(self.q) + sum(svec_len(n) for n in self.s)

    @property
    def degree(self) -> int:
        # Contribution of each block to s.z along the central path s o z = mu e.
        return self.l + len(self.q) + sum(self.s)

    def blocks(self):
        """Yield (kind, offset, length, order) for every block."""
        off = 0
        if self.l:
            yield ("l", 0, self.l, self.l)
            off = self.l
        for n in self.q:
            yield ("q", off, n, n)
            off += n
        for n in self.s:
            m = svec_len(n)
            yield ("s", off, m, n)
            off += m

    def identity(self) -> np.ndarray:
        e = np.zeros(self.cone_len)
        for kind, off, ln, n in self.blocks():
            if kind == "l":
                e[off:off + ln] = 1.0
            elif kind == "q":
                e[off] = 1.0
            else:
                e[off:off + ln] = svec(np.eye(n))
        return e


def _jnorm2(v: np.ndarray) -> float:
    return float(v[0] * v[0] - v[1:] @ v[1:])


def cone_margin(dims: ConeDims, v: np.ndarray) -> float:
    """Smallest eigenvalue-like margin of v over all blocks (<=0 outside)."""
    m = np.inf
    for kind, off, ln, n in dims.blocks():
        blk = v[off:off + ln]
        if kind == "l":
            if ln:
                m = min(m, float(blk.min()))
        elif kind == "q":
            m = min(m, float(blk[0] - np.linalg.norm(blk[1:])))
        else:
            m = min(m, float(np.linalg.eigvalsh(smat(blk, n)).min()))
    return m if m != np.inf else 0.0


def max_step(dims: ConeDims, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha >= 0 such that x + alpha*dx stays in the cone.

    x must be strictly interior. Returns np.inf when the ray never exits.
    """
    alpha = np.inf
    for kind, off, ln, n in dims.blocks():
        xb, db = x[off:off + ln], dx[off:off + ln]
        if kind == "l":
            neg = db < 0
            if np.any(neg):
                alpha = min(alpha, float((xb[neg] / -db[neg]).min()))
        elif kind == "q":
            c = _jnorm2(xb)
            # Congruence by P(x^{-1/2}) maps x to e; eigenvalues of the mapped
            # direction give the exit point along the ray.
            xinv = np.concatenate(([xb[0]], -xb[1:])) / c
            # Jordan square root of xinv: (t, xinv_bar / (2 t)).
            t = np.sqrt((xinv[0] + np.sqrt(_jnorm2(xinv))) / 2.0)
            w = np.concatenate(([t], xinv[1:] / (2 * t)))
            Jd = np.concatenate(([db[0]], -db[1:]))
            y = 2.0 * w * (w @ db) - _jnorm2(w) * Jd
            lam_min = y[0] - np.linalg.norm(y[1:])
            if lam_min < 0:
                alpha = min(alpha, 1.0 / -lam_min)
        else:
            X = smat(xb, n)
            D = smat(db, n)
            L = safe_cholesky(X)
            M = np.linalg.solve(L, np.linalg.solve(L, D).T)
            lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
            if lam_min < 0:
                alpha = min(alpha, 1.0 / -lam_min)
    return alpha


def jordan_mul(dims: ConeDims, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty(dims.cone_len)
    for kind, off, ln, n in dims.blocks():
        ub, vb = u[off:off + ln], v[off:off + ln]
        if kind == "l":
            out[off:off + ln] = ub * vb
        elif kind == "q":
            out[off] = ub @ vb
            out[off + 1:off + ln] = ub[0] * vb[1:] + vb[0] * ub[1:]
        else:
            U, V = smat(ub, n), smat(vb, n)
            out[off:off + ln] = svec(0.5 * (U @ V + V @ U))
    return out


@dataclass
class _SocScaling:
    beta: float
    wbar: np.ndarray  # unit hyperbolic vector, wbar' J wbar = 1

    def apply_wbar(self, v: np.ndarray) -> np.ndarray:
        a, b = self.wbar[0], self.wbar[1:]
        top = a * v[0] + b @ v[1:]
        rest = v[0] * b + v[1:] + (b @ v[1:]) / (1.0 + a) * b
        return np.concatenate(([top], rest))

    def apply_wbar_inv(self, v: np.ndarray) -> np.ndarray:
        a, b = self.wbar[0], self.wbar[1:]
        top = a * v[0] - b @ v[1:]
        rest = -v[0] * b + v[1:] + (b @ v[1:]) / (1.0 + a) * b
        return np.concatenate(([top], rest))


@dataclass
class Scaling:
    """NT scaling state for one (s, z) pair, plus lambda = W z."""

    dims: ConeDims
    d_nn: np.ndarray | None = None              # nonneg: W = diag(d_nn)
    socs: list[_SocScaling] = field(default_factory=list)
    Rs: list[np.ndarray] = field(default_factory=list)      # psd: W v = svec(R' V R)
    Rinvs: list[np.ndarray] = field(default_factory=list)
    lam: np.ndarray | None = None

    @classmethod
    def identity(cls, dims: ConeDims) -> "Scaling":
        sc = cls(dims)
        sc.d_nn = np.ones(dims.l)
        for n in dims.q:
            sc.socs.append(_SocScaling(1.0, np.concatenate(([1.0], np.zeros(n - 1)))))
        for n in dims.s:
            sc.Rs.append(np.eye(n))
            sc.Rinvs.append(np.eye(n))
        sc.lam = dims.identity()
        return sc

    @classmethod
    def compute(cls, dims: ConeDims, s: np.ndarray, z: np.ndarray) -> "Scaling":
        sc = cls(dims)
        lam = np.empty(dims.cone_len)
        for kind, off, ln, n in dims.blocks():
            sb, zb = s[off:off + ln], z[off:off + ln]
            if kind == "l":
                if sb.min(initial=np.inf) <= 0 or zb.min(initial=np.inf) <= 0:
                    raise np.linalg.LinAlgError("nonneg iterate left the interior")
                sc.d_nn = np.sqrt(sb / zb)
                lam[off:off + ln] = np.sqrt(sb * zb)
            elif kind == "q":
                j2s, j2z = _jnorm2(sb), _jnorm2(zb)
                if j2s <= 0 or j2z <= 0 or not (np.isfinite(j2s) and np.isfinite(j2z)):
                    raise np.linalg.LinAlgError("SOC iterate left the interior")
                res = np.sqrt(j2s)
                rez = np.sqrt(j2z)
                st, zt = sb / res, zb / rez
                gamma = np.sqrt((1.0 + st @ zt) / 2.0)
                wbar = (st + np.concatenate(([zt[0]], -zt[1:]))) / (2.0 * gamma)
                soc = _SocScaling(float(np.sqrt(res / rez)), wbar)
                sc.socs.append(soc)
                lam[off:off + ln] = np.sqrt(res * rez) * soc.apply_wbar(zb / rez)
            else:
                S, Z = smat(sb, n), smat(zb, n)
                Ls, Lz = safe_cholesky(S), safe_cholesky(Z)
                U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
                isq = 1.0 / np.sqrt(sig)
                R = Ls @ Vt.T * isq[None, :]
                Rinv = (U * isq[None, :]).T @ Lz.T
                sc.Rs.append(R)
                sc.Rinvs.append(Rinv)
                lam[off:off + ln] = svec(np.diag(sig))
        sc.lam = lam
        return sc

    # The four scaling applications. For nonneg and SOC blocks W is symmetric;
    # PSD blocks need the transpose pair tracked explicitly.
    def _apply(self, v: np.ndarray, mode: str) -> np.ndarray:
        dims = self.dims
        out = np.empty(dims.cone_len)
        iq = ips = 0
        for kind, off, ln, n in dims.blocks():
            vb = v[off:off + ln]
            if kind == "l":
                d = self.d_nn
                out[off:off + ln] = vb * d if mode in ("w", "wt") else vb / d
            elif kind == "q":
                soc = self.socs[iq]
                if mode in ("w", "wt"):
                    out[off:off + ln] = soc.beta * soc.apply_wbar(vb)
                else:
                    out[off:off + ln] = soc.apply_wbar_inv(vb) / soc.beta
                iq += 1
            else:
                R, Rinv = self.Rs[ips], self.Rinvs[ips]
                V = smat(vb, n)
                if mode == "w":
                    M = R.T @ V @ R
                elif mode == "wt":
                    M = R @ V @ R.T
                elif mode == "winv":
                    M = Rinv.T @ V @ Rinv
                else:  # winvt
                    M = Rinv @ V @ Rinv.T
                out[off:off + ln] = svec(0.5 * (M + M.T))
                ips += 1
        return out

    def apply_W(self, v):
        return self._apply(v, "w")

    def apply_Wt(self, v):
        return self._apply(v, "wt")

    def apply_Winv(self, v):
        return self._apply(v, "winv")

    def apply_Winvt(self, v):
        return self._apply(v, "winvt")

    def lam_div(self, u: np.ndarray) -> np.ndarray:
        """Solve lambda o x = u. lambda is diagonal in the scaled frame."""
        dims = self.dims
        out = np.empty(dims.cone_len)
        for kind, off, ln, n in dims.blocks():
            ub = u[off:off + ln]
            lb = self.lam[off:off + ln]
            if kind == "l":
                if not np.all(lb > 0):
                    raise np.linalg.LinAlgError("scaled point left the orthant")
                out[off:off + ln] = ub / lb
            elif kind == "q":
                det = lb[0] * lb[0] - lb[1:] @ lb[1:]
                if not (np.isfinite(det) and det > 0 and lb[0] > 0):
                    raise np.linalg.LinAlgError("scaled point left the cone")
                x0 = (lb[0] * ub[0] - lb[1:] @ ub[1:]) / det
                out[off] = x0
                out[off + 1:off + ln] = (ub[1:] - x0 * lb[1:]) / lb[0]
            else:
                sig = np.diag(smat(lb, n)).copy()
                U = smat(ub, n)
                denom = 0.5 * (sig[:, None] + sig[None, :])
                out[off:off + ln] = svec(U / denom)
        return out

    def scale_G(self, G: np.ndarray) -> np.ndarray:
        """Return W^{-T} G, the cone-side scaled constraint matrix."""
        dims = self.dims
        out = np.empty_like(G)
        iq = ips = 0
        for kind, off, ln, n in dims.blocks():
            blk = G[off:off + ln, :]
            if kind == "l":
                out[off:off + ln, :] = blk / self.d_nn[:, None]
            elif kind == "q":
                soc = self.socs[iq]
                a, b = soc.wbar[0], soc.wbar[1:]
                top = blk[0, :]
                rest = blk[1:, :]
                bt = b @ rest
                new_top = a * top - bt
                new_rest = (-top[None, :] * b[:, None]) + rest + (bt[None, :] / (1.0 + a)) * b[:, None]
                out[off, :] = new_top / soc.beta
                out[off + 1:off + ln, :] = new_rest / soc.beta
                iq += 1
            else:
                out[off:off + ln, :] = _psd_congruence_cols(blk, self.Rinvs[ips], n)
                ips += 1
        return out


def _psd_congruence_cols(Gblk: np.ndarray, Rinv: np.ndarray, n: int, chunk: int = 256) -> np.ndarray:
    """Apply v -> svec(Rinv mat(v) Rinv^T) to every column of Gblk."""
    from ..linalg import smat_batch, svec_batch

    d = Gblk.shape[1]
    out = np.empty_like(Gblk)
    for lo in range(0, d, chunk):
        hi = min(lo + chunk, d)
        Ms = smat_batch(Gblk[:, lo:hi].T, n)
        Ms = np.einsum("ab,kbc,dc->kad", Rinv, Ms, Rinv, optimize=True)
        Ms = 0.5 * (Ms + np.transpose(Ms, (0, 2, 1)))
        out[:, lo:hi] = svec_batch(Ms).T
    return out
