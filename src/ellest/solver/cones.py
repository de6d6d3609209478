"""Cone bookkeeping and Nesterov-Todd scaling operations.

The engine works over a product cone K = R_+^l x SOC(q_1) x ... x PSD(s_1) x ...
Vectors in cone space are laid out [nonneg | soc blocks | psd blocks], with PSD
blocks stored in svec form (see linalg.svec).

Scaling conventions: W is the NT scaling with lambda = W z = W^{-T} s for
strictly interior s, z. For the nonneg orthant W is diagonal, for SOC blocks it
is a hyperbolic Householder-like symmetric matrix applied in O(dim), and for
PSD blocks it acts by congruence, W v = svec(R^T mat(v) R).

Scaling holds one list of per-block factors aligned with ConeDims.blocks(),
and one loop over it, Scaling.apply, applies W, W', W^{-1} or W^{-T} to a
cone vector or to the columns of a (cone_len, k) array.

The IPM's Schur block G'(W'W)^{-1}G is never built from a dense W^{-T}G.
ColumnFactors splits G once per solve into per-block pieces: orthant rows, SOC
rows with their constant G_b'JG_b, and low-rank eigenvector terms of every
PSD column. Scaling.scale_G assembles the block from them each iteration: a
diagonal weighting, a rank-2 update, and the squared Gram of Y = R^{-1} Q
summed over each column's terms (the low-rank data trick of DSDP, Benson,
Ye, Zhang 2000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import safe_cholesky, smat, svec, svec_len

# Columns per batch of eigh calls in _psd_terms: bounds the (chunk, n, n) temporaries.
PSD_CHUNK = 256
# Eigenvalues of a PSD column below this fraction of its largest are dropped.
RANK_TOL = 1e-13


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


def _reflect(a: float, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply [[a, b'], [b, I + b b'/(1 + a)]] to a vector or to each column.

    With (a, b) = wbar this is the SOC block of W / beta; with (a, -b) it is
    the block of W^{-1} * beta.
    """
    bt = b @ v[1:]
    out = np.empty_like(v)
    out[0] = a * v[0] + bt
    out[1:] = np.multiply.outer(b, v[0]) + v[1:] + np.multiply.outer(b, bt / (1.0 + a))
    return out


@dataclass
class Scaling:
    """NT scaling state for one (s, z) pair, plus lambda = W z.

    blocks follows dims.blocks(): the diagonal d of W for the orthant,
    (beta, wbar) for an SOC block, (R, Rinv) for a PSD block.
    """

    dims: ConeDims
    blocks: list
    lam: np.ndarray

    @classmethod
    def identity(cls, dims: ConeDims) -> "Scaling":
        e = dims.identity()
        blocks = []
        for kind, off, ln, n in dims.blocks():
            if kind == "l":
                blocks.append(e[off:off + ln])
            elif kind == "q":
                blocks.append((1.0, e[off:off + ln]))
            else:
                blocks.append((np.eye(n), np.eye(n)))
        return cls(dims, blocks, dims.identity())

    @classmethod
    def compute(cls, dims: ConeDims, s: np.ndarray, z: np.ndarray) -> "Scaling":
        blocks = []
        lam = np.empty(dims.cone_len)
        for kind, off, ln, n in dims.blocks():
            sb, zb = s[off:off + ln], z[off:off + ln]
            if kind == "l":
                if sb.min(initial=np.inf) <= 0 or zb.min(initial=np.inf) <= 0:
                    raise np.linalg.LinAlgError("nonneg iterate left the interior")
                blocks.append(np.sqrt(sb / zb))
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
                blocks.append((float(np.sqrt(res / rez)), wbar))
                lam[off:off + ln] = np.sqrt(res * rez) * _reflect(wbar[0], wbar[1:], zt)
            else:
                S, Z = smat(sb, n), smat(zb, n)
                Ls, Lz = safe_cholesky(S), safe_cholesky(Z)
                U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
                isq = 1.0 / np.sqrt(sig)
                R = Ls @ Vt.T * isq[None, :]
                Rinv = (U * isq[None, :]).T @ Lz.T
                blocks.append((R, Rinv))
                lam[off:off + ln] = svec(np.diag(sig))
        return cls(dims, blocks, lam)

    def apply(self, v: np.ndarray, mode: str) -> np.ndarray:
        """W v, W' v, W^{-1} v or W^{-T} v for mode w, wt, winv or winvt.

        v is a cone vector or a (cone_len, k) array scaled column by column.
        Orthant and SOC blocks of W are symmetric; a PSD block acts by
        congruence, W v = svec(R' mat(v) R), so its transpose pair matters.
        """
        out = np.empty_like(v)
        fwd = mode in ("w", "wt")
        for (kind, off, ln, n), blk in zip(self.dims.blocks(), self.blocks):
            vb = v[off:off + ln]
            if kind == "l":
                out[off:off + ln] = (vb.T * blk).T if fwd else (vb.T / blk).T
            elif kind == "q":
                beta, wbar = blk
                if fwd:
                    out[off:off + ln] = beta * _reflect(wbar[0], wbar[1:], vb)
                else:
                    out[off:off + ln] = _reflect(wbar[0], -wbar[1:], vb) / beta
            else:
                R = blk[0] if fwd else blk[1]
                L, Rr = (R, R.T) if mode in ("wt", "winvt") else (R.T, R)
                M = L @ (smat(vb.T, n) @ Rr)
                out[off:off + ln] = svec(0.5 * (M + np.swapaxes(M, -1, -2))).T
        return out

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

    def scale_G(self, fac: "ColumnFactors") -> np.ndarray:
        """Return G'(W'W)^{-1}G = (W^{-T}G)'(W^{-T}G), the Schur block of the
        KKT system, summed block by block from fac without forming W^{-T}G:
          * orthant: G_b' diag(d)^{-2} G_b;
          * SOC: (W_b'W_b)^{-1} = (2 u u' - J) / beta^2 with u = J wbar, so the
            term is (2 v v' - C) / beta^2 with v = G_b'u;
          * PSD: with P = Rinv'Rinv and y_r = Rinv q_r, entry (i, j) is
            Tr(F_i P F_j P) = sum_{r in i, s in j} w_r w_s (y_r'y_s)^2
            (Fujisawa, Kojima, Nakata 1997): the squared Gram of Y summed
            over each column's terms.
        """
        H = np.zeros((fac.d, fac.d))
        for (kind, *_), blk, fb in zip(self.dims.blocks(), self.blocks, fac.blocks):
            if fb is None:
                continue
            span, *data = fb
            if kind == "l":
                Gd = data[0] / blk[:, None]
                H[span, span] += Gd.T @ Gd
            elif kind == "q":
                beta, wbar = blk
                Gb, C = data
                v = wbar[0] * Gb[0] - wbar[1:] @ Gb[1:]
                H[span, span] += (2.0 * np.outer(v, v) - C) / (beta * beta)
            else:
                Q, sgn, layers = data
                Y = blk[1] @ Q
                # a copy: numpy's syrk path for Y'Y fills the lower triangle
                # with a strided copy, slower than gemm for thousands of terms
                Z = Y.T @ Y.copy()
                Z *= Z
                Z *= sgn[:, None]
                # sum the rows, then the columns (as rows of the transpose),
                # of each column's terms
                k = span.stop - span.start
                for cols, terms in layers:
                    Z[cols] += Z[terms]
                Z = np.multiply(Z[:k].T, sgn[:, None], order="C")
                for cols, terms in layers:
                    Z[cols] += Z[terms]
                H[span, span] += Z[:k]
        return H


@dataclass(frozen=True)
class ColumnFactors:
    """The columns of G per cone block, in the form Scaling.scale_G builds
    G'(W'W)^{-1}G from; computed once per solve.

    blocks follows dims.blocks(), with None for a block no column enters.
    Each other entry starts with span, the slice of columns from the block's
    first nonzero column to its last, and goes on with, for G_b = G[block, span]:
      * orthant: G_b;
      * SOC: G_b and C = G_b' J G_b with J = diag(1, -1, ..., -1);
      * PSD: Q, sgn and layers from _psd_terms.
    """

    d: int
    blocks: list

    @classmethod
    def of(cls, G: np.ndarray, dims: ConeDims) -> "ColumnFactors":
        blocks = []
        for kind, off, ln, n in dims.blocks():
            Gb = G[off:off + ln]
            cols = np.flatnonzero(np.any(Gb != 0, axis=0))
            if not len(cols):
                blocks.append(None)
                continue
            span = slice(cols[0], cols[-1] + 1)
            Gb = Gb[:, span]
            if kind == "l":
                blocks.append((span, Gb))
            elif kind == "q":
                JG = Gb.copy()
                JG[1:] *= -1.0
                blocks.append((span, Gb, Gb.T @ JG))
            else:
                blocks.append((span, *_psd_terms(Gb, n)))
        return cls(G.shape[1], blocks)


def _psd_terms(Gb: np.ndarray, n: int):
    """Low-rank terms of the columns of an LMI block: column i is svec of
    F_i = sum_r w_r q_r q_r' over its eigenpairs, those under RANK_TOL of the
    largest |w| dropped (a zero column keeps one zero term).

    Returns Q, whose columns are sqrt|w_r| q_r, sgn = sign(w_r), and layers.
    The terms are laid out in layers: layer t holds the t-th term of every
    column of rank > t, so layer 0 is the columns themselves, in order, and
    the terms of layer t >= 1 sit in the slice terms and add to columns cols
    (a slice when contiguous). layers lists (cols, terms) for t >= 1.
    """
    chunks = []
    for lo in range(0, Gb.shape[1], PSD_CHUNK):
        F = smat(Gb[:, lo:lo + PSD_CHUNK].T, n)
        # eigh on the rows a column touches, batched over columns touching
        # equally many: most LMI columns are sparse
        touched = np.any(F != 0, axis=2)
        size = touched.sum(axis=1)
        lam, V = np.zeros(F.shape[:2]), np.zeros(F.shape)
        for m in np.unique(size[size > 0]):
            i = np.flatnonzero(size == m)
            rows = np.nonzero(touched[i])[1].reshape(len(i), m)
            lam[i, :m], vecs = np.linalg.eigh(F[i[:, None, None], rows[:, :, None], rows[:, None, :]])
            V[i[:, None, None], rows[:, :, None], np.arange(m)] = vecs
        order = np.argsort(-np.abs(lam), axis=1)
        lam = np.take_along_axis(lam, order, axis=1)
        rank = np.maximum(np.sum(np.abs(lam) > RANK_TOL * np.abs(lam[:, :1]), axis=1), 1)
        V = np.take_along_axis(V, order[:, None, :rank.max()], axis=2)
        chunks.append((lo, rank, lam, V))
    Qs, sgns, layers, off = [], [], [], 0
    for t in range(max(rank.max() for _, rank, _, _ in chunks)):
        cols, w, q = [], [], []
        for lo, rank, lam, V in chunks:
            i = np.flatnonzero(rank > t)
            if len(i):
                cols.append(lo + i)
                w.append(lam[i, t])
                q.append(V[i, :, t])
        cols, w = np.concatenate(cols), np.concatenate(w)
        Qs.append(np.concatenate(q).T * np.sqrt(np.abs(w)))
        sgns.append(np.sign(w))
        if t:
            if cols[-1] - cols[0] + 1 == len(cols):
                cols = slice(cols[0], cols[-1] + 1)
            layers.append((cols, slice(off, off + len(w))))
        off += len(w)
    return np.hstack(Qs), np.concatenate(sgns), layers
