"""Cone bookkeeping and Nesterov-Todd scaling operations.

The engine works over a product cone K = R_+^l x SOC(q_1) x ... x PSD(s_1) x ...
Vectors in cone space are laid out [nonneg | soc blocks | psd blocks], with PSD
blocks stored in svec form (see linalg.svec).

Scaling conventions: W is the NT scaling with lambda = W z = W^{-T} s for
strictly interior s, z. For the nonneg orthant W is diagonal, for SOC blocks it
is a hyperbolic Householder-like symmetric matrix applied in O(dim), and for
PSD blocks it acts by congruence, W v = svec(R^T mat(v) R). There
lambda = diag(sigma) = Lambda, so T_s = Lambda^{-1/2} Rinv and
T_z = Lambda^{-1/2} R' map S and Z to I, and max_step finds where
s + alpha ds or z + alpha dz leaves the cone from the eigenvalues of
T_s DS T_s' or T_z DZ T_z' (as CVXOPT's conelp steps from the scaled point):
Scaling.compute forms both frames once per iteration, so the step length
factors neither s nor z.

Scaling holds one list of per-block factors aligned with ConeDims.blocks(),
and one loop over it, Scaling.apply, applies W, W', W^{-1} or W^{-T} to a
cone vector or to the columns of a (cone_len, k) array.

The IPM's Schur block G'(W'W)^{-1}G is never built from a dense W^{-T}G.
ColumnFactors splits G once per solve into per-block pieces: orthant rows,
an SOC block's first row g0, the sparse rest of its rows and the nonzeros
of its constant G_b'JG_b, and for an LMI the factors (U, V) of the columns a
matrix variable X fills as sym(U X V') plus low-rank eigenvector terms of
every other column, grouped by column. Scaling.scale_G assembles the block
from them each iteration, in place in one buffer: a diagonal weighting; for
an SOC block, which CVXOPT's conelp keeps in factored form as
beta^2 (2 w w' - J), one BLAS rank-one update and a subtraction at the
nonzeros of G_b'JG_b (a diagonal plus low-rank split of the SOC's columns, as
in Goldfarb and Scheinberg's product-form Cholesky for SOCP); and for an LMI
the squared Gram of Y = R^{-1} Q summed over each column's terms by one
np.add.reduceat per axis (the low-rank data trick of DSDP, Benson, Ye, Zhang
2000), Kronecker products of the scaled factors for each pair of
matrix-variable terms (the symmetric Kronecker product of Todd, Toh, Tutuncu
1998 for a symmetric X), and the products of the two between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dger

from ..linalg import matrix_basis, safe_cholesky, smat, svec, svec_len

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


def max_step(scaling: "Scaling", x: np.ndarray, dx: np.ndarray, side: str) -> float:
    """Largest alpha >= 0 such that x + alpha*dx stays in the cone, for the
    iterate x = s (side "s") or x = z (side "z") that scaling was computed at.

    x must be strictly interior. Returns np.inf when the ray never exits.
    A PSD block reads its frame T_s or T_z from scaling: T X T' = I, so
    X + alpha D is PSD iff I + alpha T D T' is.
    """
    frame = 2 if side == "s" else 3
    alpha = np.inf
    for (kind, off, ln, n), blk in zip(scaling.dims.blocks(), scaling.blocks):
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
            T = blk[frame]
            # eigvalsh reads the lower triangle only
            lam_min = float(np.linalg.eigvalsh(T @ smat(db, n) @ T.T)[0])
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
    (beta, wbar) for an SOC block, (R, Rinv, T_s, T_z) for a PSD block,
    with T_s = Lambda^{-1/2} Rinv and T_z = Lambda^{-1/2} R' the frames in
    which S and Z are I (max_step).
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
                blocks.append((np.eye(n),) * 4)
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
                # max_step's frames: T_s S T_s' = T_z Z T_z' = I
                blocks.append((R, Rinv, isq[:, None] * Rinv, isq[:, None] * R.T))
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

    def scale_G(self, fac: "ColumnFactors", H: np.ndarray) -> np.ndarray:
        """Return G'(W'W)^{-1}G = (W^{-T}G)'(W^{-T}G), the Schur block of the
        KKT system, summed block by block from fac without forming W^{-T}G:
          * orthant: G_b' diag(d)^{-2} G_b;
          * SOC: (W_b'W_b)^{-1} = (2 u u' - J) / beta^2 with u = J wbar, so the
            term is (2 v v' - C) / beta^2 with v = G_b'u = wbar_0 g0 - G~'wbar_1:
            a rank-one update in place, then C subtracted at its nonzeros;
          * PSD: Tr(G_i P G_j P) with P = Rinv'Rinv, see _lmi_schur.
        H, a C-ordered (d, d) array (the SOC update writes to its rows in
        place), is zero-filled, assembled into and returned.
        """
        d = fac.d
        if H.shape != (d, d) or not H.flags.c_contiguous:
            raise ValueError(f"H must be a C-ordered {(d, d)} array")
        H.fill(0.0)
        for (kind, *_), blk, fb in zip(self.dims.blocks(), self.blocks, fac.blocks):
            if fb is None:
                continue
            if kind == "l":
                span, Gb = fb
                Gd = Gb / blk[:, None]
                H[span, span] += Gd.T @ Gd
            elif kind == "q":
                span, g0, Gt, (rows, cols, C) = fb
                beta, wbar = blk
                v = wbar[0] * g0 - Gt @ wbar[1:]
                x = np.zeros(d)
                x[span] = v
                # H[span, :] += (2 / beta^2) v x' as a rank-one update of the
                # F-ordered transpose of those rows, in place
                dger(2.0 / (beta * beta), x, v, a=H[span].T, overwrite_a=True)
                H[rows, cols] -= C / (beta * beta)
            else:
                _lmi_schur(H, blk[1], *fb)
        return H


@dataclass(frozen=True)
class ColumnFactors:
    """The columns of G per cone block, in the form Scaling.scale_G builds
    G'(W'W)^{-1}G from; computed once per solve.

    blocks follows dims.blocks(), with None for a block no column enters.
    An orthant or SOC entry starts with span, the slice of columns from the
    block's first nonzero column to its last, and goes on with, for
    G_b = G[block, span]:
      * orthant: G_b;
      * SOC: its first row g0, the rest G~ as a CSR G~' and
        (rows, cols, vals), the nonzeros of C = G_b' J G_b = g0 g0' - G~'G~
        (J = diag(1, -1, ..., -1)) at their rows and columns of the Schur
        block. Both come from sparse products: an epigraph's C is diagonal.
    An LMI entry is (eig, terms, F) from _lmi_factors.
    """

    d: int
    blocks: list

    @classmethod
    def of(cls, G: np.ndarray, dims: ConeDims, terms=()) -> "ColumnFactors":
        """terms lists, per LMI block in cone order, the (cols, U, V) of the
        columns that are svec(sym(U E V')) over the basis E of a matrix
        variable (see linalg.matrix_basis), with G's sign; those columns are
        not eigendecomposed."""
        blocks = []
        lmi_terms = iter(terms)
        for kind, off, ln, n in dims.blocks():
            Gb = G[off:off + ln]
            nonzero = np.any(Gb != 0, axis=0)
            if kind == "s":
                blocks.append(_lmi_factors(Gb, n, nonzero, next(lmi_terms, ())))
                continue
            cols = np.flatnonzero(nonzero)
            if not len(cols):
                blocks.append(None)
                continue
            span = slice(cols[0], cols[-1] + 1)
            Gb = Gb[:, span]
            if kind == "l":
                blocks.append((span, Gb))
                continue
            g0 = scipy.sparse.csr_array(Gb[:1])
            Gt = scipy.sparse.csr_array(Gb[1:].T)
            C = scipy.sparse.coo_array(g0.T @ g0 - Gt @ Gt.T)
            nz = C.data != 0
            blocks.append((span, Gb[0].copy(), Gt,
                           (C.row[nz] + span.start, C.col[nz] + span.start, C.data[nz])))
        return cls(G.shape[1], blocks)


def _index(cols: np.ndarray):
    """cols as a slice when they are consecutive, else as they are."""
    if np.all(np.diff(cols) == 1):
        return slice(int(cols[0]), int(cols[-1]) + 1)
    return cols


def _add(H: np.ndarray, rows, cols, M: np.ndarray) -> None:
    if isinstance(rows, slice) and isinstance(cols, slice):
        H[rows, cols] += M
    else:
        ar = np.arange(len(H))
        H[np.ix_(ar[rows], ar[cols])] += M


def _lmi_factors(Gb: np.ndarray, n: int, nonzero: np.ndarray, terms):
    """(eig, terms, F) of an LMI block, or None when no column enters it.

    F stacks the eigen-terms Q of _psd_terms and then U and V of every
    recorded (cols, U, V), so one Gram of Rinv F per iteration serves the
    whole block. terms holds (idx, fold, u, v) per record: idx its columns
    (_index); fold None for a row-major X, or, for a symmetric X, the
    row-major positions of (a, b) and (b, a) and div of its svec basis; u and
    v the slices of U and V in F past Q. eig is None when every nonzero
    column is a term column, else (idx, sgn, starts): the columns from the
    first nonzero non-term column to the last, less the term columns, and
    the signs of their eigen-terms and where each column's terms start in Q.
    """
    in_term = np.zeros(len(nonzero), dtype=bool)
    recorded, factors, off = [], [], 0
    for cols, U, V in terms:
        in_term[cols] = True
        p, q = U.shape[1], V.shape[1]
        a, b, div = matrix_basis(p, q, len(cols))
        recorded.append((_index(cols), None if div is None else (a * p + b, b * p + a, div),
                         slice(off, off + p), slice(off + p, off + p + q)))
        factors += [U, V]
        off += p + q
    cols = np.flatnonzero(nonzero & ~in_term)
    eig = None
    if len(cols):
        e = np.arange(cols[0], cols[-1] + 1)
        e = e[~in_term[e]]
        Q, sgn, starts = _psd_terms(Gb[:, e], n)
        eig = (_index(e), sgn, starts)
        factors.insert(0, Q)
    elif not recorded:
        return None
    return eig, recorded, np.hstack(factors)


def _fold(M: np.ndarray, fold, axis: int) -> np.ndarray:
    """M with its axis over the row-major entries (a, b) of a matrix
    variable folded onto the variable's own basis: (M_ab + M_ba) / div for a
    symmetric one, M itself for a row-major one."""
    if fold is None:
        return M
    ab, ba, div = fold
    out = M.take(ab, axis)
    out += M.take(ba, axis)
    out /= div if axis else div[:, None]
    return out


def _add_folded(H: np.ndarray, ti, tj, fi, fj, T: np.ndarray, mirror: bool) -> None:
    """Add T, over the row-major entries of two matrix variables, folded onto
    their bases to H[ti, tj], and its transpose to H[tj, ti] when mirror."""
    T = _fold(_fold(T, fi, 0), fj, 1)
    _add(H, ti, tj, T)
    if mirror:
        _add(H, tj, ti, T.T)


def _lmi_schur(H: np.ndarray, Rinv: np.ndarray, eig, terms, F) -> None:
    """Add an LMI block's part of the Schur block, Tr(G_i P G_j P) with
    P = Rinv'Rinv, to H (eig, terms and F from _lmi_factors). All of it comes
    from the Gram of Rinv F:
      * two eigen columns G_i = sum_r w_r q_r q_r': with y_r = Rinv q_r,
        sum_{r in i, s in j} w_r w_s (y_r'y_s)^2 (Fujisawa, Kojima, Nakata
        1997), the squared Gram of Y reduced over each column's terms;
      * columns G_ab = sym(U E_ab V') and G_cd = sym(U2 E_cd V2') of two
        terms: with U~ = Rinv U and so on, (K1_ac K2_bd + X_ad Y_bc) / 2 for
        K1 = U~'U2~, K2 = V~'V2~, X = U~'V2~, Y = V~'U2~: kron(K1, K2) plus a
        permuted outer product of X and Y, folded onto the svec basis of a
        symmetric variable (for U = V = U2 = V2 this is the symmetric
        Kronecker product of K1 with itself, Todd, Toh, Tutuncu 1998);
      * an eigen column i against G_ab: sum_{r in i} w_r (U~'y_r)_a (V~'y_r)_b.
    """
    A = Rinv @ F
    # a copy: numpy's syrk path for A'A fills the lower triangle with a
    # strided copy, slower than gemm for thousands of terms
    Gm = A.T @ A.copy()
    N = 0
    if eig is not None:
        idx, sgn, starts = eig
        N = len(sgn)
        # squared in place: the term part of Gm does not read this corner
        Z = Gm[:N, :N]
        Z *= Z
        Z *= sgn[:, None]
        # sum the rows, then the columns, of each column's terms
        Z = np.add.reduceat(Z, starts, axis=0) * sgn
        _add(H, idx, idx, np.add.reduceat(Z, starts, axis=1))
    YW, Gw = Gm[:N, N:], Gm[N:, N:]
    Gh = 0.5 * Gw
    for i, (ti, fi, ui, vi) in enumerate(terms):
        if N:
            C = (YW[:, ui, None] * (YW[:, None, vi] * sgn[:, None, None])).reshape(N, -1)
            C = np.add.reduceat(_fold(C, fi, 1), starts, axis=0)
            _add(H, idx, ti, C)
            _add(H, ti, idx, C.T)
        rows = (ui.stop - ui.start) * (vi.stop - vi.start)
        for j, (tj, fj, uj, vj) in enumerate(terms[i:], i):
            # T[(a, b), (c, d)] = K1[a, c] K2[b, d] + X[a, d] Y[b, c], halved
            T = Gh[ui, uj][:, None, :, None] * Gw[vi, vj][None, :, None, :]
            if fi is None and fj is None:
                # add the two products one at a time: a second large
                # temporary alive at once costs more in fresh pages than
                # the arithmetic
                _add_folded(H, ti, tj, fi, fj, T.reshape(rows, -1), j != i)
                del T
                T = Gh[ui, vj][:, None, None, :] * Gw[vi, uj][None, :, :, None]
            else:
                # folding costs more: fold the sum once
                T += Gh[ui, vj][:, None, None, :] * Gw[vi, uj][None, :, :, None]
            _add_folded(H, ti, tj, fi, fj, T.reshape(rows, -1), j != i)


def _psd_terms(Gb: np.ndarray, n: int):
    """Low-rank terms of the columns of an LMI block: column i is svec of
    F_i = sum_r w_r q_r q_r' over its eigenpairs, those under RANK_TOL of the
    largest |w| dropped (a zero column keeps one zero term).

    Returns Q, whose columns are sqrt|w_r| q_r, sgn = sign(w_r), and starts.
    Each column's terms are contiguous and the columns come in order: column
    i owns Q[:, starts[i]:starts[i + 1]], so np.add.reduceat(M, starts)
    sums the rows of M over each column's terms.
    """
    Qs, sgns, ranks = [], [], []
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
        # each column's terms consecutively, the columns in order
        keep = np.arange(rank.max()) < rank[:, None]
        w = lam[:, :rank.max()][keep]
        Qs.append(np.swapaxes(V, 1, 2)[keep].T * np.sqrt(np.abs(w)))
        sgns.append(np.sign(w))
        ranks.append(rank)
    rank = np.concatenate(ranks)
    return np.hstack(Qs), np.concatenate(sgns), np.cumsum(rank) - rank
