"""Structured cone programs: the Builder front end and the engine's standard form.

A ConicProgram minimizes c'x subject to an ordered list of cone blocks, each
the affine map F0 + F x of one cone, with F held sparse as (row, var, value)
triplets:
  * "l"  nonnegative rows    rhs - a'x >= 0 (inequalities), x_i >= 0 (signs),
  * "q"  second-order cone   F0 + F x in SOC,
  * "s"  LMI                 F0 + sum_i x_i F_i PSD, rows in svec form.
There are no equality rows: every program of this package is in inequality
form. Quadratic objective terms never appear here either: callers model them
with epigraph variables (SOC rows or Schur-complement LMIs).

An LMI block also records the matrix variables that enter it by a fixed
congruence (_LMIHandle.matrix_term: sym(U X V') for the design LMI's H and
the covariance programs' Q). Their columns are ordinary triplets like any
other, written from (U, V), and the records go to the engine beside the
lowered program, which builds those columns' Schur block from U and V.

lower() stacks the blocks into the engine form (c, G, h, dims) of
ipm.conelp with G = -F as one sparse CSR array and h = F0, and solve()
passes it with lmi_terms() to conelp and returns the engine's
ConicSolution as it is. No dense G is formed: only --dump-program's file
writes G out dense.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy

from ..linalg import _svec_scale, _tri_indices, matrix_basis, svec
from .cones import ConeDims
from .ipm import ConicSolution, conelp


class SolverError(RuntimeError):
    """Raised when a solve that must succeed does not reach optimality."""


@dataclass(frozen=True)
class ConeBlock:
    """F0 + F x for one block, F as (row, var, value) triplets (duplicates
    add up). dim is the block's size in ConeDims terms: the number of rows,
    or the matrix order for an "s" block."""

    kind: str
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    F0: np.ndarray
    # matrix_term records (cols, U, V) of an "s" block: these columns are
    # svec(sym(U E V')) over the basis E of a matrix variable
    terms: tuple = ()


@dataclass
class ConicProgram:
    num_vars: int
    c: np.ndarray                                  # minimize c'x
    blocks: list[ConeBlock]                        # cone order: l, then q, then s
    var_table: dict[str, tuple[int, int]]

    def lower(self):
        """The engine form (c, G, h, dims): the blocks' (-F, F0) stacked in
        order, G a canonical CSR array (duplicates summed, no stored zeros,
        sorted indices)."""
        blocks = self.blocks
        offs = np.cumsum([0] + [len(blk.F0) for blk in blocks])
        m, d = int(offs[-1]), self.num_vars
        keys, entry = np.unique(np.concatenate([(blk.rows + off) * d + blk.cols
                                                for blk, off in zip(blocks, offs)]),
                                return_inverse=True)
        # bincount adds each entry's triplets from zero in the order written
        vals = np.bincount(entry, weights=-np.concatenate([blk.vals for blk in blocks]),
                           minlength=len(keys))
        nz = vals != 0
        rows, cols = np.divmod(keys[nz], d)
        G = scipy.sparse.csr_array((vals[nz], cols, np.searchsorted(rows, np.arange(m + 1))),
                                   shape=(m, d))
        dims = ConeDims(l=sum(blk.dim for blk in blocks if blk.kind == "l"),
                        q=tuple(blk.dim for blk in blocks if blk.kind == "q"),
                        s=tuple(blk.dim for blk in blocks if blk.kind == "s"))
        return self.c, G, np.concatenate([blk.F0 for blk in blocks]), dims

    def lmi_terms(self) -> list:
        """The matrix_term records of each "s" block in cone order, with G's
        sign: G = -F, so the column sym(U E V') of F is sym((-U) E V') in G."""
        return [[(cols, -U, V) for cols, U, V in blk.terms]
                for blk in self.blocks if blk.kind == "s"]


# debug hook: when set via set_program_dump, every program passed to solve()
# is written in its lowered form to "<prefix>.<k>.json" before solving
_dump_state: list = []


def set_program_dump(prefix: str | None) -> None:
    _dump_state.clear()
    if prefix:
        _dump_state.extend([str(prefix), 0])


def program_dump_active() -> bool:
    """True while set_program_dump has a prefix: the dump files are numbered
    in this process's solve order."""
    return bool(_dump_state)


def _dump_lowered(path: str, prog: ConicProgram, c, G, h, dims) -> None:
    with open(path, "w") as fp:
        json.dump({"num_vars": prog.num_vars, "c": c.tolist(), "G": G.toarray().tolist(),
                   "h": h.tolist(), "dims": asdict(dims),
                   "var_table": prog.var_table}, fp)


def solve(prog: ConicProgram) -> ConicSolution:
    """Lower prog and run conelp on it. The tolerances are the solver's own:
    the feasibility tolerance ipm.TOL_FEAS, the duality-gap target
    ipm.gap_tolerance() (ESTIMATOR_SOLVER_TOL, else ipm.TOL_GAP) and the
    iteration limit ipm.MAX_ITER."""
    lowered = prog.lower()
    if _dump_state:
        _dump_state[1] += 1
        _dump_lowered(f"{_dump_state[0]}.{_dump_state[1]}.json", prog, *lowered)
    return conelp(*lowered, terms=prog.lmi_terms())


def solve_or_raise(prog: ConicProgram) -> ConicSolution:
    sol = solve(prog)
    if not sol.is_optimal:
        raise SolverError(f"conic solve failed: {sol.status} ({sol.message})")
    return sol


def _ints(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=int))


def _floats(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


class Builder:
    """Incremental construction of a ConicProgram.

    Variables are created in named groups; constraints reference flat variable
    indices. LMI blocks accept either dense coefficient matrices per variable
    or raw svec triplets for bulk fills.
    """

    def __init__(self):
        self._d = 0
        self._table: dict[str, tuple[int, int]] = {}
        self._obj: list[tuple[np.ndarray, np.ndarray]] = []
        self._sign: list[np.ndarray] = []
        self._ineq = _Rows()
        self._socs: list[_SocHandle] = []
        self._lmis: list[_LMIHandle] = []

    def vars(self, name: str, k: int) -> np.ndarray:
        if name in self._table:
            raise ValueError(f"duplicate variable group {name!r}")
        idx = np.arange(self._d, self._d + k)
        self._table[name] = (self._d, self._d + k)
        self._d += k
        return idx

    def objective(self, cols, vals) -> None:
        self._obj.append((_ints(cols), _floats(vals)))

    def nonneg(self, cols) -> None:
        self._sign.append(_ints(cols))

    def ineq(self, cols, vals, rhs: float) -> None:
        """a'x <= rhs."""
        self._ineq.add(cols, vals, rhs)

    def soc(self, dim: int) -> "_SocHandle":
        self._socs.append(_SocHandle(dim))
        return self._socs[-1]

    def lmi(self, order: int) -> "_LMIHandle":
        self._lmis.append(_LMIHandle(order))
        return self._lmis[-1]

    def build(self) -> ConicProgram:
        c = np.zeros(self._d)
        for cols, vals in self._obj:
            np.add.at(c, cols, vals)
        sv = np.unique(np.concatenate([np.zeros(0, dtype=int)] + self._sign))
        sign = ConeBlock("l", len(sv), np.arange(len(sv)), sv, np.ones(len(sv)), np.zeros(len(sv)))
        blocks = [self._ineq.freeze(), sign] + [hnd.freeze() for hnd in self._socs + self._lmis]
        return ConicProgram(self._d, c, blocks, dict(self._table))


class _TripletBlock:
    """A cone block under construction: triplets of F and the constant F0
    (each subclass sets kind and dim and returns F0 from _f0)."""

    def __init__(self):
        self._rows = [np.zeros(0, dtype=int)]
        self._cols = [np.zeros(0, dtype=int)]
        self._vals = [np.zeros(0)]

    def set_triplets(self, rows, cols, vals) -> None:
        """Raw entries: vals[k] at row rows[k] (svec row for an LMI) for
        variable cols[k]."""
        self._rows.append(np.asarray(rows, dtype=int))
        self._cols.append(np.asarray(cols, dtype=int))
        self._vals.append(np.asarray(vals, dtype=float))

    def freeze(self) -> ConeBlock:
        return ConeBlock(self.kind, self.dim, np.concatenate(self._rows),
                         np.concatenate(self._cols), np.concatenate(self._vals), self._f0())


class _Rows(_TripletBlock):
    """Scalar rows rhs - a'x, each >= 0."""

    kind = "l"

    def __init__(self):
        super().__init__()
        self.dim = 0
        self._rhs: list[float] = []

    def add(self, cols, vals, rhs: float) -> None:
        cols = _ints(cols)
        self.set_triplets(np.full(len(cols), self.dim), cols, -_floats(vals))
        self._rhs.append(float(rhs))
        self.dim += 1

    def _f0(self) -> np.ndarray:
        return np.array(self._rhs, dtype=float)


class _SocHandle(_TripletBlock):
    kind = "q"

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self._const = np.zeros(dim)

    def set_row(self, row: int, cols, vals, const: float = 0.0) -> None:
        cols = _ints(cols)
        self.set_triplets(np.full(len(cols), row), cols, _floats(vals))
        self._const[row] += const

    def _f0(self) -> np.ndarray:
        return self._const


class _LMIHandle(_TripletBlock):
    """One LMI block F0 + sum_i x_i F_i >= 0.

    Terms are entered as dense symmetric matrices per variable (term), as raw
    svec triplets (set_triplets), or for a matrix variable entering by a
    fixed congruence, from its factors (matrix_term).
    """

    kind = "s"

    def __init__(self, order: int):
        super().__init__()
        self.dim = self.order = order
        self._F0 = np.zeros((order, order))
        self._plain: list[np.ndarray] = []
        self._terms: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def const(self, F0: np.ndarray) -> None:
        self._F0 = self._F0 + np.asarray(F0, dtype=float)

    def set_triplets(self, rows, cols, vals) -> None:
        super().set_triplets(rows, cols, vals)
        self._plain.append(self._cols[-1])

    def term(self, col: int, Fi: np.ndarray) -> None:
        v = svec(np.asarray(Fi, dtype=float))
        nz = np.nonzero(v)[0]
        self.set_triplets(nz, np.full(len(nz), col), v[nz])

    def matrix_term(self, cols, U: np.ndarray, V: np.ndarray) -> None:
        """Add sym(U X V') = (U X V' + V X' U') / 2 for a matrix variable X
        whose entries are the variables cols: p x q in row-major order, or
        symmetric p x p in svec order (see linalg.matrix_basis), with U
        (order x p) and V (order x q) fixed.

        The triplets of each column svec(sym(U E V')) are written from U and
        V here, and (cols, U, V) is recorded on the ConeBlock: the IPM builds
        the Schur block of these columns from U and V by Kronecker products
        instead of eigendecomposing each column. A variable entered here may
        have no other entries in this LMI."""
        cols = _ints(cols)
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        if len(np.unique(cols)) != len(cols):
            raise ValueError("matrix_term needs distinct variables")
        if U.shape[0] != self.order or V.shape[0] != self.order:
            raise ValueError(f"U and V need {self.order} rows, got {U.shape[0]} and {V.shape[0]}")
        q = V.shape[1]
        a, b, div = matrix_basis(U.shape[1], q, len(cols))
        # only svec entries (r, c) with U and V nonzero in rows r and c, or in
        # c and r, can be nonzero
        ri, ci = _tri_indices(self.order)
        uz, vz = np.any(U != 0, axis=1), np.any(V != 0, axis=1)
        keep = np.flatnonzero((uz[ri] & vz[ci]) | (uz[ci] & vz[ri]))
        ri, ci = ri[keep], ci[keep]

        def prod(r, c):
            # entry (r, c) of U E V' for each column, E = e_a e_b' (+ e_b e_a')
            O = (U[r][:, :, None] * V[c][:, None, :]).reshape(len(r), -1)
            return O if div is None else O[:, a * q + b] + O[:, b * q + a]

        M = np.zeros((len(keep), len(cols)))
        for r, c in ((ri, ci), (ci, ri)):
            if (uz[r] & vz[c]).any():
                M += prod(r, c)
        M /= 2
        if div is not None:
            M /= div
        M *= _svec_scale(self.order)[keep, None]
        rows, cc = np.nonzero(M)
        super().set_triplets(keep[rows], cols[cc], M[rows, cc])
        self._terms.append((cols, U, V))

    def freeze(self) -> ConeBlock:
        if self._terms and self._plain and np.isin(
                np.concatenate([t[0] for t in self._terms]), np.concatenate(self._plain)).any():
            raise ValueError("a matrix_term variable has other entries in the same LMI")
        return replace(super().freeze(), terms=tuple(self._terms))

    def _f0(self) -> np.ndarray:
        return svec(self._F0)
