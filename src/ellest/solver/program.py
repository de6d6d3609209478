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

lower() is the single place that densifies: it stacks the blocks into the
engine form (c, G, h, dims) of ipm.conelp with G = -F, h = F0, and solve()
returns the engine's ConicSolution as it is.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ..linalg import _tri_indices, svec
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


@dataclass
class ConicProgram:
    num_vars: int
    c: np.ndarray                                  # minimize c'x
    blocks: list[ConeBlock]                        # cone order: l, then q, then s
    var_table: dict[str, tuple[int, int]]

    def lower(self):
        """The engine form (c, G, h, dims): the blocks' (-F, F0) stacked in order."""
        blocks = self.blocks
        offs = np.cumsum([0] + [len(blk.F0) for blk in blocks])
        G = np.zeros((offs[-1], self.num_vars))
        np.add.at(G, (np.concatenate([blk.rows + off for blk, off in zip(blocks, offs)]),
                      np.concatenate([blk.cols for blk in blocks])),
                  -np.concatenate([blk.vals for blk in blocks]))
        dims = ConeDims(l=sum(blk.dim for blk in blocks if blk.kind == "l"),
                        q=tuple(blk.dim for blk in blocks if blk.kind == "q"),
                        s=tuple(blk.dim for blk in blocks if blk.kind == "s"))
        return self.c, G, np.concatenate([blk.F0 for blk in blocks]), dims


# debug hook: when set via set_program_dump, every program passed to solve()
# is written in its lowered form to "<prefix>.<k>.json" before solving
_dump_state: list = []


def set_program_dump(prefix: str | None) -> None:
    _dump_state.clear()
    if prefix:
        _dump_state.extend([str(prefix), 0])


def _dump_lowered(path: str, prog: ConicProgram, c, G, h, dims) -> None:
    with open(path, "w") as fp:
        json.dump({"num_vars": prog.num_vars, "c": c.tolist(), "G": G.tolist(),
                   "h": h.tolist(), "dims": asdict(dims),
                   "var_table": prog.var_table}, fp)


def solve(prog: ConicProgram, **kw) -> ConicSolution:
    """Lower prog and run conelp on it (kw: tol_gap; the feasibility tolerance
    and the iteration limit are the constants ipm.TOL_FEAS and ipm.MAX_ITER)."""
    lowered = prog.lower()
    if _dump_state:
        _dump_state[1] += 1
        _dump_lowered(f"{_dump_state[0]}.{_dump_state[1]}.json", prog, *lowered)
    return conelp(*lowered, **kw)


def solve_or_raise(prog: ConicProgram, **kw) -> ConicSolution:
    sol = solve(prog, **kw)
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

    Terms are entered either as dense symmetric matrices (term) or as
    entry-level triplets (term_entries) where (i, j) refers to the symmetric
    matrix position; both (i,j) and (j,i) are implied, svec scaling is applied
    here.
    """

    kind = "s"

    def __init__(self, order: int):
        super().__init__()
        self.dim = self.order = order
        self._F0 = np.zeros((order, order))

    def const(self, F0: np.ndarray) -> None:
        self._F0 = self._F0 + np.asarray(F0, dtype=float)

    def term(self, col: int, Fi: np.ndarray) -> None:
        v = svec(np.asarray(Fi, dtype=float))
        nz = np.nonzero(v)[0]
        self.set_triplets(nz, np.full(len(nz), col), v[nz])

    def map_svec(self, cols, M: np.ndarray) -> None:
        """Insert a whole linear map: column c of M is the svec contribution
        of variable cols[c] to this block."""
        rows, cc = np.nonzero(M)
        self.set_triplets(rows, np.asarray(cols, dtype=int)[cc], M[rows, cc])

    def term_symmetric_block(self, cols) -> None:
        """Add a symmetric matrix variable (given by its svec-ordered flat
        variable indices cols) to the leading diagonal sub-block."""
        s = int(round((np.sqrt(8 * len(cols) + 1) - 1) / 2))
        if s * (s + 1) // 2 != len(cols):
            raise ValueError("cols length is not a triangular number")
        ai, bi = _tri_indices(s)
        self.set_triplets(bi * (bi + 1) // 2 + ai, cols, np.ones(len(cols)))

    def term_entries(self, mat_i, mat_j, cols, vals) -> None:
        """Bulk insert: coefficient vals[k] at symmetric entry (mat_i[k], mat_j[k])
        of the LMI for variable cols[k]."""
        mat_i, mat_j = np.asarray(mat_i, dtype=int), np.asarray(mat_j, dtype=int)
        lo = np.minimum(mat_i, mat_j)
        hi = np.maximum(mat_i, mat_j)
        scale = np.where(lo == hi, 1.0, np.sqrt(2.0))
        self.set_triplets(hi * (hi + 1) // 2 + lo, cols, np.asarray(vals, dtype=float) * scale)

    def _f0(self) -> np.ndarray:
        return svec(self._F0)
