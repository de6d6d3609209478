"""Structured cone programs and their solutions.

A ConicProgram is a minimization of c'x over the intersection of
  * sign constraints        x_i >= 0 for i in a designated index set,
  * linear inequalities     G_ineq x <= h_ineq,
  * linear equalities       E x = f,
  * second-order-cone rows  D_j x + e_j in SOC,
  * LMI blocks              F_j(x) = F_j0 + sum_i x_i F_ji  PSD,
with LMI blocks held in svec form (columns are svec(F_ji)) so assembly stays
vectorized. Quadratic objective terms never appear here: callers model them
with epigraph variables (SOC rows or Schur-complement LMIs).

Solving lowers everything onto the cone engine in ipm.py; the solution
keeps the primal point and, for an infeasible program, the engine's
certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..linalg import svec, svec_len
from .cones import ConeDims
from .ipm import EngineResult, conelp

DEFAULT_TOL_GAP = 1e-8
DEFAULT_TOL_FEAS = 1e-8
DEFAULT_MAX_ITER = 200


class SolverError(RuntimeError):
    """Raised when a solve that must succeed does not reach optimality."""

    def __init__(self, message: str, result: "ConicSolution | None" = None):
        super().__init__(message)
        self.result = result


@dataclass
class ConicProgram:
    num_vars: int
    c: np.ndarray                                  # minimize c'x
    sign_vars: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    G_ineq: np.ndarray | None = None               # (m, d)
    h_ineq: np.ndarray | None = None
    E: np.ndarray | None = None                    # (p, d)
    f: np.ndarray | None = None
    socs: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)   # (D, e)
    lmis: list[tuple[np.ndarray, np.ndarray, int]] = field(default_factory=list)  # (Fmat, f0, order)
    var_table: dict[str, tuple[int, int]] = field(default_factory=dict)

    def lower(self):
        """Assemble the engine-standard form (c, G, h, dims, A, b)."""
        d = self.num_vars
        G_parts, h_parts = [], []
        m_in = 0 if self.G_ineq is None else self.G_ineq.shape[0]
        if m_in:
            G_parts.append(self.G_ineq)
            h_parts.append(self.h_ineq)
        n_sign = len(self.sign_vars)
        if n_sign:
            S = np.zeros((n_sign, d))
            S[np.arange(n_sign), self.sign_vars] = -1.0
            G_parts.append(S)
            h_parts.append(np.zeros(n_sign))
        q = []
        for D, e in self.socs:
            G_parts.append(-D)
            h_parts.append(e)
            q.append(D.shape[0])
        s = []
        for Fmat, f0, order in self.lmis:
            G_parts.append(-Fmat)
            h_parts.append(f0)
            s.append(order)
        dims = ConeDims(l=m_in + n_sign, q=tuple(q), s=tuple(s))
        G = np.vstack(G_parts) if G_parts else np.zeros((0, d))
        h = np.concatenate(h_parts) if h_parts else np.zeros(0)
        return self.c, G, h, dims, self.E, self.f

    def to_json_dict(self) -> dict:
        """Loss-free dump (row-major matrices) for debugging."""
        def mat(M):
            return None if M is None else np.asarray(M).tolist()
        return {
            "num_vars": self.num_vars,
            "c": self.c.tolist(),
            "sign_vars": self.sign_vars.tolist(),
            "G_ineq": mat(self.G_ineq),
            "h_ineq": mat(self.h_ineq),
            "E": mat(self.E),
            "f": mat(self.f),
            "socs": [{"D": D.tolist(), "e": e.tolist()} for D, e in self.socs],
            "lmis": [{"order": order, "Fmat_svec": Fmat.tolist(), "f0_svec": f0.tolist()}
                     for Fmat, f0, order in self.lmis],
            "var_table": {k: list(v) for k, v in self.var_table.items()},
        }

    def dump_json(self, path: str) -> None:
        with open(path, "w") as fp:
            json.dump(self.to_json_dict(), fp)


@dataclass
class ConicSolution:
    status: str
    x: np.ndarray | None
    objective: float
    dual_objective: float
    gap: float
    relgap: float
    residuals: dict[str, float]
    iterations: int = 0
    message: str = ""
    certificate: dict | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def var(self, prog: ConicProgram, name: str) -> np.ndarray:
        lo, hi = prog.var_table[name]
        return self.x[lo:hi]


# debug hook: when set via set_program_dump, every program passed to solve()
# is serialized to "<prefix>.<k>.json" before solving
_dump_state: list = []


def set_program_dump(prefix: str | None) -> None:
    _dump_state.clear()
    if prefix:
        _dump_state.extend([str(prefix), 0])


def solve(
    prog: ConicProgram,
    *,
    tol_gap: float = DEFAULT_TOL_GAP,
    tol_feas: float = DEFAULT_TOL_FEAS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ConicSolution:
    if _dump_state:
        _dump_state[1] += 1
        prog.dump_json(f"{_dump_state[0]}.{_dump_state[1]}.json")
    c, G, h, dims, A, b = prog.lower()
    res: EngineResult = conelp(c, G, h, dims, A, b, tol_gap=tol_gap,
                               tol_feas=tol_feas, max_iter=max_iter)

    certificate = None
    if res.status == "primal_infeasible":
        certificate = {"kind": "primal_infeasible", "y_eq": res.y, "z_cone": res.z}
    elif res.status == "dual_infeasible":
        certificate = {"kind": "dual_infeasible", "ray": res.x}

    return ConicSolution(
        status=res.status,
        x=res.x,
        objective=res.pobj if res.x is not None else np.nan,
        dual_objective=res.dobj if np.isfinite(res.dobj) else np.nan,
        gap=res.gap,
        relgap=res.relgap,
        residuals={"primal": res.pres, "dual": res.dres, "compl": res.gap},
        iterations=res.iterations,
        message=res.message,
        certificate=certificate,
    )


def solve_or_raise(prog: ConicProgram, **kw) -> ConicSolution:
    sol = solve(prog, **kw)
    if not sol.is_optimal:
        raise SolverError(f"conic solve failed: {sol.status} ({sol.message})", sol)
    return sol


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
        self._ineq: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._eq: list[tuple[np.ndarray, np.ndarray, float]] = []
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
        self._obj.append((np.atleast_1d(np.asarray(cols, dtype=int)),
                          np.atleast_1d(np.asarray(vals, dtype=float))))

    def nonneg(self, cols) -> None:
        self._sign.append(np.atleast_1d(np.asarray(cols, dtype=int)))

    def ineq(self, cols, vals, rhs: float) -> None:
        self._ineq.append((np.atleast_1d(np.asarray(cols, dtype=int)),
                           np.atleast_1d(np.asarray(vals, dtype=float)), float(rhs)))

    def eq(self, cols, vals, rhs: float) -> None:
        self._eq.append((np.atleast_1d(np.asarray(cols, dtype=int)),
                         np.atleast_1d(np.asarray(vals, dtype=float)), float(rhs)))

    def soc(self, dim: int) -> "_SocHandle":
        h = _SocHandle(dim)
        self._socs.append(h)
        return h

    def lmi(self, order: int) -> "_LMIHandle":
        h = _LMIHandle(order)
        self._lmis.append(h)
        return h

    def build(self) -> ConicProgram:
        d = self._d
        c = np.zeros(d)
        for cols, vals in self._obj:
            np.add.at(c, cols, vals)
        sign_vars = (np.unique(np.concatenate(self._sign)) if self._sign
                     else np.zeros(0, dtype=int))
        if self._ineq:
            G = np.zeros((len(self._ineq), d))
            hv = np.zeros(len(self._ineq))
            for r, (cols, vals, rhs) in enumerate(self._ineq):
                np.add.at(G[r], cols, vals)
                hv[r] = rhs
        else:
            G, hv = None, None
        if self._eq:
            E = np.zeros((len(self._eq), d))
            fv = np.zeros(len(self._eq))
            for r, (cols, vals, rhs) in enumerate(self._eq):
                np.add.at(E[r], cols, vals)
                fv[r] = rhs
        else:
            E, fv = None, None
        socs = [hnd.assemble(d) for hnd in self._socs]
        lmis = [hnd.assemble(d) for hnd in self._lmis]
        return ConicProgram(d, c, sign_vars, G, hv, E, fv,
                            socs, lmis, dict(self._table))


class _SocHandle:
    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._const = np.zeros(dim)

    def set_row(self, row: int, cols, vals, const: float = 0.0) -> None:
        cols = np.atleast_1d(np.asarray(cols, dtype=int))
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        self._rows.extend([row] * len(cols))
        self._cols.extend(cols.tolist())
        self._vals.extend(vals.tolist())
        self._const[row] += const

    def set_triplets(self, rows, cols, vals) -> None:
        self._rows.extend(np.asarray(rows, dtype=int).tolist())
        self._cols.extend(np.asarray(cols, dtype=int).tolist())
        self._vals.extend(np.asarray(vals, dtype=float).tolist())

    def assemble(self, d: int):
        D = np.zeros((self.dim, d))
        np.add.at(D, (np.asarray(self._rows, dtype=int), np.asarray(self._cols, dtype=int)),
                  np.asarray(self._vals, dtype=float))
        return D, self._const


class _LMIHandle:
    """One LMI block F0 + sum_i x_i F_i >= 0.

    Terms are entered either as dense symmetric matrices (term) or as
    entry-level triplets (term_entries) where (i, j) refers to the symmetric
    matrix position; both (i,j) and (j,i) are implied, svec scaling is applied
    here.
    """

    def __init__(self, order: int):
        self.order = order
        self._svec_rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._F0 = np.zeros((order, order))

    def const(self, F0: np.ndarray) -> None:
        self._F0 = self._F0 + np.asarray(F0, dtype=float)

    def term(self, col: int, Fi: np.ndarray) -> None:
        Fi = np.asarray(Fi, dtype=float)
        v = svec(Fi)
        nz = np.nonzero(v)[0]
        self._svec_rows.append(nz)
        self._cols.append(np.full(len(nz), col, dtype=int))
        self._vals.append(v[nz])

    def map_svec(self, cols, M: np.ndarray) -> None:
        """Insert a whole linear map: column c of M is the svec contribution
        of variable cols[c] to this block."""
        cols = np.asarray(cols, dtype=int)
        rows, cc = np.nonzero(M)
        self._svec_rows.append(rows)
        self._cols.append(cols[cc])
        self._vals.append(M[rows, cc])

    def term_symmetric_block(self, cols, offset: int = 0,
                             scale: float = 1.0) -> None:
        """Tie scale times a symmetric matrix variable (given by its
        svec-ordered flat variable indices cols) to the diagonal sub-block
        starting at offset."""
        cols = np.asarray(cols, dtype=int)
        s = int(round((np.sqrt(8 * len(cols) + 1) - 1) / 2))
        if s * (s + 1) // 2 != len(cols):
            raise ValueError("cols length is not a triangular number")
        from ..linalg import _tri_indices
        ai, bi = _tri_indices(s)
        ro = ai + offset
        co = bi + offset
        rows = co * (co + 1) // 2 + ro
        self._svec_rows.append(rows)
        self._cols.append(cols)
        self._vals.append(np.full(len(cols), scale))

    def term_entries(self, mat_i, mat_j, cols, vals) -> None:
        """Bulk insert: coefficient vals[k] at symmetric entry (mat_i[k], mat_j[k])
        of the LMI for variable cols[k]."""
        mat_i = np.asarray(mat_i, dtype=int)
        mat_j = np.asarray(mat_j, dtype=int)
        cols = np.asarray(cols, dtype=int)
        vals = np.asarray(vals, dtype=float)
        lo = np.minimum(mat_i, mat_j)
        hi = np.maximum(mat_i, mat_j)
        rows = hi * (hi + 1) // 2 + lo
        scale = np.where(lo == hi, 1.0, np.sqrt(2.0))
        self._svec_rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals * scale)

    def assemble(self, d: int):
        m = svec_len(self.order)
        Fmat = np.zeros((m, d))
        if self._svec_rows:
            rows = np.concatenate(self._svec_rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
            np.add.at(Fmat, (rows, cols), vals)
        return Fmat, svec(self._F0), self.order

