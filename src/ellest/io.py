"""Matrix and descriptor file formats.

Matrices travel as dense row-major CSV, one matrix row per line, full
precision "%.17g". Ellitopes travel as a JSON descriptor
{n, K, tset: {variant, K, p?}, S: [...]} where each S entry is either a path
to a matrix CSV (relative paths resolve against the descriptor's directory)
or an inline row-major nested array. On read, n and tset.K may be omitted;
they are recovered from the S blocks.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .ellitope import Ellitope, TSet, _is_int

FMT = "%.17g"


def write_matrix(path: str, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fp:
        for row in M:
            fp.write(",".join(FMT % v for v in row) + "\n")


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix CSV; raise ValueError naming path:line for an empty
    file, a ragged row, or an entry that is not a finite number."""
    rows = []
    with open(path) as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: entry is not a number") from None
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{lineno}: entry is not finite")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: row has {len(row)} entries, "
                                 f"expected {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}:1: file holds no matrix rows")
    return np.array(rows, dtype=float)


def write_ellitope(path: str, ell: Ellitope) -> None:
    """Write a descriptor with every S entry inline."""
    d = {"n": ell.n, "K": ell.K, "tset": ell.tset.to_json_dict(),
         "S": [Sk.tolist() for Sk in ell.S]}
    with open(path, "w") as fp:
        json.dump(d, fp, indent=1)


def _inline_matrix(path: str, k: int, entry) -> np.ndarray:
    """Inline S entry as a matrix; raise ValueError naming path and S[k]
    unless it is a rectangular 2-D array of finite numbers."""
    try:
        M = np.array(entry, dtype=float)
    except (TypeError, ValueError, OverflowError):
        M = np.empty(0)
    if M.ndim != 2 or not np.all(np.isfinite(M)):
        raise ValueError(f"{path}: S[{k}] is not a rectangular array of finite numbers")
    return M


def read_ellitope(path: str) -> Ellitope:
    with open(path) as fp:
        d = json.load(fp)
    if not (isinstance(d, dict) and isinstance(d.get("S"), list)
            and isinstance(d.get("tset"), dict)):
        raise ValueError(f"{path}: descriptor needs an 'S' list and a 'tset' object")
    S = []
    for entry in d["S"]:
        if isinstance(entry, str):
            p = entry if os.path.isabs(entry) else os.path.join(os.path.dirname(path), entry)
            S.append(read_matrix(p))
        else:
            S.append(_inline_matrix(path, len(S), entry))
        if S[-1].shape != S[0].shape:
            raise ValueError(f"{path}: S[{len(S) - 1}] has shape {S[-1].shape}, "
                             f"S[0] has shape {S[0].shape}")
    if not S:
        raise ValueError(f"{path}: descriptor lists no S blocks")
    # n and tset.K are redundant with S; hand-written files may omit them
    td = dict(d["tset"])
    td.setdefault("K", len(S))
    try:
        tset = TSet.from_json_dict(td)
    except ValueError as exc:
        raise ValueError(f"{path}: tset: {exc}") from None
    n = d.get("n", S[0].shape[0])
    if not _is_int(n) or n < 1:
        raise ValueError(f"{path}: n must be a positive integer, got {n!r}")
    return Ellitope(n, np.array(S), tset)
