"""Small dense linear-algebra helpers shared across the package.

Symmetric matrices travel through the conic machinery in scaled-vector (svec)
form: the upper triangle in column-major order with off-diagonal entries
multiplied by sqrt(2), so that <svec(X), svec(Y)> = Tr(X Y).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SQRT2 = float(np.sqrt(2.0))


def svec_len(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _tri_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Upper triangle, column-major: (0,0), (0,1), (1,1), (0,2), ...
    cols, rows = [], []
    for j in range(n):
        for i in range(j + 1):
            rows.append(i)
            cols.append(j)
    return np.asarray(rows), np.asarray(cols)


@lru_cache(maxsize=None)
def _svec_scale(n: int) -> np.ndarray:
    rows, cols = _tri_indices(n)
    scale = np.where(rows == cols, 1.0, SQRT2)
    return scale


@lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the flat (row-major) index in an n x n matrix of each svec entry, and
    # for every entry (i, j) its svec index and its svec scale
    rows, cols = _tri_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
    return rows * n + cols, pos, _svec_scale(n)[pos]


def svec(M: np.ndarray) -> np.ndarray:
    """svec of a symmetric matrix, or of each matrix of a (k, n, n) stack."""
    n = M.shape[-1]
    return M.reshape(M.shape[:-2] + (n * n,)).take(_svec_index(n)[0], axis=-1) * _svec_scale(n)


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec: (svec_len(n),) -> (n, n), or (k, svec_len(n)) -> (k, n, n)."""
    _, pos, scale = _svec_index(n)
    return v.take(pos, axis=-1) / scale


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def psd_tolerance(M: np.ndarray) -> float:
    """Default PSD slack: relative in the trace, per the library convention."""
    return 1e-9 * (1.0 + abs(float(np.trace(M))))


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(M)).min())


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clipped at 0."""
    w, V = np.linalg.eigh(sym(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def safe_cholesky(M: np.ndarray) -> np.ndarray:
    """Cholesky with escalating diagonal jitter. Raises after five tries."""
    M = sym(np.asarray(M, dtype=float))
    scale = max(float(np.trace(M)) / max(M.shape[0], 1), 1e-300)
    eps = 0.0
    for _ in range(5):
        try:
            return np.linalg.cholesky(M if eps == 0.0 else M + eps * np.eye(M.shape[0]))
        except np.linalg.LinAlgError:
            eps = max(eps * 100.0, scale * 1e-14)
    raise np.linalg.LinAlgError("matrix not positive definite even with jitter")


def matrix_basis(p: int, q: int, k: int):
    """The basis of a matrix variable X with k entries and p x q shape:
    row-major entries E_ab = e_a e_b' when k = p q, or, for a symmetric X in
    svec order (k = svec_len(p) < p^2), E_ab = (e_a e_b' + e_b e_a') / div
    with div 2 on the diagonal and sqrt(2) off it, so that svec(E_ab) is a
    unit vector. Returns (a, b, div), div None for a row-major X."""
    if k == p * q:
        a, b = np.divmod(np.arange(k), q)
        return a, b, None
    if p == q and k == svec_len(p):
        a, b = _tri_indices(p)
        return a, b, np.where(a == b, 2.0, SQRT2)
    raise ValueError(f"{k} variables fit neither a {p}x{q} nor a symmetric {p}x{p} matrix")


def spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0
