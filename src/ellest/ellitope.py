"""Ellitope signal sets.

An ellitope is a set {x : exists t in T with x'S_k x <= t_k for all k}
where the S_k are PSD with positive-definite sum and T is a monotone compact
convex subset of the nonnegative orthant.

T is a closed enum of three families (unit segment, unit box, scaled p-norm
ball); every set used by the estimation routines is one of these, and the
closed-form support functions keep the downstream conic programs clean. The
enum is the extension point if more T's are ever needed.

The calculus rules (intersect, direct_product, inverse_image) return plain
Ellitopes in this canonical form, so their results go to every estimator
and to the descriptor files unchanged. A linear image P Y of an ellitope Y
needs no set object: estimating Bx from Ax over x in P Y is estimating
(BP)y from (AP)y over y in Y.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import min_eig, psd_tolerance
from .solver import Builder

SEGMENT = "unit_segment"
BOX = "unit_box"
PBALL = "pnorm_ball"

_VARIANTS = (SEGMENT, BOX, PBALL)

# p values for which membership in a p-norm ball T and its support function
# have exact conic encodings
CONIC_P = (2.0, 4.0)


def _is_int(v) -> bool:
    """v is an integer (a bool is not)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    """v is a real number (a bool is not) that is finite as a float."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TSet:
    """One of the admissible parameter sets T.

    unit_segment: [0, 1] (K = 1)
    unit_box:     [0, 1]^K
    pnorm_ball:   {t >= 0 : sum_k t_k^(p/2) <= 1}, p >= 2
    """

    variant: str
    K: int
    p: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown TSet variant {self.variant!r}")
        if not _is_int(self.K) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if self.variant == SEGMENT and self.K != 1:
            raise ValueError("unit segment has K = 1")
        if self.variant == PBALL:
            if not _is_finite_real(self.p) or self.p < 2:
                raise ValueError(f"pnorm_ball requires a finite p >= 2, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("p is only meaningful for pnorm_ball")

    @classmethod
    def unit_segment(cls) -> "TSet":
        return cls(SEGMENT, 1)

    @classmethod
    def unit_box(cls, K: int) -> "TSet":
        return cls(BOX, K)

    @classmethod
    def pnorm_ball(cls, K: int, p: float) -> "TSet":
        return cls(PBALL, K, float(p))

    def support(self, lam: np.ndarray) -> float:
        """max_{t in T} lam't for lam >= 0."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.K,):
            raise ValueError(f"lam must have length {self.K}")
        if np.any(lam < 0):
            raise ValueError("support function requires lam >= 0")
        if self.variant in (SEGMENT, BOX):
            return float(np.sum(lam))
        # dual norm of ||.||_{p/2} on the nonnegative orthant
        if self.p == 2.0:
            return float(np.max(lam))
        q = self.p / (self.p - 2.0)
        return float(np.sum(lam ** q) ** (1.0 / q))

    def contains(self, t: np.ndarray, tol: float = 1e-9) -> bool:
        """Relative membership test: t/(1+tol) in T."""
        t = np.asarray(t, dtype=float)
        if t.shape != (self.K,):
            raise ValueError(f"t must have length {self.K}")
        if np.any(t < -tol):
            return False
        ts = np.maximum(t, 0.0) / (1.0 + tol)
        if self.variant in (SEGMENT, BOX):
            return bool(np.all(ts <= 1.0))
        return bool(np.sum(ts ** (self.p / 2.0)) <= 1.0)

    def max_sum(self) -> float:
        """max_{t in T} sum_k t_k."""
        if self.variant in (SEGMENT, BOX):
            return float(self.K)
        return float(self.K ** (1.0 - 2.0 / self.p))

    def maximin(self) -> float:
        """max_{t in T} min_k t_k, attained at the symmetric point."""
        if self.variant in (SEGMENT, BOX):
            return 1.0
        return float(self.K ** (-2.0 / self.p))

    def cond(self) -> float:
        """sqrt(max_sum / maximin); 1 for the segment, sqrt(K) otherwise."""
        return float(np.sqrt(self.max_sum() / self.maximin()))

    def boundary_scale(self, g: np.ndarray) -> float:
        """sup{gamma >= 0 : gamma*g in T} for g >= 0 (inf when g = 0)."""
        g = np.maximum(np.asarray(g, dtype=float), 0.0)
        if self.variant in (SEGMENT, BOX):
            load = np.max(g)
        else:
            load = np.sum(g ** (self.p / 2.0)) ** (2.0 / self.p)
        if load <= 0.0:
            return np.inf
        return 1.0 / float(load)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Points of T, (size, K); uniform for box-family, rescaled for balls."""
        u = rng.random((size, self.K))
        if self.variant in (SEGMENT, BOX):
            return u
        nrm = np.sum(u ** (self.p / 2.0), axis=1) ** (2.0 / self.p)
        return u / np.maximum(nrm, 1.0)[:, None]

    def to_json_dict(self) -> dict:
        d = {"variant": self.variant, "K": self.K}
        if self.p is not None:
            d["p"] = self.p
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "TSet":
        if "variant" not in d or "K" not in d:
            raise ValueError("tset descriptor needs 'variant' and 'K'")
        return cls(d["variant"], d["K"], d.get("p"))


def add_tset_cone(b: Builder, tset: TSet, t_idx: np.ndarray) -> None:
    """Constrain t to lie in T."""
    t_idx = np.asarray(t_idx, dtype=int)
    K = tset.K
    if len(t_idx) != K:
        raise ValueError("t_idx length mismatch")
    b.nonneg(t_idx)
    if tset.variant in (SEGMENT, BOX):
        for k in range(K):
            b.ineq([t_idx[k]], [1.0], 1.0)
    elif tset.p == 2.0:
        b.ineq(t_idx, np.ones(K), 1.0)
    elif tset.p == 4.0:
        soc = b.soc(K + 1)
        soc.set_row(0, [], [], 1.0)
        soc.set_triplets(np.arange(1, K + 1), t_idx, np.ones(K))
    else:
        raise NotImplementedError(
            f"conic encoding of the p-norm ball needs p in {CONIC_P}, got p={tset.p}")


def phi_terms(b: Builder, tset: TSet, lam_idx: np.ndarray):
    """Linear terms (cols, vals) whose value dominates phi_T(lam) at any
    feasible point, assuming lam >= 0 is enforced by the caller. Linear for
    segment/box; for the p-norm ball variants, adds the epigraph variable
    group "phi_epi" (tight at the optimum whenever the terms are minimized),
    so a Builder holds at most one such support term."""
    lam_idx = np.asarray(lam_idx, dtype=int)
    K = tset.K
    if tset.variant in (SEGMENT, BOX):
        return lam_idx, np.ones(K)
    w = b.vars("phi_epi", 1)
    if tset.p == 2.0:
        for k in range(K):
            b.ineq([lam_idx[k], w[0]], [1.0, -1.0], 0.0)
    elif tset.p == 4.0:
        soc = b.soc(K + 1)
        soc.set_row(0, [w[0]], [1.0])
        soc.set_triplets(np.arange(1, K + 1), lam_idx, np.ones(K))
    else:
        raise NotImplementedError(
            f"support epigraph needs p in {CONIC_P}, got p={tset.p}")
    return w, np.ones(1)


@dataclass(frozen=True)
class Ellitope:
    """{x : exists t in T, x'S_k x <= t_k}."""

    n: int
    S: np.ndarray                 # (K, n, n), each PSD, sum positive definite
    tset: TSet
    kappa: float = field(init=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 3 or S.shape[1] != self.n or S.shape[2] != self.n:
            raise ValueError("S must be (K, n, n)")
        if S.shape[0] != self.tset.K:
            raise ValueError("number of S blocks must equal tset.K")
        object.__setattr__(self, "S", S)
        for k in range(self.K):
            if not np.allclose(S[k], S[k].T, atol=1e-12, rtol=0.0):
                raise ValueError(f"S[{k}] is not symmetric")
            lo = min_eig(S[k])
            if lo < -psd_tolerance(S[k]):
                raise ValueError(f"S[{k}] is not PSD (min eig {lo:.3e})")
        total = S.sum(axis=0)
        kappa = min_eig(total)
        if kappa <= psd_tolerance(total):
            raise ValueError("sum of S_k must be positive definite")
        object.__setattr__(self, "kappa", float(kappa))

    @property
    def K(self) -> int:
        return self.S.shape[0]

    def loads(self, x: np.ndarray) -> np.ndarray:
        """g with g_k = x'S_k x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}")
        return np.einsum("i,kij,j->k", x, self.S, x)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return self.tset.contains(self.loads(x), tol)

    def support(self, lam: np.ndarray) -> float:
        return self.tset.support(lam)

    def sample(self, rng: np.random.Generator, size: int,
               boundary: bool = True) -> np.ndarray:
        """Random points of the set, scaled to the boundary by default."""
        Y = rng.standard_normal((size, self.n))
        out = np.empty_like(Y)
        for i in range(size):
            g = self.loads(Y[i])
            gam = self.tset.boundary_scale(g)
            c = 0.0 if not np.isfinite(gam) else np.sqrt(gam)
            if not boundary:
                c *= rng.random() ** (1.0 / max(self.n, 1))
            out[i] = c * Y[i]
        return out

    @classmethod
    def ellipsoid(cls, S1: np.ndarray) -> "Ellitope":
        """{x : x'S1 x <= 1} with S1 positive definite."""
        S1 = np.asarray(S1, dtype=float)
        return cls(S1.shape[0], S1[None, :, :], TSet.unit_segment())

    @classmethod
    def coordinate_box(cls, a: np.ndarray) -> "Ellitope":
        """{x : |x_k| <= 1/a_k} via S_k = a_k^2 e_k e_k'."""
        a = np.asarray(a, dtype=float)
        n = len(a)
        S = np.zeros((n, n, n))
        for k in range(n):
            S[k, k, k] = a[k] ** 2
        return cls(n, S, TSet.unit_box(n))


def _product_tset(tsets: list[TSet]) -> TSet:
    # products stay inside the closed three-variant family only for the
    # box-like members; a pnorm factor has no box-family product form
    for ts in tsets:
        if ts.variant == PBALL:
            raise NotImplementedError(
                "products of parameter sets are supported for segment/box factors only")
    K = sum(ts.K for ts in tsets)
    return TSet.unit_segment() if K == 1 else TSet.unit_box(K)


def intersect(ops: list[Ellitope]) -> Ellitope:
    """{x : x in every operand}: the S_k of all operands over the product T.
    All operands must share n."""
    if not ops:
        raise ValueError("empty operand list")
    if len({o.n for o in ops}) != 1:
        raise ValueError("ambient dimension mismatch")
    if len(ops) == 1:
        return ops[0]
    return Ellitope(ops[0].n, np.concatenate([o.S for o in ops]),
                    _product_tset([o.tset for o in ops]))


def direct_product(ops: list[Ellitope]) -> Ellitope:
    """X_1 x ... x X_r: each S_k embedded in its factor's diagonal block,
    over the product T."""
    if not ops:
        raise ValueError("empty operand list")
    offs = np.cumsum([0] + [o.n for o in ops])
    S = np.zeros((sum(o.K for o in ops), offs[-1], offs[-1]))
    k = 0
    for o, lo, hi in zip(ops, offs, offs[1:]):
        S[k:k + o.K, lo:hi, lo:hi] = o.S
        k += o.K
    return Ellitope(int(offs[-1]), S, _product_tset([o.tset for o in ops]))


def inverse_image(ell: Ellitope, R: np.ndarray) -> Ellitope:
    """{z : Rz in X} for R (n x p) with trivial kernel: S_k -> R'S_k R."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != ell.n:
        raise ValueError("R must map into the ambient space")
    if np.linalg.matrix_rank(R) < R.shape[1]:
        raise ValueError("inverse image requires R with trivial kernel")
    S = np.einsum("ia,kij,jb->kab", R, ell.S, R)
    return Ellitope(R.shape[1], 0.5 * (S + S.transpose(0, 2, 1)), ell.tset)
