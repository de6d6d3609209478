"""Estimates robust to norm-bounded uncertainty in the sensing matrices.

The observation pair [A; B] is only known to lie in the set
{[A*; B*] + [E_A'; E_B'] Delta F : ||Delta|| <= r} with Delta a p x q matrix
bounded in spectral norm. Requiring the S-risk design LMI for every matrix in
the set is a semi-infinite constraint; the S-lemma turns it into one finite
LMI with a single multiplier mu, at the price of one extra p x p block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellitope import Ellitope
from .estimator import add_design_lmi, add_neg_product, check_sigma
from .linalg import sym
from .rng import stream
from .s_risk import _add_srisk_objective, _srisk_design, psd_weight
from .solver import Builder, solve_or_raise

# Entries of the (batch, n + nu, n + nu) stack of design LMIs that
# verify_robust_feasibility eigen-solves at once: bounds its memory for any N.
VERIFY_ENTRIES = 1 << 18


@dataclass(frozen=True)
class UncertaintyModel:
    """Nominal (A_star, B_star) with perturbations [E_A'; E_B'] Delta F,
    ||Delta|| <= r. E stacks [E_A, E_B] side by side, p x (m + nu)."""

    A_star: np.ndarray
    B_star: np.ndarray
    E: np.ndarray
    F: np.ndarray
    r: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A_star, dtype=float))
        B = np.atleast_2d(np.asarray(self.B_star, dtype=float))
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        m, n = A.shape
        nu = B.shape[0]
        if B.shape[1] != n:
            raise ValueError("A_star and B_star must share column count")
        if E.shape[1] != m + nu:
            raise ValueError(f"E must have {m + nu} columns")
        if F.shape[1] != n:
            raise ValueError(f"F must have {n} columns")
        if not 0 <= self.r < math.inf:
            raise ValueError(f"radius must be a finite nonnegative number, got {self.r}")
        for name, val in (("A_star", A), ("B_star", B), ("E", E), ("F", F)):
            object.__setattr__(self, name, val)

    @property
    def m(self) -> int:
        return self.A_star.shape[0]

    @property
    def n(self) -> int:
        return self.A_star.shape[1]

    @property
    def nu(self) -> int:
        return self.B_star.shape[0]

    @property
    def E_A(self) -> np.ndarray:
        return self.E[:, :self.m]

    @property
    def E_B(self) -> np.ndarray:
        return self.E[:, self.m:]

    def perturbed(self, Delta: np.ndarray):
        """(A, B) at a given Delta."""
        shift = self.E.T @ Delta @ self.F
        return self.A_star + shift[:self.m], self.B_star + shift[self.m:]


def build_robust_estimate(um: UncertaintyModel, sigma: float, S: np.ndarray,
                          ell: Ellitope):
    """min tau s.t. for every admissible [A; B] the S-risk design LMI holds;
    reformulated with a multiplier mu as

        [ sum lam_k S_k + tau S - mu r^2 F'F   B*' - A*'H    0          ]
        [ B* - H'A*                            I_nu          E_B'-H'E_A']
        [ 0                                    E_B - E_A H   mu I_p     ]  >= 0

    plus sigma^2 Tr(H'H) + phi_T(lam) <= tau, where the mu I_p corner of the
    LMI makes mu >= 0. Returns (H, lam, mu, rob_opt).
    With a vanishing uncertainty channel (r = 0, E = 0 or F = 0) the border
    is empty and there is no mu: this is the nominal S-risk design program,
    and mu = 0 is returned."""
    check_sigma(sigma)
    A, B = um.A_star, um.B_star
    m, n, nu = um.m, um.n, um.nu
    if ell.n != n:
        raise ValueError(f"A and B must have n = {ell.n} columns, got {n}")
    p = um.E.shape[0] if um.r > 0 and np.any(um.E) and np.any(um.F) else 0
    S = psd_weight(S, n)
    if not p:
        est = _srisk_design(A, B, sigma, S, ell)
        return est.H, est.lam, 0.0, est.tau
    b = Builder()
    tau, h, lam = _add_srisk_objective(b, sigma, m, nu, ell.tset)
    mu = b.vars("mu", 1)
    L = b.lmi(n + nu + p)
    add_design_lmi(L, A, B, ell.S, lam, h,
                   extra_00=[(tau[0], S), (mu[0], -um.r ** 2 * (um.F.T @ um.F))])
    # border [E_B - E_A H, mu I_p] below the identity block
    F0 = np.zeros((n + nu + p, n + nu + p))
    F0[n + nu:, n:n + nu] = um.E_B
    F0[n:n + nu, n + nu:] = um.E_B.T
    L.const(F0)
    Mm = np.zeros((n + nu + p, n + nu + p))
    Mm[n + nu:, n + nu:] = np.eye(p)
    L.term(mu[0], Mm)
    add_neg_product(L, um.E_A.T, h, nu, n + nu, n)
    prog = b.build()
    sol = solve_or_raise(prog)
    return (sol.var(prog, "H").reshape(m, nu), sol.var(prog, "lam").copy(),
            float(sol.var(prog, "mu")[0]), float(sol.var(prog, "tau")[0]))


def design_lmi_min_eig(H: np.ndarray, lam: np.ndarray, tau: float,
                       A: np.ndarray, B: np.ndarray, S: np.ndarray,
                       ell: Ellitope) -> float:
    """Smallest eigenvalue of the S-risk design LMI at fixed (H, lam, tau)."""
    n, nu = ell.n, B.shape[0]
    M = np.zeros((n + nu, n + nu))
    M[:n, :n] = np.einsum("k,kij->ij", lam, ell.S) + tau * S
    D = B - H.T @ A
    M[:n, n:] = D.T
    M[n:, :n] = D
    M[n:, n:] = np.eye(nu)
    return float(np.linalg.eigvalsh(M)[0])


def verify_robust_feasibility(H: np.ndarray, lam: np.ndarray, tau: float,
                              um: UncertaintyModel, S: np.ndarray,
                              ell: Ellitope, N: int = 1000, seed: int = 0) -> float:
    """Fraction of N sampled perturbations ||Delta|| <= r at which the design
    LMI stays positive semidefinite (eigenvalue >= -1e-7). Delta is a
    Gaussian matrix rescaled to spectral norm u*r with u uniform, except the
    first draw which sits on the boundary u = 1 where feasibility binds.
    Draw i comes from stream(seed, i); the spectral norms and the smallest
    eigenvalues are taken over batches of draws (design_lmi_min_eig, one
    draw at a time, gives the same fraction). With L0 = sum lam_k S_k + tau S
    and D = B - H'A at a draw, the LMI [[L0, D'],[D, I]] has eigenvalues
    >= -eps (eps = 1e-7) exactly when L0 + eps I - D'D / (1 + eps), the
    Schur complement of the (1 + eps) I block of the LMI plus eps I, is
    positive semidefinite, so only that n x n matrix is eigen-solved."""
    if N < 1:
        raise ValueError("N must be at least 1")
    S = sym(np.asarray(S, dtype=float))
    eps = 1e-7
    if um.r == 0.0 or not np.any(um.E) or not np.any(um.F):
        # every draw is Delta = 0
        return float(design_lmi_min_eig(H, lam, tau, um.A_star, um.B_star, S, ell) >= -eps)
    p, q = um.E.shape[0], um.F.shape[0]
    n, m, nu = ell.n, um.m, um.nu
    L0_eps = np.einsum("k,kij->ij", lam, ell.S) + tau * S + eps * np.eye(n)
    batch = max(1, VERIFY_ENTRIES // (n + nu) ** 2)
    good = 0
    for lo in range(0, N, batch):
        k = min(N, lo + batch) - lo
        G, u = np.empty((k, p, q)), np.empty(k)
        for j in range(k):
            rng = stream(seed, lo + j)
            G[j] = rng.normal(size=(p, q))
            u[j] = 1.0 if lo + j == 0 else rng.uniform()
        nrm = np.linalg.norm(G, 2, axis=(1, 2))
        # a zero G (nrm = 0) gives Delta = 0
        Delta = G * (u * um.r / np.where(nrm > 0, nrm, 1.0))[:, None, None]
        shift = um.E.T @ Delta @ um.F
        D = (um.B_star + shift[:, m:]) - H.T @ (um.A_star + shift[:, :m])
        schur = L0_eps - np.swapaxes(D, 1, 2) @ D / (1.0 + eps)
        good += int(np.count_nonzero(np.linalg.eigvalsh(schur)[:, 0] >= 0.0))
    return good / N
