"""Shared generators for randomized test instances."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from ellest import Ellitope, TSet, EstimationProblem
from ellest.estimator import add_design_lmi
from ellest.linalg import smat, svec, svec_len
from ellest.rng import stream
from ellest.s_risk import _add_srisk_objective
from ellest.solver import Builder, solve_or_raise


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix of the given size, full rank unless rank is set."""
    r = n if rank is None else rank
    G = rng.standard_normal((n, r))
    return G @ G.T / max(r, 1)


def random_tset(rng: np.random.Generator, K: int) -> TSet:
    if K == 1 and rng.random() < 0.5:
        return TSet.unit_segment()
    if rng.random() < 0.5:
        return TSet.unit_box(K)
    p = float(rng.choice([2.0, 4.0]))
    return TSet.pnorm_ball(K, p)


def random_ellitope(rng: np.random.Generator, n: int, K: int) -> Ellitope:
    """Random ellitope with well-conditioned sum of the S_k."""
    S = np.empty((K, n, n))
    for k in range(K):
        S[k] = random_psd(rng, n, rank=max(1, n // 2))
    # ridge keeps the sum positive definite
    S[0] += np.eye(n) * 0.1
    return Ellitope(n, S, random_tset(rng, K))


def random_problem(rng: np.random.Generator, n: int, m: int, nu: int,
                   K: int, sigma: float | None = None) -> EstimationProblem:
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    B = rng.standard_normal((nu, n)) / np.sqrt(n)
    s = float(rng.uniform(0.05, 1.0)) if sigma is None else sigma
    return EstimationProblem(A=A, B=B, sigma=s, ell=random_ellitope(rng, n, K))


def optimize_S_sdp(A: np.ndarray, B: np.ndarray, sigma: float, trace_cap: float):
    """Reference for s_risk.optimize_S_bisection as one SDP in T = tau S:

        min tau  s.t.  [[T, B'-A'H],[B-H'A, I]] >= 0  (hence T >= 0),
                       sigma^2 ||H||_F^2 <= tau,  Tr(T) <= trace_cap tau.

    Returns (S, H, tau) with S = T / tau."""
    (m, n), nu = A.shape, B.shape[0]
    b = Builder()
    tau, h, _ = _add_srisk_objective(b, sigma, m, nu, None)
    t_idx = b.vars("T", svec_len(n))
    L = b.lmi(n + nu)
    add_design_lmi(L, A, B, np.zeros((0, n, n)), np.zeros(0, dtype=int), h)
    E = np.eye(n + nu)[:, :n]
    L.matrix_term(t_idx, E, E)
    b.ineq(np.concatenate([t_idx, tau]),
           np.concatenate([svec(np.eye(n)), [-trace_cap]]), 0.0)
    prog = b.build()
    sol = solve_or_raise(prog)
    tau_val = float(sol.var(prog, "tau")[0])
    return smat(sol.var(prog, "T"), n) / tau_val, sol.var(prog, "H").reshape(m, nu), tau_val


def pytest_configure(config):
    """Hypothesis writes its storage directory (.hypothesis/) into the working
    directory while collecting; point it at a temporary directory instead."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run every test from its own temporary directory, so commands that
    fall back to default output names (H.csv, S_opt.csv) cannot write into
    the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(autouse=True)
def _default_solver_tol(monkeypatch):
    """Every solve reads ESTIMATOR_SOLVER_TOL; clear it, so a setting in the
    shell that runs the tests cannot move the tolerances they assume."""
    monkeypatch.delenv("ESTIMATOR_SOLVER_TOL", raising=False)


@pytest.fixture
def conelp_calls(monkeypatch):
    """Record every conic solve started through ellest.solver.program (the
    calls still run)."""
    import ellest.solver.program as program

    calls, real = [], program.conelp

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(program, "conelp", recorded)
    return calls


@pytest.fixture
def rng():
    return stream(20260819)
