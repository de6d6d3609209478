"""Shared generators for randomized test instances."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from ellest import Ellitope, TSet, EstimationProblem
from ellest.estimator import add_design_lmi
from ellest.experiments import build_pendulum_problem, gen_random_rotated_A
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


def scalar_problem(sigma: float) -> EstimationProblem:
    """Estimate x from x + sigma xi on [-1, 1]."""
    return EstimationProblem(
        A=np.array([[1.0]]), B=np.array([[1.0]]), sigma=sigma,
        ell=Ellitope.ellipsoid(np.array([[1.0]])))


# one-row designs on a K = 1 ellitope: the horizon-8 pendulum's single
# targets on its ball, the scalar problem, and a random instance under each
# T variant that K = 1 admits
ONE_ROW_CASES = ([f"pendulum-w{t}" for t in range(1, 9)]
                 + [f"scalar-{sigma}" for sigma in (0.1, 1.0, 10.0)]
                 + ["segment", "box", "pnorm-2"])


def one_row_problem(case: str) -> EstimationProblem:
    """The ONE_ROW_CASES instance named case."""
    if case.startswith("pendulum"):
        pp = build_pendulum_problem(T=8)
        return EstimationProblem(pp.A, pp.input_row(int(case[len("pendulum-w"):])), 0.075,
                                 Ellitope.ellipsoid(np.eye(pp.n) / pp.n))
    if case.startswith("scalar"):
        return scalar_problem(float(case[len("scalar-"):]))
    rng = stream(23, 0)
    n, m = 4, 3
    G = rng.standard_normal((n, n))
    tset = {"segment": TSet.unit_segment(), "box": TSet.unit_box(1),
            "pnorm-2": TSet.pnorm_ball(1, 2.0)}[case]
    return EstimationProblem(rng.standard_normal((m, n)), rng.standard_normal((1, n)), 0.3,
                             Ellitope(n, (G @ G.T / n + 0.2 * np.eye(n))[None], tset))


def _pendulum_ball(T: int, rows: int) -> EstimationProblem:
    pp = build_pendulum_problem(T=T)
    return EstimationProblem(pp.A, pp.input_block(rows), 0.075,
                             Ellitope.ellipsoid(np.eye(pp.n) / pp.n))


def random_ellipsoid_problem(tag: int, A: np.ndarray, B: np.ndarray,
                             sigma: float) -> EstimationProblem:
    """(A, B, sigma) on a random well-conditioned ellipsoid {x'S_1 x <= 1}."""
    n = A.shape[1]
    G = stream(24, tag).standard_normal((n, n))
    return EstimationProblem(A, B, sigma, Ellitope.ellipsoid(G @ G.T / n + 0.2 * np.eye(n)))


def dual_problem(case: str) -> EstimationProblem:
    """The DUAL_CASES instance named case."""
    kind, _, arg = case.partition("-")
    if kind == "pendulum8":
        return _pendulum_ball(8, int(arg))
    if kind == "pendulum32":
        return _pendulum_ball(32, int(arg))
    if kind == "rotated":
        n = 24
        return EstimationProblem(gen_random_rotated_A(n, seed=24), np.eye(n), 0.05,
                                 Ellitope.ellipsoid(np.diag(np.arange(1.0, n + 1) ** 2)))
    rng = stream(24, 100)
    if kind == "tall":
        A, B = rng.standard_normal((9, 5)), rng.standard_normal((3, 5))
        return random_ellipsoid_problem(1, A, B, 0.3)
    if kind == "rank2":
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        return random_ellipsoid_problem(2, A, rng.standard_normal((3, 5)), 0.3)
    if kind == "stacked":                    # B = [I; I], nu > n
        return random_ellipsoid_problem(3, rng.standard_normal((4, 4)),
                                        np.vstack([np.eye(4)] * 2), 0.3)
    A, B = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
    return random_ellipsoid_problem(4, A, B, float(arg))


# the designs of the nu x nu dual: the horizon-8 pendulum's ball blocks (its
# single targets are ONE_ROW_CASES), three of the horizon-32 one, random
# instances with a tall A, a rank-2 A, more targets than signal coordinates
# and an extreme sigma, and an n = 24 instance with a rotated spectrum
DUAL_CASES = ([f"pendulum8-{k}" for k in (2, 4, 8)] + [f"pendulum32-{k}" for k in (2, 16, 32)]
              + ["tall", "rank2", "stacked", "sigma-0.001", "sigma-10", "rotated"])


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
