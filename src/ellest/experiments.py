"""Reproduction harness for the suboptimality studies and the input-recovery case study.

Two kinds of runs are supported:

* ``run_suboptimality_experiment``: over a grid of (n, sigma), build the
  minimax linear estimate on an ellipsoid (S1 = diag(1^2..n^2)) or on the
  circumscribed coordinate box (S_k = k^2 e_k e_k'), compute the rho-family
  lower bound plus the refined variants applicable to the geometry, and
  report numeric and computable near-optimality factors. The rows are
  independent: with more than one usable CPU they run in a pool of forked
  worker processes, one per CPU, and the records keep the grid order.

* ``run_pendulum_experiment``: a damped oscillator driven by piecewise
  constant inputs is observed through noisy positions; for each recovery
  target (single inputs w_t and trailing blocks w^(K)) the trace-capped
  S-risk design is optimized in closed form and compared with the
  worst-case ball design. Its rows take milliseconds each, less than a
  worker pool takes to start, so they run in the calling process.

Output is plot-ready CSV (one record per row, "%.17g" floats, no wall-clock
columns so reruns with the same config are byte-identical) plus a JSON
sidecar carrying the full config, an environment fingerprint (with the
solver's duality-gap target, environment.solver_tol, and the number of
processes the rows ran in, environment.workers), and timing.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from .ellitope import Ellitope
from .estimator import EstimationProblem, build_linear_estimate, check_sigma
from .lower_bound import (
    CONTRACTION,
    PARALLELOTOPE,
    QUADRATIC_APPROX,
    RHO_FAMILY,
    best_refined_lower_bound,
    lower_bound_rho_family,
    m_star,
    near_optimality_factor,
)
from .rng import stream
from .s_risk import optimize_S_bisection
from .solver.ipm import gap_tolerance
from .solver.program import program_dump_active

ELLIPSOID = "ellipsoid"
BOX = "box"
PENDULUM = "pendulum"
SCENARIOS = (ELLIPSOID, BOX, PENDULUM)

DEFAULT_SIGMA_GRID = tuple(np.logspace(-3.0, 0.0, 8))
DEFAULT_N_GRID = (8, 16, 32)

# column layouts are frozen so identical configs re-produce identical bytes
SUBOPT_COLUMNS = (
    "scenario", "n", "sigma", "seed", "opt_upper",
    "lb_rho_family", "lb_contraction", "lb_quadratic_approx", "lb_parallelotope",
    "factor_numeric", "factor_computable", "error",
)
PENDULUM_COLUMNS = (
    "scenario", "target", "n", "sigma", "seed",
    "opt_b", "bayes_field", "ball_risk", "s_eigenvalues", "error",
)
# the refined lower bounds that apply to each suboptimality study's set
REFINE_METHODS = {ELLIPSOID: (CONTRACTION, QUADRATIC_APPROX), BOX: (PARALLELOTOPE,)}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment run: which study, on which grids, under which seed.

    A field left None takes its scenario's default; a field the scenario
    ignores must stay None and is recorded as null."""

    scenario: str
    n_grid: tuple | None = None         # ellipsoid/box only (DEFAULT_N_GRID)
    sigma_grid: tuple | None = None     # DEFAULT_SIGMA_GRID, or (0.075,) for the pendulum
    seed: int = 0
    horizon: int | None = None          # pendulum only (32): number of observed steps T
    trace_cap: float | None = None      # pendulum only (1.0): Tr(S) budget
    refine_deltas: tuple | None = None  # ellipsoid/box only ((0.1, 0.2))
    out_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        pendulum = self.scenario == PENDULUM
        for name in ("n_grid", "refine_deltas") if pendulum else ("horizon", "trace_cap"):
            if getattr(self, name) is not None:
                raise ValueError(f"{name} does not apply to the {self.scenario} study")
        defaults = {"sigma_grid": (0.075,), "horizon": 32, "trace_cap": 1.0} if pendulum else \
            {"sigma_grid": DEFAULT_SIGMA_GRID, "n_grid": DEFAULT_N_GRID, "refine_deltas": (0.1, 0.2)}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        if not self.sigma_grid:
            raise ValueError("sigma_grid must be nonempty")
        for sigma in self.sigma_grid:
            check_sigma(sigma)
        if pendulum:
            if self.horizon < 1:
                raise ValueError("horizon must be >= 1")
            if not 0 < self.trace_cap < np.inf:
                raise ValueError(f"trace_cap must be a finite positive number, got {self.trace_cap}")
            if len(self.sigma_grid) != 1:
                raise ValueError(f"the pendulum study takes one sigma, got {self.sigma_grid}")
            return
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "refine_deltas", tuple(float(d) for d in self.refine_deltas))
        if not self.n_grid or any(n < 2 for n in self.n_grid):
            raise ValueError("n grid must be nonempty with n >= 2")
        if not self.refine_deltas or not all(0 < d <= 0.2 for d in self.refine_deltas):
            raise ValueError(f"refine_deltas must be nonempty and lie in (0, 0.2], "
                             f"got {self.refine_deltas}")


@dataclass
class ExperimentRecord:
    scenario: str
    n: int
    sigma: float
    seed: int
    opt_upper: float                      # sqrt(Opt), or the ball risk for pendulum rows
    lb_by_method: dict = field(default_factory=dict)
    factor_numeric: float | None = None   # opt_upper / best lower bound
    factor_computable: float | None = None
    wall_time_ms: float = 0.0
    error: str | None = None
    extras: dict = field(default_factory=dict)

    def sandwich_ok(self) -> bool:
        """Every recorded lower bound stays below the upper bound (up to a
        relative 1e-7)."""
        if self.error is not None or not np.isfinite(self.opt_upper):
            return False
        slack = 1e-7 * (1.0 + abs(self.opt_upper))
        return all(lb <= self.opt_upper + slack for lb in self.lb_by_method.values())


def gen_random_rotated_A(n: int, lam_max: float = 1.0, lam_min: float = 0.01,
                         seed: int = 0) -> np.ndarray:
    """U diag(lam) V' with a geometric spectrum and independent Haar rotations."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = stream(seed, 101, n)
    lam = np.geomspace(lam_max, lam_min, n)
    return _haar(rng, n) @ np.diag(lam) @ _haar(rng, n).T


def _haar(rng: np.random.Generator, k: int) -> np.ndarray:
    M = rng.normal(size=(k, k))
    Q, R = np.linalg.qr(M)
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


def _scenario_set(scenario: str, n: int) -> Ellitope:
    j = np.arange(1, n + 1, dtype=float)
    if scenario == ELLIPSOID:
        return Ellitope.ellipsoid(np.diag(j ** 2))
    return Ellitope.coordinate_box(j)


def run_suboptimality_experiment(cfg: ScenarioConfig) -> list[ExperimentRecord]:
    """Grid sweep of upper bound, lower bounds, and factors; writes CSV if asked.

    A, the set and m_star are computed here once per n; the (n, sigma) rows
    then run in grid order, in this process or across a pool of forked
    workers (_sweep_workers), and come back in that order either way."""
    if cfg.scenario not in (ELLIPSOID, BOX):
        raise ValueError("suboptimality runs take the ellipsoid or box scenario")
    rows = []
    for n in cfg.n_grid:
        A = gen_random_rotated_A(n, seed=cfg.seed)
        ell = _scenario_set(cfg.scenario, n)
        try:                                 # m_star depends on (B, ell) only
            ms = m_star(np.eye(n), ell)
        except Exception as exc:             # becomes the error of every row of n
            ms = f"{type(exc).__name__}: {exc}"
        rows += [(cfg, A, ell, ms, sigma) for sigma in cfg.sigma_grid]
    workers = _sweep_workers(len(rows))
    if workers == 1:
        records = [_sweep_row(row) for row in rows]
    else:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            records = pool.map(_sweep_row, rows, chunksize=1)
    if cfg.out_dir is not None:
        write_records(records, cfg, workers)
    return records


def _sweep_workers(rows: int) -> int:
    """Worker processes for a sweep of this many rows: one per usable CPU, or
    1 (the rows run in this process) while a --dump-program dump numbers the
    solves in this process's order, where fork is unavailable, or while
    other threads run, since fork is safe only from a single thread."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(rows, cpus)
    if workers == 1 or program_dump_active() or threading.active_count() > 1:
        return 1
    # imported here, so that importing ellest does not load multiprocessing
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _sweep_row(row: tuple) -> ExperimentRecord:
    """One (n, sigma) row of a suboptimality sweep; a failure becomes its error."""
    cfg, A, ell, ms, sigma = row
    t0 = time.perf_counter()
    rec = ExperimentRecord(cfg.scenario, ell.n, sigma, cfg.seed, np.nan)
    errs = []
    try:
        prob = EstimationProblem(A, np.eye(ell.n), sigma, ell)
        est = build_linear_estimate(prob)
        if isinstance(ms, str):              # m_star failed for this n
            errs.append(ms)
        else:
            rec.opt_upper = est.risk_bound
            rec.lb_by_method[RHO_FAMILY] = lower_bound_rho_family(est.opt, ms, ell.K).lb
            for meth in REFINE_METHODS[cfg.scenario]:
                try:
                    rep = best_refined_lower_bound(
                        prob, meth, deltas=cfg.refine_deltas, opt=est.opt, mstar=ms)
                    rec.lb_by_method[meth] = rep.lb
                except Exception as exc:  # keep the row, note the method
                    errs.append(f"{meth}: {type(exc).__name__}: {exc}")
            rec.factor_computable = near_optimality_factor(
                est.opt, ms, ell.K).factor_computable
            best = max(rec.lb_by_method.values(), default=0.0)
            if best > 0:
                rec.factor_numeric = est.risk_bound / best
    except Exception as exc:
        errs.append(f"{type(exc).__name__}: {exc}")
    rec.error = "; ".join(errs) if errs else None
    rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
    return rec


# ---------------------------------------------------------------------------
# pendulum case study


@dataclass(frozen=True)
class PendulumProblem:
    """Damped oscillator observed through noisy positions.

    State z = [r; v] obeys dr = v dt, dv = (-nu^2 r - kappa v + w) dt with the
    input w held constant on intervals of length delta. The signal is
    x = [z_0; w_1; ...; w_T] and the observation of the position trajectory is
    A x + sigma xi.
    """

    delta: float
    kappa: float
    nu: float
    T: int
    sigma: float
    theta: np.ndarray                 # 2x2 drift
    P: np.ndarray                     # one-step state propagator exp(delta theta)
    Q: np.ndarray                     # one-step input response, shape (2,)
    A: np.ndarray                     # T x (T+2) position-trajectory operator

    @property
    def n(self) -> int:
        return self.T + 2

    def input_row(self, t: int) -> np.ndarray:
        """1x(T+2) selector of w_t (t = 1..T)."""
        if not 1 <= t <= self.T:
            raise ValueError("t out of range")
        row = np.zeros((1, self.n))
        row[0, 1 + t] = 1.0
        return row

    def input_block(self, K: int) -> np.ndarray:
        """Kx(T+2) selector of the trailing inputs [w_{T-K+1}; ...; w_T]."""
        if not 1 <= K <= self.T:
            raise ValueError("K out of range")
        return np.vstack([self.input_row(t) for t in range(self.T - K + 1, self.T + 1)])

    def simulate(self, x: np.ndarray) -> np.ndarray:
        """Positions r_1..r_T from the recurrence z_t = P z_{t-1} + Q w_t."""
        x = np.asarray(x, dtype=float)
        z = x[:2].copy()
        r = np.empty(self.T)
        for t in range(self.T):
            z = self.P @ z + self.Q * x[2 + t]
            r[t] = z[0]
        return r


def build_pendulum_problem(delta: float = 1.0, kappa: float = 0.05,
                           eigenfreq: float = 0.125, T: int = 32,
                           sigma: float = 0.075) -> PendulumProblem:
    """Discretize the oscillator and assemble the trajectory operator.

    eigenfreq is read in cycles per unit time: the damped angular frequency is
    w = 2*pi*eigenfreq, so nu^2 = w^2 + kappa^2/4. Since (theta + kappa/2 I)^2
    = -w^2 I, the propagator is exp(delta theta) = e^(-kappa delta/2)
    [cos(w delta) I + sin(w delta)/w (theta + kappa/2 I)].
    """
    if min(delta, kappa, eigenfreq, sigma) <= 0 or T < 1:
        raise ValueError("parameters must be positive")
    w = 2.0 * np.pi * eigenfreq
    nu = np.hypot(w, kappa / 2.0)
    theta = np.array([[0.0, 1.0], [-nu ** 2, -kappa]])
    P = np.exp(-kappa * delta / 2.0) * (np.cos(w * delta) * np.eye(2)
                                        + np.sin(w * delta) / w * (theta + kappa / 2.0 * np.eye(2)))
    Q = np.linalg.solve(theta, (P - np.eye(2)) @ np.array([0.0, 1.0]))
    n = T + 2
    A = np.zeros((T, n))
    e1P = P[0, :].copy()              # e_1' P^tau, updated in place
    for tau in range(1, T + 1):
        A[tau - 1, :2] = e1P
        # w_s enters row tau through e_1' P^(tau-s) Q; filled diagonally below
        e1P = e1P @ P
    # column for w_s: impulse response shifted down the rows
    resp = np.empty(T)                # resp[j] = e_1' P^j Q
    v = Q.copy()
    for j in range(T):
        resp[j] = v[0]
        v = P @ v
    for s in range(1, T + 1):
        A[s - 1:, 1 + s] = resp[:T - s + 1]
    return PendulumProblem(delta, kappa, nu, T, sigma, theta, P, Q, A)


def rk4_positions(pp: PendulumProblem, x: np.ndarray, substeps: int = 200) -> np.ndarray:
    """Positions r_1..r_T by direct fixed-step RK4 on the continuous dynamics."""
    x = np.asarray(x, dtype=float)
    z = x[:2].copy()
    h = pp.delta / substeps
    out = np.empty(pp.T)

    def f(z, w):
        return np.array([z[1], -pp.nu ** 2 * z[0] - pp.kappa * z[1] + w])

    for t in range(pp.T):
        w = x[2 + t]
        for _ in range(substeps):
            k1 = f(z, w)
            k2 = f(z + 0.5 * h * k1, w)
            k3 = f(z + 0.5 * h * k2, w)
            k4 = f(z + h * k3, w)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[t] = z[0]
    return out


def pendulum_block_sizes(T: int) -> list:
    """K = 1, 2, 4, ... capped at T (T itself appended if not a power of two)."""
    ks = []
    k = 1
    while k <= T:
        ks.append(k)
        k *= 2
    if ks[-1] != T:
        ks.append(T)
    return ks


def run_pendulum_experiment(cfg: ScenarioConfig) -> list[ExperimentRecord]:
    """Trace-capped S-risk designs for every input target, plus the ball design."""
    if cfg.scenario != PENDULUM:
        raise ValueError("pendulum runs take the pendulum scenario")
    (sigma,) = cfg.sigma_grid
    pp = build_pendulum_problem(T=cfg.horizon, sigma=sigma)
    ball = Ellitope.ellipsoid(np.eye(pp.n) / pp.n)
    targets = [("single", t) for t in range(1, pp.T + 1)]
    targets += [("block", K) for K in pendulum_block_sizes(pp.T)]
    records = []
    # (S, H, tau) and the ball estimate per target matrix: input_block(1)
    # is input_row(T), so that row reuses the w_T solves
    solved = {}
    for kind, idx in targets:
        t0 = time.perf_counter()
        label = f"w_{idx}" if kind == "single" else f"w_block_{idx}"
        rec = ExperimentRecord(PENDULUM, pp.n, sigma, cfg.seed, np.nan,
                               extras={"target": label, "kind": kind, "index": idx})
        try:
            B = pp.input_row(idx) if kind == "single" else pp.input_block(idx)
            key = (B.shape, B.tobytes())
            if key not in solved:
                solved[key] = (
                    optimize_S_bisection(pp.A, B, sigma, trace_cap=cfg.trace_cap),
                    build_linear_estimate(EstimationProblem(pp.A, B, sigma, ball)))
            (S_opt, H_opt, tau), ball_est = solved[key]
            eigs = np.sort(np.linalg.eigvalsh(S_opt))[::-1]
            rec.opt_upper = ball_est.risk_bound
            rec.extras.update(opt_b=tau, bayes_field=float(np.sqrt(2.0 * tau)),
                              ball_risk=ball_est.risk_bound,
                              s_eigenvalues=eigs.tolist())
        except Exception as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.wall_time_ms = 1e3 * (time.perf_counter() - t0)
        records.append(rec)
    if cfg.out_dir is not None:
        write_records(records, cfg)
    return records


# ---------------------------------------------------------------------------
# invariants and serialization


def check_invariants(records: list, cfg: ScenarioConfig) -> list:
    """Return a list of human-readable violations (empty = all good)."""
    bad = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            bad.append(f"row {i}: {rec.error}")
            continue
        if not rec.sandwich_ok():
            bad.append(f"row {i}: lower bound exceeds upper bound")
    if cfg.scenario == PENDULUM:
        prev = None
        for rec in records:
            if rec.error is not None:
                continue
            ex = rec.extras
            if ex["bayes_field"] > ex["ball_risk"] * (1 + 1e-7) + 1e-9:
                bad.append(f"{ex['target']}: ball risk below the trace-capped field")
            if ex["kind"] == "block":
                # rounding slack: each level is optimize_S_bisection's closed
                # form, whose crossing is found by Newton steps safeguarded
                # by bisection on the ridge weight, to the same adjacent-float
                # bracket
                if prev is not None and ex["opt_b"] < prev - 1e-6 * max(1.0, abs(prev)):
                    bad.append(f"{ex['target']}: Opt[B] decreased along nested blocks")
                prev = ex["opt_b"]
    return bad


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "" if not np.isfinite(x) else format(x, ".17g")
    return str(x)


def _subopt_row(rec: ExperimentRecord) -> list:
    lbs = rec.lb_by_method
    return [rec.scenario, rec.n, rec.sigma, rec.seed, rec.opt_upper,
            lbs.get(RHO_FAMILY), lbs.get(CONTRACTION), lbs.get(QUADRATIC_APPROX),
            lbs.get(PARALLELOTOPE), rec.factor_numeric, rec.factor_computable,
            rec.error or ""]


def _pendulum_row(rec: ExperimentRecord) -> list:
    ex = rec.extras
    eigs = ex.get("s_eigenvalues")
    return [rec.scenario, ex.get("target", ""), rec.n, rec.sigma, rec.seed,
            ex.get("opt_b"), ex.get("bayes_field"), ex.get("ball_risk"),
            ";".join(format(e, ".17g") for e in eigs) if eigs else "",
            rec.error or ""]


def write_records(records: list, cfg: ScenarioConfig, workers: int = 1) -> Path:
    """CSV (deterministic bytes) plus a JSON sidecar with config and timings;
    workers is the number of processes the rows ran in, recorded in the
    sidecar only (the CSV does not depend on it)."""
    solver_tol = gap_tolerance()      # a bad value raises before any file is written
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.scenario == PENDULUM:
        columns, rows = PENDULUM_COLUMNS, [_pendulum_row(r) for r in records]
    else:
        columns, rows = SUBOPT_COLUMNS, [_subopt_row(r) for r in records]
    csv_path = out / f"{cfg.scenario}.csv"
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")

    sidecar = {
        "config": asdict(cfg),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "solver_tol": solver_tol,
            "workers": workers,
        },
        "n_records": len(records),
        "wall_time_ms": [round(r.wall_time_ms, 3) for r in records],
        "errors": [r.error for r in records if r.error],
    }
    (out / f"{cfg.scenario}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return csv_path
