"""Experiment drivers: oscillator discretization against direct integration,
record invariants, deterministic CSV output, and the rotated-spectrum
instance generator."""

import csv
import hashlib
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.linalg

from ellest import experiments
from ellest.experiments import (
    BOX,
    DEFAULT_SIGMA_GRID,
    ELLIPSOID,
    PENDULUM,
    PENDULUM_COLUMNS,
    SUBOPT_COLUMNS,
    ExperimentRecord,
    ScenarioConfig,
    build_pendulum_problem,
    check_invariants,
    gen_random_rotated_A,
    pendulum_block_sizes,
    rk4_positions,
    run_pendulum_experiment,
    run_suboptimality_experiment,
    write_records,
)
from ellest.rng import stream
from ellest.solver import set_program_dump

from conftest import optimize_S_midpoint


# --- oscillator discretization ---

def test_propagator_damping():
    pp = build_pendulum_problem(T=4)
    # eigenvalues of exp(delta*theta) have modulus e^(-kappa*delta/2)
    moduli = np.abs(np.linalg.eigvals(pp.P))
    np.testing.assert_allclose(moduli, np.exp(-pp.kappa * pp.delta / 2.0),
                               rtol=1e-12)


@pytest.mark.parametrize("delta, kappa, eigenfreq", [
    (1.0, 0.05, 0.125), (0.5, 0.3, 0.01), (2.0, 0.01, 1e-4), (0.1, 1.0, 2.0)])
def test_propagator_matches_expm(delta, kappa, eigenfreq):
    # the closed form of exp(delta*theta) against scipy's Pade approximant
    pp = build_pendulum_problem(delta, kappa, eigenfreq, T=2)
    np.testing.assert_allclose(pp.P, scipy.linalg.expm(delta * pp.theta), rtol=1e-14, atol=0)


def test_trajectory_operator_matches_recurrence():
    pp = build_pendulum_problem(T=12)
    rng = stream(71, 0)
    for _ in range(5):
        x = rng.normal(size=pp.n)
        np.testing.assert_allclose(pp.A @ x, pp.simulate(x), atol=1e-10)


def test_trajectory_operator_matches_rk4():
    # full-horizon check against direct integration of the ODE
    pp = build_pendulum_problem(T=32)
    rng = stream(71, 1)
    x = rng.normal(size=pp.n)
    direct = rk4_positions(pp, x, substeps=200)
    np.testing.assert_allclose(pp.A @ x, direct, atol=1e-8)


def test_input_row_indexing():
    pp = build_pendulum_problem(T=5)
    # w_t sits at column 1 + t of [z0(2); w_1..w_T]
    for t in range(1, 6):
        row = pp.input_row(t)
        assert row.shape == (1, 7)
        assert row[0, 1 + t] == 1.0
        assert np.sum(np.abs(row)) == 1.0
    with pytest.raises(ValueError):
        pp.input_row(0)
    with pytest.raises(ValueError):
        pp.input_row(6)
    blk = pp.input_block(3)
    assert blk.shape == (3, 7)
    np.testing.assert_allclose(blk, np.vstack([pp.input_row(t) for t in (3, 4, 5)]))


def test_first_input_reaches_first_row():
    # w_1 influences r_1 through e_1' Q: A[0, 2] must be that response
    pp = build_pendulum_problem(T=6)
    assert pp.A[0, 2] == pytest.approx(pp.Q[0], rel=1e-12)
    # and no anticipation: w_t cannot affect earlier rows
    for t in range(2, 7):
        assert np.all(pp.A[: t - 1, 1 + t] == 0.0)


def test_block_sizes():
    assert pendulum_block_sizes(8) == [1, 2, 4, 8]
    assert pendulum_block_sizes(12) == [1, 2, 4, 8, 12]
    assert pendulum_block_sizes(1) == [1]


def test_build_pendulum_validation():
    with pytest.raises(ValueError):
        build_pendulum_problem(T=0)
    with pytest.raises(ValueError):
        build_pendulum_problem(kappa=0.0)


# --- instance generator ---

def test_rotated_spectrum():
    A = gen_random_rotated_A(8, lam_max=1.0, lam_min=0.01, seed=0)
    np.testing.assert_allclose(np.sort(np.linalg.svd(A, compute_uv=False)),
                               np.sort(np.geomspace(0.01, 1.0, 8)), rtol=1e-10)


def test_rotated_seed_variation():
    A0 = gen_random_rotated_A(6, seed=0)
    A1 = gen_random_rotated_A(6, seed=1)
    assert not np.allclose(A0, A1)
    np.testing.assert_allclose(A0, gen_random_rotated_A(6, seed=0), atol=0.0)
    with pytest.raises(ValueError):
        gen_random_rotated_A(1)


# --- configuration ---

def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="spiral", n_grid=(8,), sigma_grid=(0.1,))
    with pytest.raises(ValueError):
        ScenarioConfig(scenario=ELLIPSOID, n_grid=(), sigma_grid=(0.1,))
    with pytest.raises(ValueError):
        ScenarioConfig(scenario=ELLIPSOID, n_grid=(8,), sigma_grid=(0.0,))
    with pytest.raises(ValueError):
        ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.1,), horizon=0)
    cfg = ScenarioConfig(scenario=BOX, n_grid=[4], sigma_grid=[0.1, 0.2])
    assert cfg.n_grid == (4,)
    assert cfg.sigma_grid == (0.1, 0.2)
    # the pendulum study runs at one sigma, by default build_pendulum_problem's
    assert ScenarioConfig(scenario=PENDULUM).sigma_grid == (0.075,)
    assert ScenarioConfig(scenario=BOX).sigma_grid == DEFAULT_SIGMA_GRID
    assert build_pendulum_problem(T=2).sigma == 0.075
    with pytest.raises(ValueError, match="one sigma"):
        ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.05, 0.1))


@pytest.mark.parametrize("scenario, field, value", [
    (PENDULUM, "n_grid", (8,)),
    (PENDULUM, "refine_deltas", (0.1,)),
    (ELLIPSOID, "horizon", 8),
    (BOX, "trace_cap", 2.0),
])
def test_scenario_config_rejects_fields_the_study_ignores(scenario, field, value):
    with pytest.raises(ValueError, match=f"{field} does not apply to the {scenario} study"):
        ScenarioConfig(scenario=scenario, **{field: value})


def test_sidecar_records_null_for_fields_the_study_ignores(tmp_path):
    for scenario, resolved, ignored in (
            (PENDULUM, {"horizon": 32, "trace_cap": 1.0}, ("n_grid", "refine_deltas")),
            (BOX, {"n_grid": [8, 16, 32], "refine_deltas": [0.1, 0.2]},
             ("horizon", "trace_cap"))):
        write_records([], ScenarioConfig(scenario=scenario, out_dir=str(tmp_path)))
        config = json.loads((tmp_path / f"{scenario}.json").read_text())["config"]
        assert {k: config[k] for k in resolved} == resolved
        assert all(config[k] is None for k in ignored)


# --- runs ---

def test_suboptimality_run_small(tmp_path, monkeypatch):
    calls, real = [], experiments.m_star

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(experiments, "m_star", counted)
    cfg = ScenarioConfig(scenario=ELLIPSOID, n_grid=(8,),
                         sigma_grid=(0.05, 0.25), out_dir=str(tmp_path))
    records = run_suboptimality_experiment(cfg)
    assert len(records) == 2
    assert len(calls) == 1                   # m_star does not depend on sigma
    for rec in records:
        assert rec.error is None
        assert rec.sandwich_ok()
        assert rec.opt_upper > 0
        assert rec.lb_by_method["rho_family"] > 0
        assert rec.factor_computable > 0
    assert check_invariants(records, cfg) == []
    # CSV written with the frozen header
    out = tmp_path / "ellipsoid.csv"
    assert out.exists()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SUBOPT_COLUMNS
    assert len(rows) == 3
    meta = json.loads((tmp_path / "ellipsoid.json").read_text())
    assert meta["n_records"] == 2
    assert meta["errors"] == []


def test_sidecar_records_the_solver_tolerance(tmp_path, monkeypatch):
    cfg = ScenarioConfig(scenario=BOX, n_grid=(4,), out_dir=str(tmp_path))
    write_records([], cfg)
    meta = json.loads((tmp_path / "box.json").read_text())
    assert meta["environment"]["solver_tol"] == 1e-8
    assert "tol_gap" not in meta["config"]
    monkeypatch.setenv("ESTIMATOR_SOLVER_TOL", "1e-6")
    write_records([], cfg)
    meta = json.loads((tmp_path / "box.json").read_text())
    assert meta["environment"]["solver_tol"] == 1e-6
    monkeypatch.setenv("ESTIMATOR_SOLVER_TOL", "0")
    cfg = ScenarioConfig(scenario=BOX, n_grid=(4,), out_dir=str(tmp_path / "bad"))
    with pytest.raises(ValueError, match="ESTIMATOR_SOLVER_TOL"):
        write_records([], cfg)
    assert not (tmp_path / "bad" / "box.csv").exists()


def test_failed_m_star_marks_every_sigma_row(monkeypatch):
    def fail(*a, **kw):
        raise RuntimeError("no m_star")
    monkeypatch.setattr(experiments, "m_star", fail)
    cfg = ScenarioConfig(scenario=BOX, n_grid=(4,), sigma_grid=(0.1, 0.2))
    records = run_suboptimality_experiment(cfg)
    assert [rec.error for rec in records] == ["RuntimeError: no m_star"] * 2


def test_csv_byte_determinism(tmp_path):
    digests = []
    for run in range(2):
        d = tmp_path / f"run{run}"
        d.mkdir()
        cfg = ScenarioConfig(scenario=BOX, n_grid=(6,), sigma_grid=(0.1,),
                             out_dir=str(d))
        run_suboptimality_experiment(cfg)
        payload = (d / "box.csv").read_bytes()
        digests.append(hashlib.sha256(payload).hexdigest())
    assert digests[0] == digests[1]


def _sweep_on(monkeypatch, cpus: int, out) -> tuple:
    """Run a 2-n x 2-sigma ellipsoid sweep with this many usable CPUs; return
    its CSV bytes and the sidecar's worker count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = ScenarioConfig(scenario=ELLIPSOID, n_grid=(4, 6), sigma_grid=(0.05, 0.25),
                         refine_deltas=(0.1,), out_dir=str(out))
    run_suboptimality_experiment(cfg)
    meta = json.loads((out / "ellipsoid.json").read_text())
    return (out / "ellipsoid.csv").read_bytes(), meta["environment"]["workers"]


def test_sweep_rows_fan_out_to_forked_workers(tmp_path, monkeypatch):
    # one usable CPU keeps the rows in this process, two fork a pool; the CSV
    # is the same bytes either way and no worker outlives the sweep
    pids, real = tmp_path / "pids.txt", experiments.build_linear_estimate

    def recorded(prob):
        with open(pids, "a") as fp:
            fp.write(f"{os.getpid()}\n")
        return real(prob)

    monkeypatch.setattr(experiments, "build_linear_estimate", recorded)
    ran_in = {}
    for cpus in (1, 2):
        pids.write_text("")
        ran_in[cpus] = _sweep_on(monkeypatch, cpus, tmp_path / f"cpus{cpus}")
        assert multiprocessing.active_children() == []
        row_pids = pids.read_text().split()
        assert len(row_pids) == 4
        assert (str(os.getpid()) in row_pids) == (cpus == 1)
    assert ran_in[1] == (ran_in[2][0], 1)
    assert ran_in[2][1] == 2
    assert threading.active_count() == 1


def test_program_dump_keeps_the_sweep_in_process(tmp_path, monkeypatch, conelp_calls):
    # dump files are numbered in one process's solve order: 1..k, no gap or overwrite
    prefix = tmp_path / "dump" / "prog"
    prefix.parent.mkdir()
    set_program_dump(str(prefix))
    try:
        csv_bytes, workers = _sweep_on(monkeypatch, 2, tmp_path / "out")
    finally:
        set_program_dump(None)
    assert workers == 1
    assert conelp_calls
    assert sorted(p.name for p in prefix.parent.iterdir()) == sorted(
        f"prog.{k}.json" for k in range(1, len(conelp_calls) + 1))
    assert csv_bytes == _sweep_on(monkeypatch, 1, tmp_path / "plain")[0]


def test_sweep_workers_rules(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [experiments._sweep_workers(rows) for rows in (1, 2, 8)] == [1, 2, 3]
    set_program_dump("unused-prefix")
    try:
        assert experiments._sweep_workers(8) == 1
    finally:
        set_program_dump(None)
    # fork is safe only from a single-threaded interpreter
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert experiments._sweep_workers(8) == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert experiments._sweep_workers(8) == 1


def test_pendulum_run_small(tmp_path):
    cfg = ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.075,), horizon=4,
                         out_dir=str(tmp_path))
    records = run_pendulum_experiment(cfg)
    # 4 single targets + blocks [1, 2, 4]
    kinds = [rec.extras["kind"] for rec in records]
    assert kinds.count("single") == 4
    assert kinds.count("block") == 3
    assert check_invariants(records, cfg) == []
    for rec in records:
        assert rec.error is None
        assert rec.extras["opt_b"] > 0
        # field bound dominated by the ball-design risk
        assert rec.extras["bayes_field"] <= rec.extras["ball_risk"] * (1 + 1e-7) + 1e-9
    # block values nondecreasing in K
    blocks = [r for r in records if r.extras["kind"] == "block"]
    taus = [r.extras["opt_b"] for r in blocks]
    assert all(taus[i] <= taus[i + 1] + 2e-4 for i in range(len(taus) - 1))
    out = tmp_path / "pendulum.csv"
    assert out.exists()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == PENDULUM_COLUMNS


@pytest.mark.parametrize("T", [8, 32])
def test_pendulum_csv_matches_the_midpoint_bisection(tmp_path, monkeypatch, T):
    # the S optimization's Newton search ends on the bracket that midpoint
    # bisection reaches, so the study writes the same bytes
    def csv_bytes(name):
        run_pendulum_experiment(ScenarioConfig(PENDULUM, horizon=T, out_dir=str(tmp_path / name)))
        return (tmp_path / name / "pendulum.csv").read_bytes()

    newton = csv_bytes("newton")
    monkeypatch.setattr(experiments, "optimize_S_bisection", optimize_S_midpoint)
    assert csv_bytes("midpoint") == newton


def test_pendulum_block_one_reuses_the_last_single_target(conelp_calls):
    cfg = ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.075,), horizon=3)
    records = run_pendulum_experiment(cfg)
    # 3 single targets + blocks [1, 2, 3]: the S optimization is a closed
    # form and the ball designs take the one-ellipsoid dual, so no conic
    # program is solved; block 1 repeats w_3
    assert len(records) == 6
    assert len(conelp_calls) == 0
    by_target = {rec.extras["target"]: rec for rec in records}
    last, block = by_target["w_3"], by_target["w_block_1"]
    assert block.error is None
    assert block.opt_upper == last.opt_upper
    for key in ("opt_b", "bayes_field", "ball_risk", "s_eigenvalues"):
        assert block.extras[key] == last.extras[key]


def test_record_sandwich_flags():
    rec = ExperimentRecord(scenario=ELLIPSOID, n=4, sigma=0.1, seed=0,
                           opt_upper=1.0, lb_by_method={"rho_family": 0.5})
    assert rec.sandwich_ok()
    rec_bad = ExperimentRecord(scenario=ELLIPSOID, n=4, sigma=0.1, seed=0,
                               opt_upper=1.0, lb_by_method={"rho_family": 1.5})
    assert not rec_bad.sandwich_ok()
    rec_err = ExperimentRecord(scenario=ELLIPSOID, n=4, sigma=0.1, seed=0,
                               opt_upper=1.0, error="solver blew up")
    assert not rec_err.sandwich_ok()
