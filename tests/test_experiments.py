"""Experiment drivers: oscillator discretization against direct integration,
record invariants, deterministic CSV output, and the rotated-spectrum
instance generator."""

import csv
import hashlib
import json

import numpy as np
import pytest

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


# --- oscillator discretization ---

def test_propagator_damping():
    pp = build_pendulum_problem(T=4)
    # eigenvalues of exp(delta*theta) have modulus e^(-kappa*delta/2)
    moduli = np.abs(np.linalg.eigvals(pp.P))
    np.testing.assert_allclose(moduli, np.exp(-pp.kappa * pp.delta / 2.0),
                               rtol=1e-12)


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


def test_pendulum_block_one_reuses_the_last_single_target(conelp_calls):
    cfg = ScenarioConfig(scenario=PENDULUM, sigma_grid=(0.075,), horizon=3)
    records = run_pendulum_experiment(cfg)
    # 3 single targets + blocks [1, 2, 3]: each single target solves its
    # S-optimization program (its one-row ball design is the closed form),
    # block 1 repeats w_3, and blocks 2 and 3 solve both programs
    assert len(records) == 6
    assert len(conelp_calls) == 3 + 2 * 2
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
