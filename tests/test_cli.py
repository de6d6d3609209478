"""Command line interface: every subcommand end to end on small instances,
JSON report structure, output files, and error exits."""

import contextlib
import io as io_lib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellest import Ellitope, io
from ellest.cli import main


@pytest.fixture
def inst(tmp_path):
    """Small scalar-friendly instance on disk: A, B, ellitope, S, and the
    robust command's perturbation factors E, F."""
    rng = np.random.default_rng(81)
    n, m, nu = 3, 3, 2
    A = rng.normal(size=(m, n))
    B = rng.normal(size=(nu, n))
    ell = Ellitope.ellipsoid(np.diag([1.0, 2.0, 3.0]))
    S = 0.1 * np.eye(n)
    paths = {
        "A": str(tmp_path / "A.csv"),
        "B": str(tmp_path / "B.csv"),
        "ell": str(tmp_path / "ell.json"),
        "S": str(tmp_path / "S.csv"),
        "E": str(tmp_path / "E.csv"),
        "F": str(tmp_path / "F.csv"),
        "dir": tmp_path,
    }
    io.write_matrix(paths["A"], A)
    io.write_matrix(paths["B"], B)
    io.write_ellitope(paths["ell"], ell)
    io.write_matrix(paths["S"], S)
    io.write_matrix(paths["E"], 0.2 * np.ones((2, m + nu)))
    io.write_matrix(paths["F"], 0.2 * np.ones((2, n)))
    return paths


def read_report(path) -> dict:
    with open(path) as fp:
        return json.load(fp)


def test_estimate_command(inst):
    rpt = str(inst["dir"] / "est.json")
    out_h = str(inst["dir"] / "H.csv")
    rc = main(["estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--out-h", out_h, "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["opt"] > 0
    assert report["risk_bound"] == pytest.approx(np.sqrt(report["opt"]), rel=1e-9)
    H = io.read_matrix(out_h)
    assert H.shape == (3, 2)
    assert max(report["residuals"].values()) < 1e-6


def test_lower_bound_command(inst):
    rpt = str(inst["dir"] / "lb.json")
    rc = main(["lower-bound", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--method", "rho_family", "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert 0 < report["lb"] <= report["opt_upper"] + 1e-9
    assert report["factor_computable"] > 0
    rc2 = main(["lower-bound", inst["A"], inst["B"], inst["ell"],
                "--sigma", "0.5", "--method", "contraction",
                "--delta", "0.1", "--report", rpt])
    assert rc2 == 0
    report2 = read_report(rpt)
    assert report2["method"] == "contraction"
    assert 0 <= report2["lb"] <= report2["opt_upper"] + 1e-9


def test_srisk_fixed_and_whole_space(inst):
    rpt = str(inst["dir"] / "sr.json")
    out_h = str(inst["dir"] / "Hs.csv")
    rc = main(["srisk", inst["A"], inst["B"], "--sigma", "0.5",
               "--ellitope", inst["ell"], "--S", inst["S"],
               "--out-h", out_h, "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["mode"] == "ellitope"
    assert report["tau"] > 0
    assert report["srisk_bound"] == pytest.approx(np.sqrt(report["tau"]), rel=1e-9)
    rc2 = main(["srisk", inst["A"], inst["B"], "--sigma", "0.5",
                "--whole-space", "--S", inst["S"],
                "--out-h", out_h, "--report", rpt])
    assert rc2 == 0
    assert read_report(rpt)["mode"] == "whole_space"


def test_srisk_optimize_s(inst):
    rpt = str(inst["dir"] / "sropt.json")
    out_s = str(inst["dir"] / "S_opt.csv")
    rc = main(["srisk", inst["A"], inst["B"], "--sigma", "0.5",
               "--optimize-S", "--trace-cap", "1.0",
               "--out-h", str(inst["dir"] / "Ho.csv"),
               "--out-s", out_s, "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["mode"] == "optimize_S"
    S = io.read_matrix(out_s)
    assert np.trace(S) <= 1.0 + 1e-6
    assert report["S_eigenvalues"] == sorted(report["S_eigenvalues"], reverse=True)


def test_robust_command(inst):
    rng = np.random.default_rng(82)
    E = rng.normal(size=(2, 5)) * 0.2    # p x (m + nu)
    F = rng.normal(size=(2, 3)) * 0.2
    pe, pf = str(inst["dir"] / "E.csv"), str(inst["dir"] / "F.csv")
    io.write_matrix(pe, E)
    io.write_matrix(pf, F)
    rpt = str(inst["dir"] / "rob.json")
    rc = main(["robust", inst["A"], inst["B"], inst["ell"], pe, pf,
               "--sigma", "0.5", "--radius", "0.3", "--samples", "100",
               "--out-h", str(inst["dir"] / "Hr.csv"), "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["feasible_fraction"] == 1.0
    assert report["mu"] >= 0
    assert report["rob_opt"] > 0


def test_sdprelax_command(inst):
    rng = np.random.default_rng(83)
    G = rng.normal(size=(3, 3))
    pc = str(inst["dir"] / "C.csv")
    io.write_matrix(pc, G @ G.T)
    rpt = str(inst["dir"] / "rel.json")
    out_x = str(inst["dir"] / "x.csv")
    rc = main(["sdprelax", pc, inst["ell"], "--budget", "50",
               "--out-x", out_x, "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert 0 < report["val_hat"] <= report["opt"] * (1 + 1e-7)
    assert report["ratio"] <= 1.0 + 1e-9
    assert report["factor_bound"] == pytest.approx(4.0 * np.log(5.0))
    x = io.read_matrix(out_x)
    assert x.shape == (1, 3)


def test_experiment_command(tmp_path):
    rpt = str(tmp_path / "exp.json")
    rc = main(["experiment", "ellipsoid", "--n", "6", "--sigma-grid", "0.1",
               "--out", str(tmp_path / "res"), "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["records"] == 1
    assert report["violations"] == []
    assert (tmp_path / "res" / "ellipsoid.csv").exists()
    assert (tmp_path / "res" / "ellipsoid.json").exists()


def test_experiment_pendulum_command(tmp_path):
    rpt = str(tmp_path / "pend.json")
    rc = main(["experiment", "pendulum", "--horizon", "3",
               "--out", str(tmp_path / "res"), "--report", rpt])
    assert rc == 0
    report = read_report(rpt)
    assert report["records"] == 6   # singles 1..3 plus blocks [1, 2, 3]
    assert (tmp_path / "res" / "pendulum.csv").exists()


def test_dump_program(inst):
    prefix = str(inst["dir"] / "dump")
    rc = main(["--dump-program", prefix,
               "estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--out-h", str(inst["dir"] / "Hd.csv"),
               "--report", str(inst["dir"] / "d.json")])
    assert rc == 0
    dumped = sorted(inst["dir"].glob("dump.*.json"))
    assert dumped
    prog = json.loads(dumped[0].read_text())
    assert "num_vars" in prog


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["estimate", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv"),
               str(tmp_path / "nope.json"), "--sigma", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_value_exits_2(inst, capsys):
    rc = main(["estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "-1.0", "--out-h", str(inst["dir"] / "Hx.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_descriptor_exits_2(inst, capsys):
    bad = inst["dir"] / "bad.json"
    bad.write_text(json.dumps({"S": [np.eye(3).tolist()]}))   # no tset
    rc = main(["estimate", inst["A"], inst["B"], str(bad), "--sigma", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad.write_text(json.dumps({"S": [np.eye(3).tolist()], "tset": {"K": 1}}))
    rc = main(["estimate", inst["A"], inst["B"], str(bad), "--sigma", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_minimal_descriptor_loads(inst):
    """Hand-written descriptors may omit n and tset.K."""
    minimal = inst["dir"] / "minimal.json"
    minimal.write_text(json.dumps({
        "S": [np.eye(3).tolist()],
        "tset": {"variant": "unit_segment"},
    }))
    rpt = str(inst["dir"] / "min.json")
    rc = main(["estimate", inst["A"], inst["B"], str(minimal),
               "--sigma", "0.5", "--out-h", str(inst["dir"] / "Hmin.csv"),
               "--report", rpt])
    assert rc == 0
    assert read_report(rpt)["opt"] > 0


def test_solver_tol_env(inst, monkeypatch):
    monkeypatch.setenv("ESTIMATOR_SOLVER_TOL", "1e-6")
    rpt = str(inst["dir"] / "tol.json")
    rc = main(["estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--out-h", str(inst["dir"] / "Ht.csv"),
               "--report", rpt])
    assert rc == 0
    assert read_report(rpt)["opt"] > 0


@pytest.mark.parametrize("value", ["-1", "nan", "0", "inf", "abc"])
def test_solver_tol_env_rejects_bad_values(inst, monkeypatch, capsys, value):
    monkeypatch.setenv("ESTIMATOR_SOLVER_TOL", value)
    rc = main(["estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--out-h", str(inst["dir"] / "Ht.csv")])
    assert rc == 2
    assert "ESTIMATOR_SOLVER_TOL" in capsys.readouterr().err
    rc = main(["experiment", "ellipsoid", "--n", "4", "--sigma-grid", "0.1",
               "--out", str(inst["dir"] / "res")])
    assert rc == 2
    assert "ESTIMATOR_SOLVER_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_sdprelax_budget_below_one_exits_2(inst, capsys, conelp_calls, budget):
    pc = str(inst["dir"] / "C.csv")
    io.write_matrix(pc, np.eye(3))
    rc = main(["sdprelax", pc, inst["ell"], "--budget", budget])
    assert rc == 2
    assert "budget" in capsys.readouterr().err
    assert conelp_calls == []


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_robust_samples_below_one_exits_2(inst, capsys, conelp_calls, samples):
    rc = main(["robust", inst["A"], inst["B"], inst["ell"], inst["E"], inst["F"],
               "--sigma", "0.5", "--radius", "0.3", "--samples", samples,
               "--out-h", str(inst["dir"] / "Hr.csv")])
    assert rc == 2
    assert "N must be at least 1" in capsys.readouterr().err
    assert conelp_calls == []


def test_dump_program_round_trip(inst):
    """A dump file is the lowered program conelp solved: re-solving it gives
    the reported value and the written H."""
    from ellest.solver import ConeDims, conelp

    prefix = str(inst["dir"] / "rt")
    out_h, rpt = str(inst["dir"] / "Hrt.csv"), str(inst["dir"] / "rt.json")
    rc = main(["--dump-program", prefix, "estimate", inst["A"], inst["B"], inst["ell"],
               "--sigma", "0.5", "--out-h", out_h, "--report", rpt])
    assert rc == 0
    dump = json.loads((inst["dir"] / "rt.1.json").read_text())
    assert set(dump) == {"num_vars", "c", "G", "h", "dims", "var_table"}
    c, G, h = (np.array(dump[k], dtype=float) for k in ("c", "G", "h"))
    dims = ConeDims(l=dump["dims"]["l"], q=tuple(dump["dims"]["q"]),
                    s=tuple(dump["dims"]["s"]))
    res = conelp(c, G, h, dims)
    assert res.status == "optimal"
    assert res.x.shape == (dump["num_vars"],)
    assert res.pobj == pytest.approx(read_report(rpt)["opt"], rel=1e-9)
    lo, hi = dump["var_table"]["H"]
    H = io.read_matrix(out_h)
    np.testing.assert_allclose(res.x[lo:hi].reshape(H.shape), H, rtol=1e-9, atol=1e-12)


def test_unsupported_pnorm_ball_exits_2(inst, capsys):
    ell = inst["dir"] / "p3.json"
    ell.write_text(json.dumps({"S": [np.eye(3).tolist()],
                               "tset": {"variant": "pnorm_ball", "K": 1, "p": 3}}))
    rc = main(["estimate", inst["A"], inst["B"], str(ell), "--sigma", "0.5",
               "--out-h", str(inst["dir"] / "Hp.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "p=3" in err and "Traceback" not in err


ROBUST = ["robust", "{A}", "{B}", "{ell}", "{E}", "{F}"]


@pytest.mark.parametrize("name, argv", [
    pytest.param("sigma", ["estimate", "{A}", "{B}", "{ell}", "--sigma", "nan"],
                 id="estimate-sigma-nan"),
    pytest.param("sigma", ["estimate", "{A}", "{B}", "{ell}", "--sigma", "inf"],
                 id="estimate-sigma-inf"),
    pytest.param("sigma", ["experiment", "ellipsoid", "--n", "4", "--sigma-grid", "nan",
                           "--out", "res"], id="experiment-sigma-grid-nan"),
    pytest.param("sigma", ["experiment", "ellipsoid", "--n", "4", "--sigma-grid", "0.1,inf",
                           "--out", "res"], id="experiment-sigma-grid-inf"),
    pytest.param("trace_cap", ["experiment", "pendulum", "--horizon", "2",
                               "--trace-cap", "nan", "--out", "res"],
                 id="experiment-trace-cap-nan"),
    pytest.param("sigma", ["srisk", "{A}", "{B}", "--sigma", "nan", "--optimize-S"],
                 id="srisk-sigma-nan"),
    pytest.param("sigma", ["srisk", "{A}", "{B}", "--sigma", "nan", "--whole-space",
                           "--S", "{S}"], id="srisk-whole-space-sigma-nan"),
    pytest.param("trace_cap", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--optimize-S",
                               "--trace-cap", "nan"], id="srisk-trace-cap-nan"),
    pytest.param("trace_cap", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--optimize-S",
                               "--trace-cap", "inf"], id="srisk-trace-cap-inf"),
    pytest.param("radius", ROBUST + ["--sigma", "0.5", "--radius", "nan"], id="robust-radius-nan"),
    pytest.param("radius", ROBUST + ["--sigma", "0.5", "--radius", "inf"], id="robust-radius-inf"),
    pytest.param("sigma", ROBUST + ["--sigma", "nan", "--radius", "0.3"], id="robust-sigma-nan"),
])
def test_non_finite_parameters_exit_2(inst, capsys, conelp_calls, name, argv):
    rc = main([a.format(**inst) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert conelp_calls == []


@pytest.mark.parametrize("name, argv", [
    pytest.param("radius", ROBUST + ["--sigma", "0.5", "--radius", "-1"], id="robust-radius-neg"),
    pytest.param("sigma", ROBUST + ["--sigma", "-1", "--radius", "0.3"], id="robust-sigma-neg"),
    pytest.param("--delta", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                             "--method", "contraction", "--delta", "0.5"], id="delta-large"),
    pytest.param("--delta", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                             "--method", "contraction", "--delta", "0"], id="delta-zero"),
    pytest.param("--rho-grid", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                                "--rho-grid", "0,2"], id="rho-grid-out-of-range"),
    pytest.param("--rho-grid", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                                "--rho-grid", ","], id="rho-grid-empty"),
    pytest.param("--delta", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                             "--delta", "0.1"], id="delta-with-rho-family"),
    pytest.param("--rho-grid", ["lower-bound", "{A}", "{B}", "{ell}", "--sigma", "0.5",
                                "--method", "contraction", "--rho-grid", "0.5"],
                 id="rho-grid-with-refined-method"),
    pytest.param("refine_deltas", ["experiment", "ellipsoid", "--n", "4", "--sigma-grid", "0.1",
                                   "--refine-deltas", "0.5", "--out", "res"],
                 id="experiment-refine-deltas"),
    pytest.param("refine_deltas", ["experiment", "ellipsoid", "--n", "4", "--sigma-grid", "0.1",
                                   "--refine-deltas", ",", "--out", "res"],
                 id="experiment-refine-deltas-empty"),
    pytest.param("--whole-space", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--optimize-S",
                                   "--whole-space", "--S", "{S}", "--ellitope", "{ell}"],
                 id="srisk-optimize-S-whole-space"),
    pytest.param("--S", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--optimize-S", "--S", "{S}"],
                 id="srisk-optimize-S-weight"),
    pytest.param("--ellitope", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--optimize-S",
                                "--ellitope", "{ell}"], id="srisk-optimize-S-ellitope"),
    pytest.param("--ellitope", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--whole-space",
                                "--S", "{S}", "--ellitope", "{ell}"],
                 id="srisk-whole-space-ellitope"),
])
def test_out_of_range_parameters_exit_2(inst, capsys, conelp_calls, name, argv):
    rc = main([a.format(**inst) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert conelp_calls == []


@pytest.mark.parametrize("needle, argv", [
    pytest.param("S must be positive semidefinite", ROBUST + ["--sigma", "0.5", "--radius", "0.3",
                                                             "--S", "{neg}"], id="robust-S-not-psd"),
    pytest.param("S must be 3x3", ROBUST + ["--sigma", "0.5", "--radius", "0.3", "--S", "{small}"],
                 id="robust-S-shape"),
    pytest.param("S must be positive semidefinite",
                 ["srisk", "{A}", "{B}", "--sigma", "0.5", "--whole-space", "--S", "{neg}"],
                 id="whole-space-S-not-psd"),
    pytest.param("S must be 3x3",
                 ["srisk", "{A}", "{B}", "--sigma", "0.5", "--whole-space", "--S", "{small}"],
                 id="whole-space-S-shape"),
    pytest.param("S must be 3x3", ["srisk", "{A}", "{B}", "--sigma", "0.5", "--ellitope", "{ell}",
                                   "--S", "{small}"], id="fixed-S-shape"),
    pytest.param("C must be 3x3", ["sdprelax", "{small}", "{ell}"], id="sdprelax-C-shape"),
    pytest.param("A and B must have n = 2 columns",
                 ["robust", "{A}", "{B}", "{ell2}", "{E}", "{F}", "--sigma", "0.5", "--radius", "0.3"],
                 id="robust-ellitope-dimension"),
])
def test_bad_matrix_shape_or_weight_exits_2(inst, capsys, conelp_calls, needle, argv):
    neg, small = str(inst["dir"] / "neg.csv"), str(inst["dir"] / "small.csv")
    ell2 = str(inst["dir"] / "ell2.json")
    io.write_matrix(neg, -np.eye(3))
    io.write_matrix(small, np.eye(2))
    io.write_ellitope(ell2, Ellitope.ellipsoid(np.eye(2)))
    rc = main([a.format(neg=neg, small=small, ell2=ell2, **inst) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert conelp_calls == []


@pytest.mark.parametrize("text, line", [
    pytest.param("", 1, id="empty"),
    pytest.param("1,2,3\n1,2\n", 2, id="ragged"),
    pytest.param("1,2,3\n1,x,3\n", 2, id="unparsable"),
    pytest.param("1,2,3\n\n1,nan,3\n", 3, id="nan"),
    pytest.param("1,inf,3\n", 1, id="inf"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["estimate", "{bad}", "{B}", "{ell}", "--sigma", "0.5"], id="estimate"),
    pytest.param(["srisk", "{bad}", "{B}", "--sigma", "0.5", "--whole-space", "--S", "{B}"],
                 id="srisk"),
])
def test_malformed_matrix_csv_exits_2(inst, capsys, conelp_calls, text, line, argv):
    bad = inst["dir"] / "bad.csv"
    bad.write_text(text)
    rc = main([a.format(bad=bad, **inst) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:{line}:" in err and "Traceback" not in err
    assert conelp_calls == []


I3 = np.eye(3).tolist()


@pytest.mark.parametrize("desc, needle", [
    pytest.param({"S": [I3, [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]]}, "S[1]",
                 id="ragged"),
    pytest.param({"S": [I3, [[1.0, 0, 0], [0, float("nan"), 0], [0, 0, 1.0]]]}, "S[1]",
                 id="nan"),
    pytest.param({"S": [I3, [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]]]}, "S[1]", id="inf"),
    pytest.param({"S": [I3, [["a", 0, 0], [0, 1, 0], [0, 0, 1]]]}, "S[1]", id="unparsable"),
    pytest.param({"S": [I3, [1.0, 1.0, 1.0]]}, "S[1]", id="vector"),
    pytest.param({"S": [I3, np.eye(2).tolist()]}, "S[1]", id="shape"),
    pytest.param({"S": [I3, [[10 ** 400, 0, 0], [0, 1, 0], [0, 0, 1]]]}, "S[1]", id="huge-int"),
    pytest.param({"S": 5}, "descriptor needs", id="S-number"),
    pytest.param({"S": "S.csv"}, "descriptor needs", id="S-string"),
    pytest.param({"S": [I3], "tset": 5}, "descriptor needs", id="tset-number"),
    pytest.param([I3], "descriptor needs", id="not-an-object"),
    pytest.param({"S": [I3], "tset": {"variant": "pnorm_ball", "p": "x"}},
                 "tset: pnorm_ball requires a finite p", id="p-string"),
    pytest.param({"S": [I3], "tset": {"variant": "pnorm_ball", "p": float("nan")}},
                 "tset: pnorm_ball requires a finite p", id="p-nan"),
    pytest.param({"S": [I3], "tset": {"variant": "pnorm_ball", "p": float("inf")}},
                 "tset: pnorm_ball requires a finite p", id="p-inf"),
    pytest.param({"S": [I3], "tset": {"variant": "pnorm_ball", "p": 10 ** 400}},
                 "tset: pnorm_ball requires a finite p", id="p-huge-int"),
    pytest.param({"S": [I3], "tset": {"variant": "unit_box", "K": [1]}},
                 "tset: K must be a positive integer", id="K-list"),
    pytest.param({"S": [I3], "tset": {"variant": "unit_box", "K": 1.7}},
                 "tset: K must be a positive integer", id="K-fraction"),
    pytest.param({"S": [I3], "n": [3]}, "n must be a positive integer", id="n-list"),
    pytest.param({"S": [I3], "n": 2.5}, "n must be a positive integer", id="n-fraction"),
    pytest.param({"S": [I3], "n": "abc"}, "n must be a positive integer", id="n-string"),
])
def test_malformed_descriptor_entry_exits_2(inst, capsys, conelp_calls, desc, needle):
    if isinstance(desc, dict):
        desc = {"tset": {"variant": "unit_box"}, **desc}
    bad = inst["dir"] / "bad.json"
    bad.write_text(json.dumps(desc))
    rc = main(["estimate", inst["A"], inst["B"], str(bad), "--sigma", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}: {needle}" in err and "Traceback" not in err
    assert conelp_calls == []


# JSON values a descriptor field might hold: numbers of every kind (huge
# integers and non-finite floats included), strings, null, and nested lists
# and objects of those
_JSON_ATOMS = (st.none() | st.booleans() | st.integers(-3, 5) | st.just(10 ** 400)
               | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
_JSON = st.recursive(_JSON_ATOMS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_ENTRY = st.sampled_from(["1", "0", "-2.5", "nan", "inf", "1e400", "x", "", " ", "1" + "0" * 400])
_CSV = st.lists(st.lists(_ENTRY, min_size=1, max_size=4).map(",".join),
                max_size=4).map(lambda lines: "\n".join(lines) + "\n")
_NUMBER = st.sampled_from([1, 2, 3, 4, 0, -1, 2.5, 10 ** 400]) | _JSON
_ELEMENT = st.sampled_from([0, 1, 2, -1, 0.5, 10 ** 400, float("nan"), float("inf"), "a", None])
_MATRIX = st.one_of(
    st.just(I3),
    st.lists(st.lists(_ELEMENT, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(_ELEMENT, max_size=4), max_size=4),
    st.sampled_from(["bad.csv", "missing.csv", ""]),
    _JSON)
_TSET = st.fixed_dictionaries(
    {"variant": st.sampled_from(["unit_segment", "unit_box", "pnorm_ball", "x"])},
    optional={"K": _NUMBER, "p": _NUMBER})
_DESCRIPTOR = st.one_of(
    st.fixed_dictionaries({"S": st.lists(_MATRIX, min_size=1, max_size=3), "tset": _TSET},
                          optional={"n": _NUMBER, "K": _NUMBER}),
    _JSON)


def _estimate_exit(desc, csv: str, a_from_csv: bool) -> int:
    """Exit code of ellest estimate on descriptor desc, with csv written to
    bad.csv (A itself when a_from_csv); checks that exit 2 comes with an
    error message."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: os.path.join(tmp, f"{k}.csv") for k in ("A", "B", "bad")}
        io.write_matrix(paths["A"], np.eye(3))
        io.write_matrix(paths["B"], np.ones((1, 3)))
        with open(paths["bad"], "w") as fp:
            fp.write(csv)
        ell = os.path.join(tmp, "ell.json")
        with open(ell, "w") as fp:
            json.dump(desc, fp)
        err = io_lib.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io_lib.StringIO()):
            rc = main(["estimate", paths["bad" if a_from_csv else "A"], paths["B"], ell,
                       "--sigma", "0.5", "--out-h", os.path.join(tmp, "H.csv")])
    assert (rc == 2) == err.getvalue().startswith("error: ")
    return rc


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(desc=_DESCRIPTOR, csv=_CSV)
def test_descriptor_fuzz_exits_0_or_2(desc, csv):
    """Generated malformed descriptors (an S entry may name bad.csv): a
    result or exit 2 with a message, never an uncaught exception."""
    assert _estimate_exit(desc, csv, a_from_csv=False) in (0, 2)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(csv=_CSV)
def test_matrix_csv_fuzz_exits_0_or_2(csv):
    """Generated malformed CSVs read as A: a result or exit 2."""
    desc = {"S": [I3], "tset": {"variant": "unit_segment"}}
    assert _estimate_exit(desc, csv, a_from_csv=True) in (0, 2)
