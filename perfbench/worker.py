"""One benchmark process: set up, then run a workload's command list.

Started by run.py with the BLAS thread variables pinned to 1, so it must be
a fresh interpreter: the variables only take effect before numpy loads.

    worker.py --root DIR --workload NAME --seed N --tmp DIR --t0 T
              [--setup-only] [--seconds S] [--trace] [--smoke]
              [--reference PATH] [--spans PATH]

Setup is interpreter start (the parent's monotonic clock at launch, --t0)
to ``ellest`` imported and the instances generated and written. The result
goes to result.json in --tmp.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads as wl

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PROBLEMS = 20
# untraced passes per run at least, so that wall_s is a median of two or more
MIN_PASSES = 2

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "s_risk.optimize_S": "s_risk.optimize_S_s",
    "estimator.design": "estimator.design_s",
    "lower_bound.m_star": "lower_bound.m_star_s",
    "lower_bound.refined": "lower_bound.refined_s",
    "robust.design": "robust.design_s",
    "robust.verify": "robust.verify_s",
    "sdp_relaxation.relax": "sdp_relaxation.relax_s",
    "sdp_relaxation.round": "sdp_relaxation.round_s",
    "cones.scale_G": "cones.scale_G_s",
    "ipm.conelp": "ipm.self_s",
    "ipm.kkt_factor": "ipm.kkt_factor_s",
    "ipm.kkt_solve": "ipm.kkt_solve_s",
    "cones.max_step": "cones.max_step_s",
    "cones.scaling": "cones.scaling_s",
    "cones.jordan_mul": "cones.jordan_mul_s",
    "solver.build": "solver.build_s",
    "solver.lower": "solver.lower_s",
    "cli.cmd": "cli.cmd_s",
    "io.read": "io.read_s",
    "io.write": "io.write_s",
}


def _solve_facts(args, kwargs, res) -> dict:
    c = args[0] if args else kwargs["c"]
    dims = args[3] if len(args) > 3 else kwargs["dims"]
    return {"vars": int(len(c)), "cone_len": int(dims.cone_len),
            "status": res.status, "iterations": int(res.iterations),
            "reduced": res.message.startswith("converged at reduced accuracy")}


# (module, attribute, span); "Class.method" wraps a method
LAYERS = (
    ("ellest.io", "read_matrix", "io.read"),
    ("ellest.io", "read_ellitope", "io.read"),
    ("ellest.io", "write_matrix", "io.write"),
    ("ellest.cli", "_emit", "io.write"),
    ("ellest.experiments", "write_records", "io.write"),
    ("ellest.estimator", "build_linear_estimate", "estimator.design"),
    ("ellest.lower_bound", "m_star", "lower_bound.m_star"),
    ("ellest.lower_bound", "refined_lower_bound", "lower_bound.refined"),
    ("ellest.s_risk", "optimize_S_bisection", "s_risk.optimize_S"),
    ("ellest.robust", "build_robust_estimate", "robust.design"),
    ("ellest.robust", "verify_robust_feasibility", "robust.verify"),
    ("ellest.sdp_relaxation", "relax_quadratic_max", "sdp_relaxation.relax"),
    ("ellest.sdp_relaxation", "round_rademacher", "sdp_relaxation.round"),
    ("ellest.solver.ipm", "conelp", "ipm.conelp"),
    ("ellest.solver.cones", "max_step", "cones.max_step"),
    ("ellest.solver.cones", "jordan_mul", "cones.jordan_mul"),
    ("ellest.solver.cones", "Scaling.compute", "cones.scaling"),
    ("ellest.solver.cones", "Scaling.scale_G", "cones.scale_G"),
    ("ellest.solver.program", "Builder.build", "solver.build"),
    ("ellest.solver.program", "ConicProgram.lower", "solver.lower"),
)
AFTER = {
    "ipm.conelp": _solve_facts,
    "sdp_relaxation.round": lambda args, kwargs, out: {"trials": int(out[2])},
}


def install_layers(pt) -> list:
    """Wrap each layer's functions (see README.md for the layer map).

    Returns the layers this version of ellest no longer has; their metrics
    read 0. Later changes may remove a function, and a change that claims a
    gain may not edit the benchmark, so a missing layer is not an error."""
    import scipy.linalg

    missing = []
    for modname, attr, span in LAYERS:
        owner, _, name = attr.rpartition(".")
        try:
            mod = importlib.import_module(modname)
            if owner:
                pt.method(getattr(mod, owner), name, span, AFTER.get(span))
            else:
                pt.function(getattr(mod, name), span, AFTER.get(span))
        except (ImportError, AttributeError, KeyError, LookupError):
            missing.append(f"{modname}.{attr}")
    ipm = sys.modules.get("ellest.solver.ipm")
    la = scipy.linalg
    if getattr(ipm, "scipy", None) is not None:
        pt.module_attr(ipm, "scipy", {"linalg": spans.ModuleProxy(
            la, lu_factor=pt.wrapper(la.lu_factor, "ipm.kkt_factor"),
            lu_solve=pt.wrapper(la.lu_solve, "ipm.kkt_solve"))})
    else:
        missing.append("ellest.solver.ipm.scipy.linalg.lu_factor/lu_solve")
    return missing


def _percentile(values: list, q: int) -> float:
    """q-th percentile by statistics.quantiles (inclusive), 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _row_times(pass_dir: str) -> list:
    """Per-row wall times, in seconds, from the experiment JSON sidecars."""
    out = []
    for scenario in ("ellipsoid", "pendulum"):
        path = os.path.join(pass_dir, scenario, f"{scenario}.json")
        if os.path.exists(path):
            with open(path) as fp:
                out += [ms / 1e3 for ms in json.load(fp)["wall_time_ms"]]
    return out


def layer_metrics(rec, cpu: float, pass_dir: str) -> dict:
    sp = rec.spans
    by_name = spans.self_time_by_name(sp)
    m = {metric: by_name.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    count = lambda name: sum(1 for s in sp if s[0] == name)  # noqa: E731
    m["estimator.design_calls"] = count("estimator.design")
    m["lower_bound.refined_calls"] = count("lower_bound.refined")
    m["sdp_relaxation.round_trials"] = sum(
        p["trials"] for i, p in rec.payload.items() if sp[i][0] == "sdp_relaxation.round")
    solves = [(i, rec.payload[i]) for i, s in enumerate(sp) if s[0] == "ipm.conelp"]
    durations = [sp[i][2] - sp[i][1] for i, _ in solves]
    iters = sum(p["iterations"] for _, p in solves)
    m["s_risk.solves"] = sum(1 for i, _ in solves
                             if spans.has_ancestor(sp, i, "s_risk.optimize_S"))
    m["solver.solves"] = len(solves)
    m["solver.iterations"] = iters
    m["solver.iters_per_solve"] = iters / len(solves) if solves else 0.0
    m["solver.reduced_accuracy_solves"] = sum(1 for _, p in solves if p["reduced"])
    m["solver.nonoptimal_solves"] = sum(1 for _, p in solves if p["status"] != "optimal")
    m["solver.max_vars"] = max((p["vars"] for _, p in solves), default=0)
    m["solver.max_cone_len"] = max((p["cone_len"] for _, p in solves), default=0)
    m["solver.solve_s_p50"] = _percentile(durations, 50)
    m["solver.solve_s_p90"] = _percentile(durations, 90)
    m["ipm.iter_ms"] = 1e3 * sum(durations) / iters if iters else 0.0
    m["experiments.row_s_p50"] = _percentile(_row_times(pass_dir), 50)
    m["process.cpu_s"] = cpu
    return m


def os_threads() -> int:
    """Threads of this process; OpenBLAS starts its pool when it loads."""
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    env = {v: os.environ.get(v) for v in THREAD_VARS}
    numpy.ones((64, 64)) @ numpy.ones((64, 64))
    # the worker starts no threads itself, so any beyond the first are BLAS's
    env["os_threads"] = os_threads()
    env["blas_threads_pinned"] = env["os_threads"] == 1
    env.update(numpy=numpy.__version__, scipy=scipy.__version__,
               numpy_openblas=blas(numpy), scipy_openblas=blas(scipy),
               nproc=len(os.sched_getaffinity(0)), python=sys.version.split()[0])
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import ellest
    from ellest.cli import main as cli_main

    if not os.path.abspath(ellest.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported ellest from {ellest.__file__}, not from {src}")
    inputs = os.path.join(args.tmp, "inputs")
    wl.write_inputs(args.workload, args.seed, args.smoke, inputs)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        return _write(os.path.join(args.tmp, "result.json"), result)

    reference = None
    if args.reference:
        with open(args.reference) as fp:
            reference = json.load(fp)[args.workload]
    state = {"attempted": 0, "failed": 0, "problems": []}

    pass_dirs = (os.path.join(args.tmp, f"pass{k}") for k in itertools.count())

    def run_pass(rec=None):
        """Run the command list once and check its outputs. Returns the pass's
        wall time (its cli.main calls, summed) and, when traced, its layer
        metrics."""
        out = next(pass_dirs)
        os.makedirs(out)
        if rec is not None:
            rec.reset()          # keep only this pass's spans
        wall, cpu0 = 0.0, time.process_time()
        for cmd in wl.commands(args.workload, args.seed, args.smoke, inputs, out):
            t = time.perf_counter()
            if rec is None:
                rc = cli_main(cmd.argv)
            else:
                with rec.span("cli.cmd"):
                    rc = cli_main(cmd.argv)
            wall += time.perf_counter() - t
            if rc != 0:
                ops = [wl.Op(label, [f"{cmd.argv[0]} exited with code {rc}"])
                       for label in cmd.labels]
            else:
                ops = cmd.check()
                if reference is not None:
                    wl.compare(ops, reference)
            for op in ops:
                state["attempted"] += 1
                if op.problems:
                    state["failed"] += 1
                    state["problems"] += [f"{op.label}: {p}" for p in op.problems]
        layers = None
        if rec is not None:
            layers = layer_metrics(rec, time.process_time() - cpu0, out)
        shutil.rmtree(out)
        return wall, layers

    def run_for(budget: float, min_passes: int, rec=None) -> list:
        """At least min_passes passes, then more while the median pass so far
        would still end within budget seconds of the start."""
        start, passes = time.monotonic(), []
        while True:
            passes.append(run_pass(rec))
            typical = statistics.median(w for w, _ in passes)
            if len(passes) >= min_passes and time.monotonic() - start + typical > budget:
                return passes

    if not args.trace:
        result["wall_s"] = [w for w, _ in run_for(args.seconds, MIN_PASSES)]
    else:
        untraced = [w for w, _ in run_for(args.seconds / 2, 1)]
        rec = spans.Recorder()
        pt = spans.Patcher(rec)
        result["missing_layers"] = install_layers(pt)
        try:
            traced = run_for(args.seconds / 2, 1, rec)
        finally:
            pt.restore()
        if args.spans:
            rec.dump(args.spans)
        layers = {k: statistics.median(p[k] for _, p in traced) for k in traced[0][1]}
        layers["trace.overhead_frac"] = (statistics.median(w for w, _ in traced)
                                         / statistics.median(untraced) - 1)
        result["layers"] = layers
        result["wall_s"] = untraced
    result.update(
        attempted=state["attempted"], failed=state["failed"],
        problems=state["problems"][:MAX_PROBLEMS],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment())
    return _write(os.path.join(args.tmp, "result.json"), result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
