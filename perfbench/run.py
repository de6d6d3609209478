"""Benchmark entry point for ellest: run one workload (or all) and report.

Run from the repository root:

    python3 perfbench/run.py --workload design-n24 --seed 0 --seconds 30 --trace 0

Every measurement runs in a fresh worker process with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS pinned to 1. Set-up is repeated in
separate processes and its median reported. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import THREAD_VARS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7           # set-up samples per run, the worker's own included
RUN_DEADLINE_S = 170.0      # a run of one workload must end within 180 s
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
# left out of the check that a run leaves the tree as it found it
UNTRACKED = {".git", TMP_DIR, OUT_DIR, "__pycache__", ".bench_build", ".pytest_cache"}
REFERENCE = os.path.join(HERE, "reference.json")


def snapshot(root: str) -> dict:
    """relative path -> (size, mtime) of every file outside UNTRACKED."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            out[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return out


def tree_changes(before: dict, after: dict) -> list:
    changed = [p for p in after if before.get(p) != after[p]]
    removed = [p for p in before if p not in after]
    return sorted(changed + removed)


def git_commit(root: str) -> str:
    """HEAD of the git checkout at root; 'unknown' outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


class Deadline(Exception):
    pass


def spawn(root: str, env: dict, deadline: float, tmp: str, argv: list) -> dict:
    """Run one worker in tmp and return its result; the launch time is its t0."""
    os.makedirs(tmp)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
                             "--t0", repr(t0), "--tmp", tmp, *argv],
                            cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise Deadline(f"worker still running at the {RUN_DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(os.path.join(tmp, "result.json")) as fp:
        return json.load(fp)


def run_workload(args, root: str, env: dict, tmp: str, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    extra_setups = (2 if args.smoke else SETUP_REPEATS) - 1

    def setups(indices) -> list:
        return [spawn(root, env, deadline, os.path.join(tmp, f"setup{i}"),
                      common + ["--setup-only"])["setup_s"] for i in indices]

    # Set-up time shifts in steps lasting seconds, so samples taken back to
    # back move together; half are taken before the measuring worker and
    # half after it.
    before = setups(range(extra_setups // 2))
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tag = "-smoke" if args.smoke else ""
        extra += ["--trace", "--spans", os.path.join(
            root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}{tag}.json")]
    if args.seed == DEFAULT_SEED and not args.smoke:
        extra += ["--reference", REFERENCE]
    res = spawn(root, env, deadline, os.path.join(tmp, "run"), common + extra)
    res["setup_samples"] = before + [res["setup_s"]] + setups(
        range(extra_setups // 2, extra_setups))
    return res


def end_to_end(res: dict) -> dict:
    return {"wall_s": statistics.median(res["wall_s"]),
            "setup_s": statistics.median(res["setup_samples"]),
            "peak_rss_mb": res["peak_rss_mb"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time per run: at least two passes, more while "
                         "the next should end within it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances (n = 4, horizon 2), no reference comparison")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ellest", "cli.py")):
        print(f"error: {root} holds no ellest sources (src/ellest); run from the "
              "repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    overridden = {v: env[v] for v in THREAD_VARS if env.get(v, "1") != "1"}
    env.update({v: "1" for v in THREAD_VARS})
    tmp = os.path.join(root, TMP_DIR, f"run-{os.getpid()}")
    before = snapshot(root)
    results, problems = {}, []
    try:
        for name in (WORKLOADS if args.workload == "all" else (args.workload,)):
            os.makedirs(os.path.join(tmp, name))
            sub = argparse.Namespace(**{**vars(args), "workload": name})
            try:
                results[name] = run_workload(sub, root, env, os.path.join(tmp, name),
                                             time.monotonic() + RUN_DEADLINE_S)
            except (Deadline, RuntimeError, OSError, ValueError) as exc:
                problems.append(f"{name}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, TMP_DIR))
        except OSError:
            pass
    problems += [f"run modified the tree: {p}" for p in tree_changes(before, snapshot(root))]

    attempted = failed = 0
    metrics = {}
    for name, res in results.items():
        env_rec = {**res["environment"], "git_commit": git_commit(root),
                   "thread_vars_overridden": overridden}
        print("environment", name, json.dumps(env_rec, sort_keys=True))
        if not env_rec["blas_threads_pinned"]:
            print(f"warning: {name} ran {env_rec['os_threads']} threads, so BLAS was "
                  "not pinned to 1", file=sys.stderr)
        if res.get("missing_layers"):
            print(f"note: {name}: not in this version, metrics read 0: "
                  f"{', '.join(res['missing_layers'])}", file=sys.stderr)
        attempted += res["attempted"]
        failed += res["failed"]
        problems += [f"{name}: {p}" for p in res["problems"]]
        values = res["layers"] if args.trace else end_to_end(res)
        frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"{name}: passes {len(res['wall_s'])}, setup samples "
              f"{len(res['setup_samples'])}, fail_frac {frac:g} "
              f"({res['failed']}/{res['attempted']} operations)")
        for m in wanted:
            if m["name"] not in values:
                problems.append(f"{name}: metric {m['name']} not measured")
                continue
            print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
            key = m["name"] if args.workload != "all" else f"{name}/{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and failed == 0 and len(results) > 0
    # a run that got no operation done reports one attempted, one failed
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
