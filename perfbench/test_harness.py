"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

from the repository root. The smoke test runs every workload's code path on
tiny instances (n = 4, pendulum horizon 2), untraced and traced.
"""

import json
import os
import subprocess
import sys

from spans import Recorder, self_time_by_name, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _recorder(ticks):
    it = iter(ticks)
    return Recorder(clock=lambda: next(it))


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 6]; other root [11, 12]
    rec = _recorder([0, 1, 2, 3, 4, 5, 6, 10, 11, 12])
    root = rec.open("root")
    a = rec.open("a")
    leaf = rec.open("leaf")
    rec.close(leaf)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    with rec.span("a"):
        pass
    assert self_times(rec.spans) == [6, 2, 1, 1, 1]
    by_name = self_time_by_name(rec.spans)
    assert by_name == {"root": 6, "a": 3, "leaf": 1, "b": 1}
    # self times partition the time the root spans cover
    assert sum(by_name.values()) == 10 + 1


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["c", 3.0, 7.0, 0]]
    assert self_times(spans)[0] == 4.0


def _run(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--smoke", "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_workload_untraced_and_traced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run("--trace", trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        want = {f"{w}/{m['name']}" for w in workloads for m in spec[section]}
        assert set(out["metrics"]) == want
    count = {name: m["value"] for name, m in out["metrics"].items()}
    assert count["pendulum-t8/s_risk.solves"] > 0
    assert count["design-n24/s_risk.solves"] == 0
    assert count["bounds-n16/lower_bound.refined_calls"] > 0
