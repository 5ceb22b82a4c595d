#!/usr/bin/env python3
"""Quick self-check of the benchmark harness (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload at its tiny size, untraced and traced, and asserts
that the last line of each run is the result object with exactly the
metrics BENCHMARK.json names, that no check failed, and that the traced
layers' self times plus ``other`` add up to the traced wall time.  Then
it copies only BENCHMARK.json and perfbench/ into .perfbench_out/bare and
asserts that the benchmark refuses to run there.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("curves", "point-queries", "samplers")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench, workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, done.returncode, done.stderr[-3000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), "metric names differ"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m
    assert "metric fail_ratio" in done.stdout and " 0 ratio" in done.stdout
    if trace:
        saved = json.loads((ROOT / ".perfbench_out" / (
            "%s-seed7-trace1.json" % workload)).read_text())["all_metrics"]
        covered = sum(saved[b]["value"] for b in spans.SELF_BUCKETS)
        total = covered + saved["trace.other_s"]["value"]
        wall = saved["trace.wall_s"]["value"]
        assert abs(total - wall) <= 1e-9 * wall, (total, wall)
    print("ok  %-14s trace=%d  %d checks" % (workload, trace, result["attempted"]))


def check_bare_directory():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "point-queries", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "ran without the package source"
    assert '"correct"' not in done.stdout, "printed a result without the package source"
    print("ok  refuses to run without src/ (exit %d)" % done.returncode)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(bench, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
