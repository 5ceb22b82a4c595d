#!/usr/bin/env python3
"""Benchmark of the noncolliding package: one workload per process.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Lines
before it print every metric with its unit, the environment, and any
failed check.  ``--workload all`` runs each workload in its own process,
untraced and traced.  See ``perfbench/README.md``.
"""

import os

# BLAS is pinned to one thread before numpy loads: the command line's pool
# of worker threads on top of multithreaded BLAS oversubscribes the cores,
# which made the 61-point Airy curve 3x slower and swing by +-20%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
BLAS_PIN_REASON = ("CLI worker threads plus multithreaded BLAS oversubscribe the cores "
                   "and make timings swing")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("curves", "point-queries", "samplers")
SETUP_PROBES = 2        # extra cold set-ups in fresh processes; setup_s is the median of 3
MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 120


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (used by perfbench/selfcheck.py)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_package():
    """Import noncolliding from this checkout's src/, or stop with an error."""
    src = ROOT / "src"
    if not (src / "noncolliding" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package source at %s; run from a checkout" % src)
    sys.path.insert(0, str(src))
    import noncolliding

    if not Path(noncolliding.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("perfbench: imported %s instead of the checkout's source"
                         % noncolliding.__file__)


def set_up(args):
    """Import plus the first, cold call of every family or sampler used."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workload.cold_calls()
    return workload, time.perf_counter() - t0


def probe_setups(args, count):
    """Time ``count`` more cold set-ups, each in a fresh process, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n" + done.stderr)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "noncolliding").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args):
    import numpy as np
    from noncolliding.defaults import DEFAULTS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_commit": git_commit() or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_pin_reason": BLAS_PIN_REASON,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cli_default_pool": DEFAULTS.get("threads"),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure(workload, args, tally):
    """Warm-up pass, then timed passes until --seconds is used up.

    Returns the warm-up pass's outcomes, the untraced passes as (wall,
    seconds per call) and, with --trace 1, the traced ones as (wall, spans,
    t_begin, t_end); the two alternate.  Outputs of timed passes are dropped
    once checked, so they do not add to the peak memory.
    """
    warm = workload.run_pass()
    workload.check(warm, tally)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
        t_begin = time.perf_counter()
        try:
            outcomes = workload.run_pass()
        finally:
            t_end = time.perf_counter()
            if trace_this:
                tracer.uninstall()
        workload.check(outcomes, tally)
        if trace_this:
            traced.append((t_end - t_begin, tracer.take(), t_begin, t_end))
        else:
            plain.append((t_end - t_begin, [o.seconds for o in outcomes]))
        del outcomes
        typical = statistics.median([p[0] for p in plain] + [p[0] for p in traced])
        enough = len(plain) >= MIN_PASSES and (
            tracer is None or len(traced) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() + typical > deadline:
            return warm, plain, traced


def end_to_end(workload, warm, plain, setups):
    """End-to-end metrics from the untimed set-ups and the timed passes.

    A timing is the fastest of the run's passes, for the whole pass and for
    each call.  On a shared 2-core VM the host's speed drifts in phases of
    tens of seconds (one curves run: 4.21 5.45 5.16 5.40 5.09 s for identical
    passes); over nine seeds the median pass spread 0.24 of its median
    between runs and the fastest pass 0.10.  Interference only adds time,
    so the fastest pass is the steadier estimate of the program's cost.
    """
    import numpy as np

    walls = [w for w, _ in plain]
    wall = min(walls)
    per_call = [min(seconds[k] for _, seconds in plain) for k in range(len(warm))]
    p50, p90 = (float(x) for x in np.percentile(per_call, (50, 90)))
    values = workload.values(warm)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "values_per_s": (values / wall, "1/s"),
        "value_p50_ms": (p50 * 1e3, "ms"),
        "value_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "passes": len(plain), "pass_walls_s": walls, "median_pass_s": statistics.median(walls),
        "setups_s": setups,
        "values_per_pass": values, "calls_per_pass": len(per_call),
        "latency_samples": len(per_call) * len(plain),
    }
    # The call percentiles and airy_curve_s are printed but not bounded:
    # only point-queries has ten calls beyond its 90th percentile, and only
    # curves has the Airy curve.
    for k, o in enumerate(warm):
        if o.call.label == "airy-1t":
            metrics["airy_curve_s"] = (per_call[k], "s")
    return metrics, notes


def per_layer(plain, traced):
    import spans

    walls = [w for w, _, _, _ in traced]
    # the fastest traced pass, as for the untraced timings
    _, recorded, t_begin, t_end = min(traced, key=lambda p: p[0])
    metrics = spans.layer_metrics(recorded, t_begin, t_end)
    covered = sum(metrics[b][0] for b in spans.SELF_BUCKETS)
    print("# traced pass: layer self times %.6f s + other %.6f s = %.6f s; traced wall_s %.6f s"
          % (covered, metrics["trace.other_s"][0], covered + metrics["trace.other_s"][0],
             metrics["trace.wall_s"][0]))
    overhead = min(walls) / min(w for w, _ in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def write_spans(path, traced):
    with open(path, "w") as fh:
        for index, (_, recorded, _, _) in enumerate(traced):
            for span in recorded:
                record = span.as_record()
                record["pass"] = index
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(spec_names, metrics, tally, env, notes, args):
    for key in ("git_commit", "source_sha256", "python", "numpy", "blas", "blas_threads",
                "blas_pin_reason", "nproc", "affinity", "cli_default_pool", "seed"):
        print("# env %s: %s" % (key, env[key]))
    for key, value in notes.items():
        print("# %s: %s" % (key, value))
    for key, dev in sorted(tally.worst.items()):
        print("# worst deviation, %s: %.3g" % (key, dev))
    for message in tally.messages:
        print("# FAILED %s" % message)
    for name, (value, unit) in metrics.items():
        print("metric %-44s %.6g %s" % (name, value, unit))
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print("metric %-44s %.6g ratio  (%d of %d checks)"
          % ("fail_ratio", ratio, tally.failed, tally.attempted))
    missing = [n for n in spec_names if n not in metrics]
    if missing:
        raise SystemExit("perfbench: metrics not produced: %s" % ", ".join(missing))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in spec_names},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / (stem + ".json"), "w") as fh:
        json.dump({"env": env, "notes": notes, "result": result,
                   "all_metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                   "failures": tally.messages, "worst_deviation": tally.worst}, fh, indent=1)
    print(json.dumps(result))


def run_one(args):
    workload, setup_first = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    import checks

    env = environment(args)
    tally = checks.Tally()
    warm, plain, traced = measure(workload, args, tally)
    bench = spec()
    if args.trace:
        metrics = per_layer(plain, traced)
        names = [m["name"] for m in bench["per_layer"]]
        notes = {"traced_passes": len(traced), "untraced_passes": len(plain)}
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / ("%s-seed%d-spans.jsonl" % (args.workload, args.seed)), traced)
    else:
        setups = [setup_first] + probe_setups(args, 1 if args.tiny else SETUP_PROBES)
        metrics, notes = end_to_end(workload, warm, plain, setups)
        names = [m["name"] for m in bench["end_to_end"]]
    emit(names, metrics, tally, env, notes, args)
    return 0


def run_all(args):
    """Each workload in its own fresh process, untraced then traced."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            print("## %s trace=%d" % (name, trace), flush=True)
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results["%s/trace%d" % (name, trace)] = json.loads(done.stdout.splitlines()[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "runs": results}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
