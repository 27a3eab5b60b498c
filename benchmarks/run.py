"""blochx benchmark: three workloads, end-to-end metrics, and a traced run
for per-layer metrics.

    python3 benchmarks/run.py --workload collapse_mc --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``collapse_mc``, ``direction_sweep`` and
``cli_mix``, each a closed loop of one operation at a time from this one
process (``cli_mix`` runs one child process at a time).  The seed makes
every input; the library receives only the generated inputs.

``--trace 0`` sets up, runs one warm-up cycle, then runs whole cycles of
operations for ``--seconds`` seconds and until at least ``MIN_OPS``
operations ran, setting up again at ``SETUP_SLOTS`` points spread over the
run.  It prints the end-to-end metrics: ``setup_s`` (the fastest of
those set-ups), ``ops_per_s`` (operations completed per second of the timed
cycles, checks included, set-ups not), ``op_p50_ms`` and ``op_p90_ms``
(latency of one operation, its input and check excluded), ``peak_rss_mb``
(this process; for ``cli_mix`` the largest child, from ``os.wait4``) and
``samples_per_s`` (Monte Carlo draws per second of the timed cycles:
collapse draws, or random directions in ``direction_sweep``; every cycle
repeats the same operations, so it is a fixed multiple of ``ops_per_s``).

``--trace 1`` alternates untraced and traced passes for ``--seconds``
seconds.  A pass is the workload's set-up plus a fixed number of its
operations, in-process (``cli_mix`` through ``blochx.cli.main``).
It prints ``<layer>.calls`` and ``<layer>.self_s`` (median over passes)
for the nine layers, ``generators.stack_bytes``,
``measurement.samples_per_s``, ``measurement.peak_bytes_per_sample``,
``serialize.bytes_out``, ``cli.import_ms`` and ``trace.overhead_ratio``,
and writes the spans of the first traced pass under ``.bench_work/``.
A layer or counter the workload never reaches reads 0.  Counts repeat
exactly for a given seed.

Every operation is checked; failures are reported as ``failed`` of
``attempted`` and the run exits 1 if any check failed.  ``--tiny`` runs
each workload once at small sizes, for the self-test in
``bench_selftest.py``.  The last line of standard output is the result as
JSON; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("collapse_mc", "direction_sweep", "cli_mix")

# set-up runs at this many points spread over the run, each time repeated
# for at least SETUP_SLOT_S; setup_s is the fastest of all those builds
SETUP_SLOTS = 10
SETUP_SLOT_S = 0.2
MIN_OPS = 100  # so that at least 10 operations fall beyond the p90
TIMED_CAP_S = 120.0
IMPORT_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one cycle at small sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def run_cycles(ops, reps, latencies=None):
    """Run ``ops`` once per repetition in ``reps``; return (attempted,
    failed).  The latency of ``ops[i]``, its input and check excluded, is
    appended to ``latencies[i]`` when ``latencies`` is given."""
    attempted = failed = 0
    for rep in reps:
        for i, op in enumerate(ops):
            attempted += 1
            elapsed = 0.0
            try:
                x = op.make(rep)
                start = time.perf_counter()
                out = op.call(x)
                elapsed = time.perf_counter() - start
                ok = op.check(x, out)
            except Exception:  # a failing operation is counted, not fatal
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"operation {op.name!r} failed (repetition {rep})", file=sys.stderr)
                failed += 1
            if latencies is not None:
                latencies[i].append(elapsed)
    return attempted, failed


def set_up(build, args, work, times):
    """Build the inputs at least once and for ``SETUP_SLOT_S``, appending
    each build's time to ``times``; return the last build."""
    slot_start = time.perf_counter()
    while True:
        plan = None  # free the previous inputs, so that peak RSS holds one set
        start = time.perf_counter()
        plan = build(args.seed, args.tiny, work)
        times.append(time.perf_counter() - start)
        if args.tiny or time.perf_counter() - slot_start >= SETUP_SLOT_S:
            return plan


def untraced_run(build, args, work):
    setup_times, child_rss_kb = [], []
    plan = set_up(build, args, work, setup_times)
    attempted = failed = 0
    if not args.tiny:
        attempted, failed = run_cycles(plan.ops, [0])  # warm-up
        plan.child_rss_kb.clear()

    by_op: list[list[float]] = [[] for _ in plan.ops]
    timed_s = 0.0
    start = time.perf_counter()
    interval = args.seconds / SETUP_SLOTS
    next_setup = start + interval
    for rep in itertools.count(1):
        cycle_start = time.perf_counter()
        a, f = run_cycles(plan.ops, [rep], by_op)
        now = time.perf_counter()
        timed_s += now - cycle_start
        attempted, failed = attempted + a, failed + f
        if args.tiny or now - start >= TIMED_CAP_S or (
                now - start >= args.seconds and rep * len(plan.ops) >= MIN_OPS):
            break
        if now >= next_setup:
            # set-up again, so that set-up times sample the whole run
            child_rss_kb += plan.child_rss_kb
            plan = None
            plan = set_up(build, args, work, setup_times)
            next_setup += interval
    child_rss_kb += plan.child_rss_kb

    latencies = list(itertools.chain.from_iterable(by_op))
    p50, p90 = statistics.quantiles(latencies, n=10, method="inclusive")[4:9:4]
    rss_kb = max(child_rss_kb) if child_rss_kb else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cycles = len(by_op[0])
    # Co-tenants of a shared host slow stretches of a second or more by up
    # to ~1.8x.  A set-up of 10-500 ms falls inside one, and the median
    # set-up of a run spread 0.3 over seeds; the fastest of the builds
    # spread over the run measures the code rather than them.
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "ops_per_s": (len(latencies) / timed_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "samples_per_s": (cycles * sum(op.samples for op in plan.ops) / timed_s, "1/s"),
    }
    notes = {"set_ups": len(setup_times),
             "operations_timed": len(latencies),
             "beyond_p90": sum(1 for x in latencies if x > p90),
             "error_rate": failed / attempted}
    return metrics, attempted, failed, notes


def traced_run(build, args, work):
    import tracer

    def one_pass():
        plan = build(args.seed, args.tiny, work)
        return run_cycles(plan.traced_ops, range(plan.pass_cycles))

    attempted, failed = one_pass()  # warm-up
    ratios, tracers = [], []
    start = time.perf_counter()
    while True:
        spans = tracer.Tracer()
        walls = {}
        # alternate which side of the pair runs first
        for traced in ((False, True) if len(tracers) % 2 == 0 else (True, False)):
            if traced:
                spans.install()
            t0 = time.perf_counter()
            try:
                a, f = one_pass()
            finally:
                walls[traced] = time.perf_counter() - t0
                spans.uninstall()
            attempted, failed = attempted + a, failed + f
        ratios.append(walls[True] / walls[False])
        tracers.append(spans)
        if args.tiny or time.perf_counter() - start >= args.seconds:
            break

    stats = [t.layer_stats() for t in tracers]
    calls = stats[0][0]
    first = tracers[0]
    counts_repeat = all(s[0] == calls for s in stats) and all(
        (t.stack_bytes, t.bytes_out, t.mc_samples)
        == (first.stack_bytes, first.bytes_out, first.mc_samples) for t in tracers)
    if not counts_repeat:
        print("error: span counts differ between traced passes", file=sys.stderr)
        failed += 1

    # a layer or counter the workload never reaches reads 0
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (statistics.median(s[1][layer] for s in stats), "s")
    metrics["generators.stack_bytes"] = (first.stack_bytes, "bytes")
    sampled = first.mc_samples > 0
    metrics["measurement.samples_per_s"] = (statistics.median(
        t.mc_samples / t.sampler_seconds() for t in tracers) if sampled else 0.0, "1/s")
    metrics["measurement.peak_bytes_per_sample"] = (statistics.median(
        t.mc_peak_bytes / t.mc_samples for t in tracers) if sampled else 0.0, "B/sample")
    metrics["serialize.bytes_out"] = (first.bytes_out, "bytes")
    metrics["cli.import_ms"] = (import_ms(1 if args.tiny else IMPORT_REPEATS), "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")

    first.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    notes = {"traced_passes": len(tracers), "spans_per_pass": len(first.spans),
             "error_rate": failed / attempted}
    return metrics, attempted, failed, notes


def _child_seconds(code: str, env) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def import_ms(repeats: int) -> float:
    """Median of ``import blochx.cli`` minus an empty interpreter run, in ms."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return 1e3 * statistics.median(
        _child_seconds("import blochx.cli", env) - _child_seconds("pass", env)
        for _ in range(repeats))


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode(), get_threads()
    return None, None


def environment(args) -> dict:
    import numpy as np
    with open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), platform.processor())
    openblas, threads = _openblas()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "openblas_threads": threads,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blochx" / "__init__.py").is_file():
        print(f"error: no blochx sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blochx
    if Path(blochx.__file__).resolve().parent != (SRC / "blochx").resolve():
        print(f"error: imported blochx from {blochx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    build = workloads.BUILDERS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(build, args, work)
        else:
            metrics, attempted, failed, notes = untraced_run(build, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:36} {value:>16.6g} {unit}")
    for name, value in notes.items():
        print(f"{args.workload:16} {name:36} {value:>16.6g}")
    env = environment(args)
    print("environment " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
