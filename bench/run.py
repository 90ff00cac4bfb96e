"""gridlab benchmark: one client in a closed loop over a fixed request list.

    python3 bench/run.py --workload threshold-scan --seed 1 --seconds 30 --trace 0

The next request starts when the previous one returns. Set-up (importing
gridlab and generating the workload's inputs from the seed) is timed
``SETUP_REPEATS`` times; one untimed warm-up pass runs the first-sight
output checks; then whole passes repeat for ``--seconds``. A reference loop
timed around each set-up and request turns their times into reference
seconds (``request_latencies``). With ``--trace 0`` the last stdout line
carries the end-to-end metrics. With ``--trace 1`` the time is split
between untraced and traced passes, and the last line carries the
per-layer metrics, including the tracing overhead. The run
builds gridlab from ``src/`` next to this directory and exits 2 without a
result if it is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, Tracer, layer_metrics
from workloads import INCONCLUSIVE, OK, WORKLOADS, Failed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# Set-up times and request latencies are reported in reference seconds:
# seconds at the host speed at which reference_loop() takes this long (see
# request_latencies).
REFERENCE_S = 0.01
# The tail percentile is the one with TAIL_BEYOND samples above it in a run of
# ceil(TAIL_SAMPLES / requests per pass) passes. It is fixed per workload and
# taken over the requests' latencies, so a run with more passes estimates the
# same quantity.
TAIL_BEYOND = 10
TAIL_SAMPLES = 60

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("request_p50_s", "s", "lower"),
    ("request_tail_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("conclusive_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Tally:
    """Outcomes of every request run, the warm-up pass included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.failures: list = []

    def record(self, name: str, status: str) -> None:
        self.attempted += 1
        if status == INCONCLUSIVE:
            self.inconclusive += 1
        elif status != OK:
            self.failed += 1
            self.failures.append(f"{name}: {status}")


def import_gridlab():
    """Import gridlab afresh from src/, so each set-up pays the import."""
    for key in [k for k in sys.modules if k == "gridlab" or k.startswith("gridlab.")]:
        del sys.modules[key]
    gl = importlib.import_module("gridlab")
    if Path(gl.__file__).resolve().parent != SRC / "gridlab":
        raise RuntimeError(f"imported gridlab from {gl.__file__}, not from {SRC}")
    cli = importlib.import_module("gridlab.cli")
    importlib.import_module("gridlab.fileio")
    return gl, cli


def outcome(request, out, error, guard_exceeded) -> str:
    if isinstance(error, guard_exceeded):
        return INCONCLUSIVE
    if error is not None:
        return f"crashed: {error!r}"
    try:
        return request.check(out)
    except Failed as exc:
        return str(exc)
    except Exception as exc:  # a malformed output breaks the check itself
        return f"check raised {exc!r}"


# The reference loop's table: a thousand tuple keys, small enough to stay in
# the CPU caches whatever the workload keeps alive.
GAUGE_TABLE = {(a, b): (a * 31 + b) % 7 for a in range(32) for b in range(32)}


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: the speed gauge.

    Dict lookups with tuple keys, tuple indexing and integer arithmetic, the
    interpreter paths gridlab's kernels run. It allocates nothing that the
    garbage collector tracks and its data stays in cache, so its time follows
    the speed the host gives this core and not the workload's memory.
    """
    start = perf_counter()
    total = 0
    for _ in range(200):
        for key in GAUGE_TABLE:
            if GAUGE_TABLE[key] == 3:
                total += key[0] ^ key[1]
    return perf_counter() - start


def run_pass(workload, tally, guard_exceeded, tracer=None) -> tuple:
    """One pass over the request list.

    Returns each request's latency and the reference-loop times taken before
    the first request, between requests and after the last one.
    """
    latencies = []
    gauges = [reference_loop()]
    for request in workload.requests:
        if tracer is not None:
            tracer.request = request.name
            tracer.active = True
        out = error = None
        start = perf_counter()
        try:
            out = request.call()
        except Exception as exc:
            error = exc
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        tally.record(request.name, outcome(request, out, error, guard_exceeded))
        gauges.append(reference_loop())
    return latencies, gauges


def measure(workload, tally, guard_exceeded, seconds, tracer=None, per_pass=None) -> list:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, tally, guard_exceeded, tracer))
        if per_pass is not None:
            per_pass()
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def scaled(latencies, gauges) -> list:
    """Latencies in reference seconds; ``gauges`` has one reading more."""
    return [latency * 2 * REFERENCE_S / (gauges[i] + gauges[i + 1])
            for i, latency in enumerate(latencies)]


def request_latencies(passes) -> list:
    """Each request's latency in reference seconds, as its median over passes.

    A reference second is a second at the host speed at which
    ``reference_loop`` takes REFERENCE_S. On a shared host other tenants
    slow the machine by up to 1.6x for seconds or minutes at a time, so
    wall seconds of one run say as much about the neighbours as about
    gridlab. Each latency is scaled by REFERENCE_S over the mean of the two
    gauge readings taken right before and right after the request, which
    ran at the same host speed; the median over passes drops the requests
    whose speed changed in between.
    """
    columns = zip(*(scaled(latencies, gauges) for latencies, gauges in passes))
    return [statistics.median(column) for column in columns]


def end_to_end(passes, setup_times, tally) -> tuple:
    latencies = request_latencies(passes)
    tail_passes = math.ceil(TAIL_SAMPLES / len(latencies))
    percentile = 1 - TAIL_BEYOND / (tail_passes * len(latencies))
    rank = max(1, math.ceil(percentile * len(latencies)))
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": statistics.median(scaled([wall], gauges)[0]
                                     for wall, *gauges in setup_times),
        "run_s": sum(latencies),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": sorted(latencies)[rank - 1],
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "conclusive_ratio": 1 - tally.inconclusive / tally.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    wall = {"setup_s": statistics.median(setup[0] for setup in setup_times),
            "run_s": sum(statistics.median(column) for column in zip(*(p[0] for p in passes))),
            "reference_loop_s": statistics.median(g for p in passes for g in p[1])}
    tail = {"percentile": round(100 * percentile, 2), "requests": len(latencies),
            "samples": len(passes) * len(latencies), "requests_beyond": len(latencies) - rank}
    return values, tail, wall


def git_commit():
    """HEAD of the enclosing git checkout, read without running git."""
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


def run(args, workdir, tiny) -> dict:
    setup_times = []  # wall seconds, gauge readings before and after
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        start = perf_counter()
        gl, cli = import_gridlab()
        workload = WORKLOADS[args.workload](gl, cli, args.seed, workdir, tiny)
        setup_times.append((perf_counter() - start, before, reference_loop()))
    guard = gl.GuardExceeded
    tally = Tally()
    run_pass(workload, tally, guard)  # warm-up, with the first-sight checks
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(workload, tally, guard, budget)
    values, tail, wall = end_to_end(passes, setup_times, tally)
    info = {"workload": args.workload, "seed": args.seed, "commit": git_commit(),
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "requests_per_pass": len(workload.requests), "passes": len(passes),
            "setup_repeats": SETUP_REPEATS, "tail": tail, "wall": wall,
            "failed_ratio": tally.failed / tally.attempted,
            "inconclusive_ratio": tally.inconclusive / tally.attempted}
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    if args.trace:
        info["untraced"] = values
        tracer = Tracer()
        tracer.install()
        layers = []

        def fold_pass():
            spans = tracer.take()
            layers.append(layer_metrics(spans, workload.stress_request, workload.stress_guard))

        try:
            traced = measure(workload, tally, guard, args.seconds / 2, tracer, fold_pass)
        finally:
            tracer.uninstall()
        traced_run_s = sum(request_latencies(traced))
        values = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
        values["trace.overhead_s"] = traced_run_s - info["untraced"]["run_s"]
        info.update(traced_passes=len(traced), traced_run_s=traced_run_s,
                    trace_overhead_s=values["trace.overhead_s"])
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for line in tally.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"info": info}))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "gridlab" / "__init__.py").is_file():
        print(f"error: no gridlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    # A terminated run still shuts down its worker pools and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
