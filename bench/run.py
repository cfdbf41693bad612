"""epsap benchmark: a closed loop of seeded CLI queries in one process.

    python3 bench/run.py --workload cube-md --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One client sends the next query only when the previous one has answered.
Each query calls ``epsap.cli.main(argv)`` with stdout captured, and its
answer is checked.  A pass is the seeded stream of one workload
(``streams.py``); passes repeat until ``--seconds`` have elapsed, and a
started pass always completes.

Interpreter speed on a shared host drifts by up to 2x within seconds (other
tenants, frequency changes).  So every query and set-up is bracketed by
calibration slices, a fixed loop of Fraction arithmetic whose objects die at
once, so that the program's garbage cannot change its time.  Times are
reported in reference seconds: measured seconds * NOMINAL_SLICE_S / (mean of
the two neighbouring slices).  Raw seconds are printed in the report lines.

--trace 0 reports the end-to-end metrics, timed with tracing off:
  throughput_qps  median over passes of answered queries / the time spent
                  in all queries of the pass
  query_p50_s     median latency of the answered queries
  query_p90_s     90th-percentile latency (nearest rank)
  setup_s         median of nine set-ups: a fresh import of every epsap
                  module plus generation of the workload's input files
  peak_rss_mb     peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of ``tracer.py``, as medians over the traced passes, plus
trace.overhead_frac = traced query time / untraced query time - 1, and
search.nodes, the sum of the ``nodes`` fields the CLI printed.  Span times
are raw seconds.

A query fails when it raises, exits with an unexpected code, or answers
wrongly; failed queries give no latency sample.  Queries are never retried
and the recursion limit is left alone.  Report lines go first; the last line
of stdout is one JSON object with correct, attempted, failed and metrics.
Exit code 2, with no result line, means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import streams
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so printed paths match across checkouts
SETUPS = 9
SLICE_LOOPS = 500
NOMINAL_SLICE_S = 0.001  # about one slice on a lightly loaded 2-CPU Xeon host
MODULES = ("search", "geometry", "density", "colorings", "formats", "cli")


class Missing(Exception):
    """The package sources are not in this checkout."""


def import_epsap() -> dict:
    """Import every epsap module from ROOT/src afresh; name -> module."""
    src = ROOT / "src"
    if not (src / "epsap" / "cli.py").is_file():
        raise Missing(f"no epsap sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "epsap" or n.startswith("epsap.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"epsap.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != src / "epsap":
        raise Missing(f"epsap imported from {modules['cli'].__file__}, not {src}")
    return modules


def run_query(cli, query, trace=None, tracer=None):
    """Run one query; returns (seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_query(trace)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(query.argv))
    except Exception as exc:  # a crash is a failed query, not a harness error
        return time.perf_counter() - t0, out.getvalue(), f"raised {exc!r}"[:200]
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_query(wall)
    text = out.getvalue()
    try:
        answer = json.loads(text) if text.strip() else None
    except ValueError:
        answer = None
    try:
        problem = query.check(rc, answer)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problem = f"answer has the wrong shape: {exc!r}"
    if problem is None and query.then is not None:
        query.then(answer)
    return wall, text, problem


def slice_time() -> float:
    """Small-Fraction construction and comparison, like the 1-D kernels.

    Each Fraction dies at once, so the slice leaves the collector's counts
    where it found them."""
    t0 = time.perf_counter()
    best = Fraction(0)
    for i in range(SLICE_LOOPS):
        x = Fraction(i % 97 - 48, i % 13 + 1)
        if x > best:
            best = x
    return time.perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    return seconds * NOMINAL_SLICE_S * 2 / (before + after)


class Pass:
    """The outcome of running every unit of the stream once."""

    def __init__(self):
        self.latencies = []  # reference seconds of the answered queries
        self.raw = []  # their measured seconds
        self.busy = 0.0  # reference seconds of all queries
        self.failures = []  # (argv, reason)
        self.wrong = 0  # answered, but the answer failed its check
        self.attempted = 0
        self.nodes = 0
        self.stdout = hashlib.sha256()

    @property
    def answered(self) -> int:
        return self.attempted - len(self.failures)


def run_pass(cli, units, tracer=None, first_trace=0) -> Pass:
    result = Pass()
    before = slice_time()
    for unit in units:
        for query in unit:
            wall, text, problem = run_query(cli, query, first_trace + result.attempted,
                                            tracer)
            after = slice_time()
            seconds = to_reference(wall, before, after)
            before = after
            result.attempted += 1
            result.busy += seconds
            result.stdout.update(text.encode("utf-8"))
            if problem is None:
                result.latencies.append(seconds)
                result.raw.append(wall)
                result.nodes += _nodes(text)
            else:
                result.failures.append((" ".join(query.argv)[:100], problem))
                result.wrong += not problem.startswith("raised")
    return result


def _nodes(text: str) -> int:
    try:
        return int(json.loads(text).get("nodes", 0))
    except (ValueError, AttributeError):
        return 0


def set_up(workload: str, seed: int, pins: dict):
    """Import the package and write the stream's inputs.

    Returns (modules, units, reference seconds, raw seconds)."""
    workdir = WORK / f"{workload}-s{seed}"
    before = slice_time()
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    modules = import_epsap()
    units = streams.build_stream(workload, seed, workdir, pins)
    wall = time.perf_counter() - t0
    return modules, units, to_reference(wall, before, slice_time()), wall


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seed, seconds, pins) -> tuple:
    setups = [set_up(workload, seed, pins) for _ in range(SETUPS)]
    modules, units = setups[-1][:2]
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(modules["cli"], units))
    latencies = [x for p in passes for x in p.latencies]
    raw = [x for p in passes for x in p.raw]
    p90 = nearest_rank(latencies, 0.9) if latencies else math.nan
    metrics = {
        "throughput_qps": (statistics.median(p.answered / p.busy for p in passes), "1/s"),
        "query_p50_s": (statistics.median(latencies) if latencies else math.nan, "s"),
        "query_p90_s": (p90, "s"),
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for x in latencies if x > p90)
    notes = [f"{len(passes)} passes of {passes[0].attempted} queries in "
             f"{time.perf_counter() - t0:.1f} s, closed loop, 1 client",
             f"{len(latencies)} latency samples, {beyond} beyond p90",
             f"setup_s is the median of {SETUPS} set-ups",
             f"raw seconds: p50 {statistics.median(raw):.4g}, "
             f"p90 {nearest_rank(raw, 0.9):.4g}, "
             f"setup {statistics.median(s[3] for s in setups):.4g}"]
    return passes, metrics, notes


def measure_traced(workload, seed, seconds, pins) -> tuple:
    modules, units = set_up(workload, seed, pins)[:2]
    cli = modules["cli"]
    passes, samples, overheads = [], [], []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        # alternate which side goes first, so drift within the run cancels
        if len(samples) % 2:
            with Tracer(modules) as tracer:
                traced = run_pass(cli, units, tracer, first_trace=1)
            plain = run_pass(cli, units)
        else:
            plain = run_pass(cli, units)
            with Tracer(modules) as tracer:
                traced = run_pass(cli, units, tracer, first_trace=1)
        passes += [plain, traced]
        sample = tracer.metrics()
        sample["search.nodes"] = traced.nodes
        samples.append(sample)
        overheads.append(traced.busy / plain.busy - 1)
    units_of = {"_s": "s", "calls": "count", "nodes": "count", "bytes": "B"}
    metrics = {}
    for name in samples[0]:
        unit = next((u for suffix, u in units_of.items() if name.endswith(suffix)), "ratio")
        metrics[name] = (statistics.median(s[name] for s in samples), unit)
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    notes = [f"{len(samples)} untraced + traced pass pairs of {passes[0].attempted} "
             f"queries in {time.perf_counter() - t0:.1f} s"]
    return passes, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        pins = streams.load_pins()
        measure_fn = measure_traced if args.trace else measure
        passes, metrics, notes = measure_fn(args.workload, args.seed, args.seconds, pins)
    except Missing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORK / f"{args.workload}-s{args.seed}", ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    wrong = sum(p.wrong for p in passes)
    digest = passes[0].stdout.hexdigest()
    pinned = pins["stdout_sha256_seed0"].get(args.workload)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ({failed} of {attempted})")
    for argv_text, reason in sorted(set(f for p in passes for f in p.failures)):
        print(f"    failed: {argv_text}: {reason}")
    match = "" if args.seed != 0 else (
        " (matches the seed-0 pin)" if digest == pinned else " (DIFFERS from the seed-0 pin)")
    print(f"  stdout_sha256 {digest}{match}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
