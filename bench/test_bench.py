"""Tests of the benchmark harness itself: seeding, tracing and answer checks."""

import importlib
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import streams
from tracer import WRAPPED, Tracer

SRC = str(run.ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

COUNTS = ("calls", "nodes", "prune_ratio", "accept_ratio", "feasible_ratio",
          "per_cube", "formats.bytes")


def epsap_modules() -> dict:
    return {name: importlib.import_module(f"epsap.{name}") for name in run.MODULES}


def snapshot(units, workdir: Path):
    argvs = [q.argv for unit in units for q in unit]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_gives_same_argv_and_input_files(workload, tmp_path):
    pins = streams.load_pins()
    first = snapshot(streams.build_stream(workload, 7, tmp_path, pins), tmp_path)
    shutil.rmtree(tmp_path)
    second = snapshot(streams.build_stream(workload, 7, tmp_path, pins), tmp_path)
    assert first == second
    other = streams.build_stream(workload, 8, tmp_path / "other", pins)
    assert [q.argv for u in other for q in u] != first[0]


def test_tracer_restores_every_wrapped_function():
    modules = epsap_modules()
    before = {(m, a): getattr(modules[m], a) for m, a, *_ in WRAPPED}
    with pytest.raises(RuntimeError):
        with Tracer(modules):
            assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
            raise RuntimeError("a query crashed")
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


@pytest.fixture(scope="module", params=streams.WORKLOADS)
def passes(request, tmp_path_factory):
    """One untraced and two traced passes over every fourth unit of a stream."""
    modules = epsap_modules()
    workdir = tmp_path_factory.mktemp(request.param)
    units = streams.build_stream(request.param, 3, workdir, streams.load_pins())[::4]
    plain = run.run_pass(modules["cli"], units)
    traced = []
    for _ in range(2):
        with Tracer(modules) as tracer:
            done = run.run_pass(modules["cli"], units, tracer)
        traced.append((done, {**tracer.metrics(), "search.nodes": done.nodes}))
    return plain, traced


def test_traced_and_untraced_runs_print_identical_stdout(passes):
    plain, traced = passes
    for done, _ in traced:
        assert done.stdout.hexdigest() == plain.stdout.hexdigest()
        assert done.failures == plain.failures
    assert plain.wrong == 0


def test_two_traced_runs_give_identical_counts(passes):
    _, ((_, first), (_, second)) = passes
    counts = {k: v for k, v in first.items() if k.endswith(COUNTS)}
    assert counts == {k: second[k] for k in counts}
    assert len(counts) >= 10


def test_exact_witness_check():
    # the published example: {1, 3, 6} at eps = 1/3 with a = 4/5, d = 12/5
    witness = {"a": {"num": 4, "den": 5}, "d": {"num": 12, "den": 5}}
    assert streams.witness_error((1, 3, 6), witness, Fraction(1, 3)) is None
    assert streams.witness_error((1, 3, 7), witness, Fraction(1, 3)) is not None


def test_exits_2_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cube-md", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
