"""Self-test of the benchmark: two traced passes of each workload give
identical work counts, every span fires on the workload it serves, and the
benchmark refuses to run without the gw24 sources.

    python3 -m pytest benchmarks -q      # about a minute on two cores
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import run  # noqa: E402
from spans import COUNTS, Tracer  # noqa: E402

SPANS = {
    "solve-cold": ("cli.main", "table.build_rows", "table.render",
                   "schubert.seed_invariants", "engine.solve_degree",
                   "wdvv.solve_order", "wdvv.build_equation", "wdvv.at"),
    "verify-exhaustive": ("cli.main", "schubert.classical_check",
                          "schubert.seed_invariants", "cache.load_store",
                          "engine.verify_store", "wdvv.series"),
    "cache-warm": ("cli.main", "cache.load_store", "cache.save_store",
                   "table.build_rows", "table.render",
                   "schubert.seed_invariants", "wdvv.build_equation",
                   "wdvv.at"),
}
# Per-layer metrics that must be positive on one traced batch.
POSITIVE = {
    "solve-cold": ("wdvv.at.self_s", "wdvv.solve_order.self_s",
                   "engine.solve_degree.self_s"),
    "verify-exhaustive": ("wdvv.series.computed", "wdvv.series.pair_products",
                          "engine.verify_store.self_s"),
    "cache-warm": ("cache.load_store.self_s", "cache.load_store.sample_s",
                   "cache.save_store.s", "cache.bytes_read",
                   "cache.bytes_written", "cache.rejected"),
}
# Work counters with known values (d<=9 solve; d<=7 exhaustive check).
EXACT = {
    "solve-cold": {"engine.relations_assembled": 5906,
                   "engine.values_committed": 2925},
    "verify-exhaustive": {"engine.relations_checked": 58222},
    "cache-warm": {},
}


@pytest.fixture
def work_dir():
    path = os.path.join(BENCH_DIR, ".work", f"selftest-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def traced_batch(workload):
    tally = run.Tally(run.Uncalibrated())
    tracer = Tracer()
    tracer.install()
    try:
        _, wall = tally.run_batch(workload.batch(0))
    finally:
        tracer.uninstall()
    return tally, tracer.span_calls(), tracer.summary(wall)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_and_spans_fire(name, work_dir):
    workload = run.make_workload(name, work_dir, seed=11)
    run.set_up(workload)
    passes = [traced_batch(workload) for _ in range(2)]
    for tally, calls, layers in passes:
        assert not tally.wrong
        assert [s for s in SPANS[name] if not calls[s]] == []
        assert [m for m in POSITIVE[name] if not layers[m] > 0] == []
        assert {m: layers[m] for m in EXACT[name]} == EXACT[name]
    first, second = (p[2] for p in passes)
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}


def test_benchmark_json_lists_the_printed_metrics():
    from spans import PER_LAYER

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
            ] == list(PER_LAYER + run.TRACE_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(work_dir):
    shutil.copytree(BENCH_DIR, os.path.join(work_dir, "benchmarks"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "solve-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_run_size_and_cache_warm_inputs_follow_the_seed(work_dir):
    """A run's requests depend only on --seed and --seconds, so attempted
    and failed repeat exactly for a seed."""
    workload = run.make_workload("cache-warm", work_dir, seed=5)
    run.set_up(workload)

    def inputs():
        seen = []
        for k in range(run.batch_count(workload, 3)):
            for req in workload.batch(k):
                probe = None
                if req.kind.startswith("import"):
                    with open(req.argv[-1]) as handle:
                        probe = handle.read()
                seen.append((req.argv, probe))
        return seen

    assert run.batch_count(workload, 3) == run.MIN_BATCHES
    assert inputs() == inputs()
