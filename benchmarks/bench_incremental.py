"""Benchmark: cold-start vs warm-incremental battery reproduction.

Times the full experiment battery twice against one persistent
incremental store: a cold run over a fresh world store (everything
computes, everything is recorded), then a warm run over another fresh
world store (everything assembles from the store; no world is built).
The paper pipeline's redundancy argument only holds if the warm run is
dramatically cheaper *and* byte-identical -- both are asserted here,
and both timings land in ``BENCH_RESULTS.json`` under distinct keys so
the regression gate tracks each regime separately.

``benchmarks/output/INCREMENTAL.json`` additionally records the
cold/warm pair and their speedup for the ``scripts/bench.py`` gate
(warm must be >= 3x faster than cold).
"""

import json
import time

from repro.report.orchestrator import EXPERIMENT_REGISTRY, run_all
from repro.web.worldstore import WorldStore

from conftest import BENCH_CONFIG, OUTPUT_DIR

#: Cross-test state: the cold run's store directory, timing, and texts.
_STATE = {}

COLD_KEY = "bench_incremental::cold_start"
WARM_KEY = "bench_incremental::warm_incremental"


def _texts(report):
    return [(r.experiment_id, r.text) for r in report.results]


def test_cold_start_reproduce(tmp_path_factory, record_timing):
    root = tmp_path_factory.mktemp("incremental") / "cache"
    start = time.perf_counter()
    report = run_all(
        BENCH_CONFIG, workers=1, store=WorldStore(), incremental=root
    )
    cold_seconds = time.perf_counter() - start
    record_timing(COLD_KEY, cold_seconds)
    assert len(report.results) == len(EXPERIMENT_REGISTRY)
    assert all(v == "run:first" for v in report.incremental.values())
    _STATE["root"] = root
    _STATE["cold_seconds"] = cold_seconds
    _STATE["texts"] = _texts(report)


def test_warm_incremental_reproduce(record_timing):
    root = _STATE["root"]
    start = time.perf_counter()
    report = run_all(
        BENCH_CONFIG, workers=1, store=WorldStore(), incremental=root
    )
    warm_seconds = time.perf_counter() - start
    record_timing(WARM_KEY, warm_seconds)

    assert all(v == "hit" for v in report.incremental.values())
    assert _texts(report) == _STATE["texts"], "warm run must be byte-identical"

    cold_seconds = _STATE["cold_seconds"]
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "INCREMENTAL.json").write_text(
        json.dumps(
            {
                "schema_version": 1,
                "cold_seconds": round(cold_seconds, 6),
                "warm_seconds": round(warm_seconds, 6),
                "speedup": round(speedup, 2),
                "experiments": len(report.results),
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= 3.0, (
        f"warm incremental run must be >=3x faster than cold "
        f"(cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s, "
        f"speedup {speedup:.1f}x)"
    )
