"""Benchmark: the million-site scale plane, stratum by stratum.

Times the three pipeline stages of the sharded columnar plane --
population build, archive crawl (``collect_shard_archives``), and
streaming Figure 2-4 aggregation -- for each top-k stratum, and
records the tracemalloc peak of the aggregation stage.  The scale
plane's contract is that aggregation memory tracks the *shard* size,
not the stratum size: growing the population 10x (top-10k -> top-100k)
must keep peak streaming memory within 2x.

A second test measures shard-crawl worker efficiency (T1 / (N * TN) at
N=4).  Both land in ``benchmarks/output/SCALE.json`` for the
``scripts/bench.py`` gate: the memory ratio is always enforced; the
efficiency floor only on hosts with >= 4 CPUs (a single-core container
cannot exhibit parallel speedup).

Per-stage timings also land in ``BENCH_RESULTS.json`` under distinct
keys so the perf trajectory tracks each stratum separately.
"""

import gc
import json
import os
import time
import tracemalloc

from repro.measure.longitudinal import (
    allow_and_removal_trend,
    collect_shard_archives,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from repro.web.archive import ArchiveSet
from repro.web.population import (
    PopulationConfig,
    build_web_population,
    stratum_config,
)

from conftest import OUTPUT_DIR

#: A 1:100 base world: "top-100k" is then a 1,000-site list, small
#: enough to crawl three strata in one bench, large enough that the
#: 10x top-10k -> top-100k growth is real.
BASE = PopulationConfig(
    universe_size=1500, list_size=1000, top5k_cut=150, audit_size=200
)

STRATA = ("top-1k", "top-10k", "top-100k")

#: Shards are sized for a roughly constant per-shard site count across
#: strata -- the knob that makes streaming memory flat as sites grow.
TARGET_SHARD_SITES = 96

SCALE_PATH = OUTPUT_DIR / "SCALE.json"

#: Aggregating the 10x-larger stratum may cost at most this much more
#: peak memory than the smaller one.
MEMORY_BUDGET_RATIO = 2.0

EFFICIENCY_WORKERS = 4
EFFICIENCY_FLOOR = 0.7

#: Cross-test state: per-stratum measurements for the SCALE.json write.
_STATE = {}


def _aggregate(archive):
    """The figure battery over one open archive, shard by shard."""
    full_disallow_trend(archive)
    per_agent_trend(archive)
    allow_and_removal_trend(archive)
    snapshot_coverage_table(archive)


def test_per_stratum_pipeline(tmp_path_factory, record_timing):
    root = tmp_path_factory.mktemp("scale")
    for stratum in STRATA:
        config = stratum_config(stratum, BASE)

        start = time.perf_counter()
        population = build_web_population(config)
        build_seconds = time.perf_counter() - start
        record_timing(f"bench_scale_strata::{stratum}::build", build_seconds)

        n_sites = len(population.stable)
        shards = max(1, -(-n_sites // TARGET_SHARD_SITES))
        start = time.perf_counter()
        archive_root = collect_shard_archives(
            population, root / stratum, shards=shards
        )
        collect_seconds = time.perf_counter() - start
        record_timing(f"bench_scale_strata::{stratum}::collect", collect_seconds)

        with ArchiveSet.open(archive_root) as archive:
            # Start every window from a collected heap: allocations that
            # CPython serves from a free list never reach tracemalloc,
            # so without it the peak depends on what earlier work left
            # behind.
            gc.collect()
            tracemalloc.start()
            start = time.perf_counter()
            _aggregate(archive)
            aggregate_seconds = time.perf_counter() - start
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        record_timing(
            f"bench_scale_strata::{stratum}::aggregate", aggregate_seconds
        )

        _STATE[stratum] = {
            "sites": n_sites,
            "shards": shards,
            "build_seconds": round(build_seconds, 6),
            "collect_seconds": round(collect_seconds, 6),
            "aggregate_seconds": round(aggregate_seconds, 6),
            "aggregate_peak_bytes": peak_bytes,
        }
    _STATE["population"] = population  # largest stratum, reused below

    small = _STATE["top-10k"]["aggregate_peak_bytes"]
    large = _STATE["top-100k"]["aggregate_peak_bytes"]
    ratio = large / small if small else float("inf")
    _STATE["memory_ratio"] = ratio
    growth = _STATE["top-100k"]["sites"] / _STATE["top-10k"]["sites"]
    assert growth >= 5.0, "strata must actually grow for the ratio to mean anything"
    assert ratio <= MEMORY_BUDGET_RATIO, (
        f"streaming aggregation peak grew {ratio:.2f}x while sites grew "
        f"{growth:.1f}x; budget is {MEMORY_BUDGET_RATIO:.1f}x (flat memory)"
    )


def test_worker_efficiency_and_scale_report(tmp_path_factory, record_timing):
    population = _STATE["population"]
    shards = max(EFFICIENCY_WORKERS, _STATE["top-100k"]["shards"])
    root = tmp_path_factory.mktemp("efficiency")

    start = time.perf_counter()
    collect_shard_archives(population, root / "serial", shards=shards, workers=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    collect_shard_archives(
        population,
        root / "parallel",
        shards=shards,
        workers=EFFICIENCY_WORKERS,
    )
    parallel_seconds = time.perf_counter() - start
    record_timing(
        "bench_scale_strata::collect_parallel_x4", parallel_seconds
    )

    efficiency = (
        serial_seconds / (EFFICIENCY_WORKERS * parallel_seconds)
        if parallel_seconds
        else float("inf")
    )
    cpu_count = os.cpu_count() or 1

    strata_payload = {s: _STATE[s] for s in STRATA}
    OUTPUT_DIR.mkdir(exist_ok=True)
    SCALE_PATH.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "cpu_count": cpu_count,
                "strata": strata_payload,
                "memory_ratio": round(_STATE["memory_ratio"], 4),
                "memory_budget_ratio": MEMORY_BUDGET_RATIO,
                "efficiency_workers": EFFICIENCY_WORKERS,
                "serial_collect_seconds": round(serial_seconds, 6),
                "parallel_collect_seconds": round(parallel_seconds, 6),
                "worker_efficiency": round(efficiency, 4),
                "efficiency_floor": EFFICIENCY_FLOOR,
            },
            indent=2,
        )
        + "\n"
    )

    lines = ["Scale strata: build / collect / aggregate seconds, peak KiB", ""]
    for stratum in STRATA:
        row = _STATE[stratum]
        lines.append(
            f"{stratum:>9}  sites={row['sites']:<5} shards={row['shards']:<3}"
            f" build={row['build_seconds']:.3f}s"
            f" collect={row['collect_seconds']:.3f}s"
            f" aggregate={row['aggregate_seconds']:.3f}s"
            f" peak={row['aggregate_peak_bytes'] / 1024:.0f}KiB"
        )
    lines.append("")
    lines.append(
        f"memory ratio top-100k/top-10k: {_STATE['memory_ratio']:.2f}x "
        f"(budget {MEMORY_BUDGET_RATIO:.1f}x); worker efficiency at "
        f"{EFFICIENCY_WORKERS} workers: {efficiency:.2f} "
        f"(floor {EFFICIENCY_FLOOR}, gated when cpu_count >= 4; "
        f"this host: {cpu_count})"
    )
    (OUTPUT_DIR / "scale_strata.txt").write_text("\n".join(lines) + "\n")

    # The floor is only meaningful with real cores to spread over.
    if cpu_count >= EFFICIENCY_WORKERS:
        assert efficiency >= EFFICIENCY_FLOOR, (
            f"shard-crawl efficiency {efficiency:.2f} at "
            f"{EFFICIENCY_WORKERS} workers is under the "
            f"{EFFICIENCY_FLOOR} floor"
        )
