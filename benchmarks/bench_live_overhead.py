"""Live telemetry overhead: batch-mode month ticks must be near-free.

``repro.obs.live`` lets a batch run stream its registries: when a
:class:`~repro.obs.live.LiveTelemetry` pipeline is installed, the
snapshot collector scrapes once per simulated month and the
orchestrator once at the end of the run.  The contract (see DESIGN.md,
"Live telemetry & alerting") is that those scrapes -- full registry
snapshot, delta arithmetic, event publish, JSONL append -- ride on
pipeline phases that are orders of magnitude heavier, so opting into
the live plane costs under 1% of the measured pipeline wall clock.
The uninstalled path is one module-global ``None`` check per month and
is not measured here.

This bench quantifies the claim and records it in
``benchmarks/output/LIVE_OVERHEAD.json`` (gated by ``scripts/bench.py``):

* the per-scrape cost of :meth:`TelemetryScraper.scrape` plus the bus
  publish and JSONL append, over registries populated to a fixed,
  deliberately generous cardinality (more counter families and series
  points than a bench-scale run materializes), and
* the *implied* slowdown of the Figure 2 pipeline: one scrape per
  snapshot month plus the final export-matching scrape, all charged
  against the measured cold aggregation wall clock.
"""

from __future__ import annotations

import json
import time

from repro.core.compiled import CompiledPolicyCache
from repro.measure.cache import PolicyCache
from repro.measure.longitudinal import SnapshotSeries, full_disallow_trend
from repro.obs.live import EventBus, JsonlSink, TelemetryScraper
from repro.obs.metrics import MetricsRegistry
from repro.obs.series import SeriesRegistry

#: Per-op timing: best of ``N_BATCHES`` batches of ``N_SCRAPES`` scrapes
#: (min-of-runs, like ``timeit``, so scheduler noise only inflates the
#: discarded batches).
N_BATCHES = 5
N_SCRAPES = 20

#: Ceiling for one scrape at the fixed cardinality (seconds).  The
#: real cost is a few hundred microseconds; 5ms absorbs slow CI boxes.
PER_SCRAPE_CEILING = 5e-3

#: Fixed instrument cardinality, chosen above what a bench-scale run
#: materializes (a cold 1:250 bundle build lands ~20 counters and ~120
#: series points) so the measured scrape is an overestimate.
N_COUNTERS = 60
N_GAUGES = 12
N_HISTOGRAMS = 4
N_SERIES_AGENTS = 8
N_SERIES_OUTCOMES = 3
N_MONTHS = 15


def _populated_instruments():
    registry = MetricsRegistry()
    series = SeriesRegistry()
    for index in range(N_COUNTERS):
        registry.inc(
            f"bench.family{index % 12}.events",
            amount=index + 1,
            kind=f"k{index % 5}",
        )
    for index in range(N_GAUGES):
        registry.set_gauge(f"bench.gauge{index}.value", index * 0.5)
    for index in range(N_HISTOGRAMS):
        for value in range(40):
            registry.observe(f"bench.hist{index}.seconds", value * 0.01)
    for agent in range(N_SERIES_AGENTS):
        for outcome in range(N_SERIES_OUTCOMES):
            for month in range(N_MONTHS):
                series.add(
                    "bench.requests",
                    month=month,
                    amount=1 + month,
                    agent=f"agent{agent}",
                    outcome=f"o{outcome}",
                )
    return registry, series


def _per_scrape_seconds(tmp_path) -> dict:
    """Steady-state cost of one month tick: scrape + publish + JSONL."""
    registry, series = _populated_instruments()
    scraper = TelemetryScraper(registry, series)
    bus = EventBus()
    sink = JsonlSink(tmp_path / "stream.jsonl")
    bus.subscribe(sink)
    # Warm-up scrape pays the first full-delta diff (everything is new).
    bus.publish("scrape", scraper.scrape())
    batches = []
    for _ in range(N_BATCHES):
        start = time.perf_counter()
        for _ in range(N_SCRAPES):
            bus.publish("scrape", scraper.scrape())
        batches.append((time.perf_counter() - start) / N_SCRAPES)
    per_tick = min(batches)
    sink.close()
    return {
        "scrape_publish_jsonl_seconds": per_tick,
        "counters": len(registry.snapshot()["counters"]),
        "series_points": sum(
            len(points) for points in series.snapshot().values()
        ),
    }


def test_live_scrape_per_tick_cost(tmp_path, artifact_dir):
    costs = _per_scrape_seconds(tmp_path)
    per_tick = costs["scrape_publish_jsonl_seconds"]
    assert per_tick < PER_SCRAPE_CEILING, f"{per_tick * 1e6:.0f}us/scrape"


def test_live_plane_overhead_on_figure2(longitudinal_bundle, tmp_path, artifact_dir):
    costs = _per_scrape_seconds(tmp_path)
    per_tick = costs["scrape_publish_jsonl_seconds"]

    # Time the Figure 2 aggregation over fresh caches, exactly as
    # bench_obs_overhead does: a cold series pins the denominator to
    # the work a fresh session performs.
    series = longitudinal_bundle.series
    cold = SnapshotSeries(
        snapshots=series.snapshots,
        stable_domains=series.stable_domains,
        tiers=series.tiers,
        cache=PolicyCache(compiled=CompiledPolicyCache().policy),
    )
    start = time.perf_counter()
    rows = full_disallow_trend(cold)
    fig2_seconds = time.perf_counter() - start
    assert rows[-1][1] > 0  # the run really ran

    # An installed pipeline scrapes once per snapshot month plus the
    # final export-matching scrape.
    n_scrapes = len(series.snapshots) + 1
    implied_seconds = n_scrapes * per_tick
    implied_pct = 100.0 * implied_seconds / fig2_seconds

    payload = {
        "schema_version": 1,
        "per_scrape_seconds": round(per_tick, 9),
        "scraped_cardinality": {
            "counters": costs["counters"],
            "series_points": costs["series_points"],
        },
        "figure2_seconds": round(fig2_seconds, 6),
        "n_scrapes": n_scrapes,
        "implied_overhead_pct": round(implied_pct, 4),
    }
    (artifact_dir / "LIVE_OVERHEAD.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    assert implied_pct < 1.0, (
        f"an installed live pipeline would cost {implied_pct:.2f}% of the "
        f"Figure 2 pipeline (budget: 1%)"
    )
