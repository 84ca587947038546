"""Telemetry overhead: the disabled fast path must be invisible.

``repro.obs`` instruments the crawl engine, transport, caches, and
orchestrator.  The contract (see DESIGN.md) is that with telemetry
disabled every instrumented call site reduces to one module-global bool
check, so the pipelines pay effectively nothing when nobody is looking.

This bench quantifies that claim two ways and records it in
``benchmarks/output/OBS_OVERHEAD.json`` (gated by ``scripts/bench.py``):

* per-op disabled costs of ``Counter.inc`` / ``Histogram.observe`` /
  ``Series.add`` / ``span()``, measured over a tight loop, and
* the *implied* worst-case slowdown of the Figure 2 pipeline: even if
  every (domain, snapshot) query on its hot path crossed one disabled
  counter and the whole run crossed its spans, the added time must be
  under 1% of the measured pipeline wall clock.

Beside the implied operation counts it records ``measured_ops``: the
calls one cold Figure 2 pass with telemetry disabled actually makes into
:mod:`repro.obs`, by callee, counted with a profile hook.

Each number is the median of :data:`PASSES` timed passes (the Figure 2
passes each over fresh caches), so one pass slowed by a noisy
neighbour moves neither side of the ratio.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import repro.obs
from repro.core.compiled import CompiledPolicyCache
from repro.measure.cache import PolicyCache
from repro.measure.longitudinal import SnapshotSeries, full_disallow_trend
from repro.obs.metrics import (
    MetricsRegistry,
    metrics_enabled,
    set_metrics_enabled,
)
from repro.obs.trace import set_tracing_enabled, span, tracing_enabled

#: Loop length for the per-op microbenches.
N_OPS = 200_000

#: Ceiling for one disabled telemetry call (seconds).  The real cost is
#: tens of nanoseconds; 2 microseconds absorbs slow shared CI machines.
PER_OP_CEILING = 2e-6

#: Timed passes per measurement; the bench reports each one's median.
PASSES = 5


def _per_op_seconds(fn, n: int = N_OPS) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def _measure_disabled_costs() -> dict:
    """Per-op wall clock of each disabled telemetry primitive, the
    median of :data:`PASSES` loops each."""
    registry = MetricsRegistry()
    counter = registry.counter("bench.disabled")
    histogram = registry.histogram("bench.disabled.hist")
    series = registry.series("bench.disabled.series", agent="bench")
    assert not tracing_enabled()
    set_metrics_enabled(False)
    ops = {
        "counter_inc_seconds": counter.inc,
        "histogram_observe_seconds": lambda: histogram.observe(1),
        "series_add_seconds": lambda: series.add(0),
        "span_seconds": lambda: span("bench"),
    }
    try:
        costs = {
            name: statistics.median(_per_op_seconds(fn) for _ in range(PASSES))
            for name, fn in ops.items()
        }
    finally:
        set_metrics_enabled(True)
    assert counter.value == 0 and histogram.count == 0 and series.total == 0
    return costs


def _count_obs_crossings(run) -> dict:
    """Call *run* once with telemetry disabled and count its calls into
    :mod:`repro.obs` from outside that package, keyed by callee
    (``module:qualname``; the bare name before Python 3.11)."""
    obs_dir = os.path.join(os.path.dirname(repro.obs.__file__), "")
    counts: dict = {}

    def hook(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(obs_dir):
            return
        caller = frame.f_back
        if caller is not None and caller.f_code.co_filename.startswith(obs_dir):
            return
        code = frame.f_code
        key = f"{frame.f_globals['__name__']}:{getattr(code, 'co_qualname', code.co_name)}"
        counts[key] = counts.get(key, 0) + 1

    assert not tracing_enabled()
    set_metrics_enabled(False)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        set_metrics_enabled(True)
    return dict(sorted(counts.items()))


def test_disabled_telemetry_per_op_cost(artifact_dir):
    costs = _measure_disabled_costs()
    for name, seconds in costs.items():
        assert seconds < PER_OP_CEILING, f"{name}: {seconds * 1e9:.0f}ns/op"


def test_disabled_telemetry_overhead_on_figure2(longitudinal_bundle, artifact_dir):
    assert metrics_enabled() and not tracing_enabled()
    costs = _measure_disabled_costs()

    # Time the Figure 2 aggregation over *fresh* caches (classification
    # memos and a private compiled-policy cache) on every pass.  The
    # session-scoped bundle's memos and the process-wide compiled cache
    # may already be warm from sibling benches, which would shrink the
    # denominator by ~30x and turn this gate into a test-ordering
    # lottery; a fully cold series pins the measured pipeline to the
    # same work bench_fig2_disallow_trend measures on a fresh session.
    series = longitudinal_bundle.series

    def cold_series() -> SnapshotSeries:
        return SnapshotSeries(
            series.shard, cache=PolicyCache(compiled=CompiledPolicyCache().policy)
        )

    def cold_pass() -> float:
        cold = cold_series()
        start = time.perf_counter()
        rows = full_disallow_trend(cold).rows
        seconds = time.perf_counter() - start
        assert rows[-1][1] > 0  # the run really ran
        return seconds

    fig2_seconds = statistics.median(cold_pass() for _ in range(PASSES))
    cold = cold_series()
    measured_ops = _count_obs_crossings(lambda: full_disallow_trend(cold))

    # Worst-case instrumentation density on the Figure 2 path: one
    # disabled counter *and* one disabled time-series point per
    # (analysis domain, snapshot) query plus one span per snapshot --
    # far denser than the real instrumentation.
    n_counter_ops = len(series.analysis_domains) * len(series.specs)
    n_span_ops = len(series.specs) + 1
    implied_seconds = (
        n_counter_ops * costs["counter_inc_seconds"]
        + n_counter_ops * costs["series_add_seconds"]
        + n_span_ops * costs["span_seconds"]
    )
    implied_pct = 100.0 * implied_seconds / fig2_seconds

    payload = {
        "schema_version": 1,
        "per_op": {name: round(value, 12) for name, value in costs.items()},
        "passes": PASSES,
        "figure2_seconds": round(fig2_seconds, 6),
        "implied_ops": {"counters": n_counter_ops, "spans": n_span_ops},
        "measured_ops": measured_ops,
        "implied_overhead_pct": round(implied_pct, 4),
    }
    (artifact_dir / "OBS_OVERHEAD.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    assert implied_pct < 1.0, (
        f"disabled telemetry would cost {implied_pct:.2f}% of the Figure 2 "
        f"pipeline (budget: 1%)"
    )
