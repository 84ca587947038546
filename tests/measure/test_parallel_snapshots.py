"""Parallel snapshot collection must be bit-identical to sequential."""

from collections import Counter

import pytest

import repro.measure.longitudinal as longitudinal
from repro.crawlers.commoncrawl import SNAPSHOT_SPECS
from repro.measure.longitudinal import (
    allow_and_removal_trend,
    collect_snapshots,
    full_disallow_trend,
    per_agent_trend,
)
from repro.obs.trace import set_tracing_enabled, shared_tracer, tracing_enabled
from repro.web.population import (
    PopulationConfig,
    build_web_population,
    stratum_config,
)

CONFIG = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
)


@pytest.fixture(scope="module")
def population():
    return build_web_population(CONFIG)


@pytest.fixture(scope="module")
def series_pair(population):
    sequential = collect_snapshots(population, workers=1)
    parallel = collect_snapshots(population, workers=4)
    return sequential, parallel


class TestParallelDeterminism:
    def test_snapshot_order_and_specs_identical(self, series_pair):
        sequential, parallel = series_pair
        assert [s.spec for s in sequential.snapshots] == [
            s.spec for s in parallel.snapshots
        ]

    def test_records_bit_identical(self, series_pair):
        sequential, parallel = series_pair
        for seq_snap, par_snap in zip(sequential.snapshots, parallel.snapshots):
            # Same domains in the same insertion order, same records.
            assert list(seq_snap.records) == list(par_snap.records)
            assert seq_snap.records == par_snap.records

    def test_domain_sets_identical(self, series_pair):
        sequential, parallel = series_pair
        assert sequential.stable_domains == parallel.stable_domains
        assert sequential.analysis_domains == parallel.analysis_domains

    def test_derived_statistics_identical(self, series_pair):
        sequential, parallel = series_pair
        assert full_disallow_trend(sequential) == full_disallow_trend(parallel)
        assert per_agent_trend(sequential) == per_agent_trend(parallel)
        seq_trend = allow_and_removal_trend(sequential)
        par_trend = allow_and_removal_trend(parallel)
        assert seq_trend.explicit_allow_counts == par_trend.explicit_allow_counts
        assert seq_trend.removals_per_period == par_trend.removals_per_period
        assert seq_trend.removal_domains == par_trend.removal_domains

    def test_workers_default_is_sequential(self, population):
        default = collect_snapshots(population)
        sequential = collect_snapshots(population, workers=1)
        assert default.analysis_domains == sequential.analysis_domains
        for a, b in zip(default.snapshots, sequential.snapshots):
            assert a.records == b.records


def _traced_spans(population):
    """``(span_id, parent_id, name, logical)`` multiset of one crawl."""
    tracer = shared_tracer()
    tracer.reset()
    was_tracing = tracing_enabled()
    set_tracing_enabled(True)
    try:
        collect_snapshots(population)
    finally:
        set_tracing_enabled(was_tracing)
    return Counter(
        (r["span_id"], r["parent_id"], r["name"], r.get("logical"))
        for r in tracer.drain()
    )


class TestTraceIdentity:
    """Concurrent specs start in any order, so no span id may depend on
    that order."""

    def test_span_ids_independent_of_start_order(self, monkeypatch):
        population = build_web_population(stratum_config("top-1k"))
        in_order = _traced_spans(population)

        def reversed_fan_out(unit, n, workers, mode):
            results = [None] * n
            for index in reversed(range(n)):
                results[index] = unit(index)
            return results

        monkeypatch.setattr(longitudinal, "fan_out", reversed_fan_out)
        assert _traced_spans(population) == in_order
        assert sum(in_order.values()) > len(SNAPSHOT_SPECS)
