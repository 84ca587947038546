"""Parallel snapshot collection must be bit-identical to sequential."""

import pytest

from repro.measure.longitudinal import (
    allow_and_removal_trend,
    collect_snapshots,
    full_disallow_trend,
    per_agent_trend,
)
from repro.web.population import PopulationConfig, build_web_population

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
