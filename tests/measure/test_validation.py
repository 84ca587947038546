"""Tests for snapshot cross-validation (Section 3.1's methodology)."""

import pytest

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, SnapshotCrawler
from repro.measure.validation import cross_validate_snapshot
from repro.net.transport import Network
from repro.web.population import PopulationConfig, build_web_population

CONFIG = PopulationConfig(
    universe_size=900, list_size=600, top5k_cut=80, audit_size=150, seed=17
)


@pytest.fixture(scope="module")
def world():
    population = build_web_population(CONFIG)
    # Take the snapshot where churn is plausible: post-announcement.
    spec = SNAPSHOT_SPECS[7]  # 2023-50 (Feb/Mar 2024)
    network = Network()
    population.materialize(network, month=spec.month_index)
    snapshot = SnapshotCrawler(network).snapshot(
        spec, [s.domain for s in population.stable]
    )
    return population, snapshot


class TestCrossValidation:
    def test_same_time_crawl_agrees_perfectly(self, world):
        population, snapshot = world
        report = cross_validate_snapshot(
            population, snapshot, p_lagged=0.0, seed=1
        )
        assert report.n_compared > 100
        assert report.agreement_rate == 1.0
        assert report.unexplained == []

    def test_lagged_crawl_shows_small_timing_disagreement(self, world):
        population, snapshot = world
        report = cross_validate_snapshot(
            population, snapshot, p_lagged=0.25, seed=2
        )
        # Like the paper: some disagreement, all explained by timing.
        assert report.unexplained == []
        assert report.agreement_rate > 0.95
        if report.n_timing_disagreements:
            assert report.agreement_rate < 1.0

    def test_sampling(self, world):
        population, snapshot = world
        report = cross_validate_snapshot(
            population, snapshot, sample_size=50, p_lagged=0.0, seed=3
        )
        assert report.n_compared <= 50

    def test_deterministic(self, world):
        population, snapshot = world
        a = cross_validate_snapshot(population, snapshot, seed=9)
        b = cross_validate_snapshot(population, snapshot, seed=9)
        assert a.n_agree == b.n_agree
        assert a.lagged_domains == b.lagged_domains
