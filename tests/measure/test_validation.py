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
        report = cross_validate_snapshot(population, snapshot, seed=1)
        assert report.n_compared > 100
        assert report.unexplained == []
        # Only a lagged visit can disagree.
        assert report.n_compared - report.n_agree <= len(report.lagged_domains)

    def test_lagged_crawl_shows_small_timing_disagreement(self, world):
        population, snapshot = world
        report = cross_validate_snapshot(population, snapshot, seed=2)
        # Like the paper: some disagreement, all explained by timing.
        assert report.lagged_domains
        assert report.unexplained == []
        assert report.agreement_rate > 0.95
        if report.n_timing_disagreements:
            assert report.agreement_rate < 1.0

    def test_sampling(self, world):
        # Every site with a retrievable record is validated, like the
        # paper's top-10k own-crawl: no sample is drawn.
        population, snapshot = world
        report = cross_validate_snapshot(population, snapshot, seed=3)
        retrievable = [d for d, record in snapshot.records.items() if record.ok]
        assert report.n_compared == len(retrievable)

    def test_deterministic(self, world):
        population, snapshot = world
        a = cross_validate_snapshot(population, snapshot, seed=9)
        b = cross_validate_snapshot(population, snapshot, seed=9)
        assert a.n_agree == b.n_agree
        assert a.lagged_domains == b.lagged_domains
