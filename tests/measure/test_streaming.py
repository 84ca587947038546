"""The aggregation engine against a per-domain oracle, on both sources.

Figures 2-4 and Tables 3-4 have one implementation: the per-shard
functions in :mod:`repro.measure.longitudinal`, fed either an in-memory
:class:`SnapshotSeries` (a one-shard archive view) or a sharded
:class:`ArchiveSet` streamed shard by shard.  Every output must equal
the naive per-domain oracle in :mod:`tests.measure.oracle` on both
sources, including the ordering-sensitive payloads (removal-domain
insertion order, the Table 4 row order).  Each source owns one verdict
row cache that all its sweeps share; a store attaches to that cache.
"""

from collections import Counter

import pytest

from repro.core import policy
from repro.measure.longitudinal import (
    allow_and_removal_trend,
    analysis_domains,
    collect_shard_archives,
    collect_snapshots,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from repro.web.archive import ArchiveBodyStore, ArchiveSet
from repro.web.population import PopulationConfig, build_web_population

from ..archive_cells import archive_cells
from . import oracle

CONFIG = PopulationConfig(
    universe_size=260, list_size=170, top5k_cut=30, audit_size=40, seed=11
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    population = build_web_population(CONFIG)
    series = collect_snapshots(population)
    root = tmp_path_factory.mktemp("archive")
    collect_shard_archives(population, root, shards=3, workers=1)
    archive = ArchiveSet.open(root)
    assert len(archive.readers) == 3
    yield population, series, archive
    archive.close()


@pytest.fixture(scope="module")
def expected(world):
    """The oracle's answers over its own full crawl, computed once per
    module (it is slow by design: every cell is parsed and classified
    afresh)."""
    population, _, _ = world
    corpus = oracle.crawl(population)
    return {
        "analysis": oracle.analysis_domains(corpus),
        "figure2": oracle.full_disallow_trend(corpus),
        "figure2_wildcard": oracle.full_disallow_trend(corpus, require_explicit=False),
        "figure3": oracle.per_agent_trend(corpus),
        "figure4": oracle.allow_and_removal_trend(corpus),
        "table4": oracle.first_allow_table(corpus),
        "table3": oracle.snapshot_coverage_table(corpus),
    }


def _sources(world):
    _, series, archive = world
    return {"series": series, "archive": archive}


class TestStreamingParity:
    def test_analysis_domains_identical(self, world, expected):
        _, series, archive = world
        assert len(expected["analysis"]) > 0
        assert series.analysis_domains == expected["analysis"]
        for name, source in _sources(world).items():
            assert analysis_domains(source) == expected["analysis"], name
        assert list(archive_cells(archive)) == series.stable_domains

    def test_figure2_rows_identical(self, world, expected):
        # The ablation really differs, so the flag is exercised.
        assert expected["figure2_wildcard"] != expected["figure2"]
        for name, source in _sources(world).items():
            trend = full_disallow_trend(source)
            assert trend.rows == expected["figure2"], name
            assert trend.n_analysis == len(expected["analysis"]), name
            assert full_disallow_trend(
                source, require_explicit=False
            ).rows == expected["figure2_wildcard"], name

    def test_figure3_trends_identical(self, world, expected):
        for name, source in _sources(world).items():
            assert per_agent_trend(source) == expected["figure3"], name

    def test_figure4_trend_identical_including_order(self, world, expected):
        allows, removals, removal_domains = expected["figure4"]
        assert removal_domains, "the world must exercise removals"
        for name, source in _sources(world).items():
            trend = allow_and_removal_trend(source)
            assert trend.explicit_allow_counts == allows, name
            assert trend.removals_per_period == removals, name
            # Dict equality AND iteration order: the paper artifact
            # renders removal domains in first-removal order.
            assert list(trend.removal_domains.items()) == removal_domains, name
            assert trend.n_analysis == len(expected["analysis"]), name

    def test_table4_rows_identical(self, world, expected):
        assert expected["table4"], "the world must exercise explicit allows"
        for name, source in _sources(world).items():
            trend = allow_and_removal_trend(source)
            assert trend.first_allows == expected["table4"], name

    def test_table3_rows_identical(self, world, expected):
        for name, source in _sources(world).items():
            assert snapshot_coverage_table(source) == expected["table3"], name

    def test_body_store_backend_changes_nothing(self, world, expected):
        _, _, archive = world
        store = archive.body_store()
        cold = _sweep(archive.root, store, full_disallow_trend)
        store.flush()
        assert len(store.facts_payload()["rows"]) > 0
        # A second pass over a reopened store answers every body from
        # the persisted facts and computes nothing.
        warm_store = _CountingStore(archive.body_store())
        warm = _sweep(archive.root, warm_store, full_disallow_trend)
        assert cold.rows == warm.rows == expected["figure2"]
        assert warm_store.hits > 0 and warm_store.puts == 0


def _sweep(root, store, *aggregations):
    """Run *aggregations* over a freshly opened archive whose cache is
    backed by *store* (None: no store); returns the last result."""
    with ArchiveSet.open(root) as archive:
        archive.cache.attach_store(store)
        for aggregate in aggregations:
            result = aggregate(archive)
    return result


class TestParseOnce:
    """An archive sweep parses a body only when no row for it is known."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        calls = []
        real = policy.parse

        def counting(source):
            calls.append(source)
            return real(source)

        monkeypatch.setattr(policy, "parse", counting)
        return calls

    @staticmethod
    def _sweep_all(root, store):
        _sweep(
            root, store, full_disallow_trend, per_agent_trend,
            allow_and_removal_trend, snapshot_coverage_table,
        )

    def test_each_distinct_body_parses_at_most_once(self, world, tmp_path, parsed):
        _, _, archive = world
        self._sweep_all(archive.root, ArchiveBodyStore(tmp_path))
        distinct = {
            digest for reader in archive.readers for digest in reader.body_digests
        }
        assert parsed, "the sweeps must classify something"
        assert max(Counter(parsed).values()) == 1
        assert len(parsed) <= len(distinct)

    def test_sweeps_share_the_archive_cache_without_a_store(self, world, parsed):
        # One cache per archive: the second and later sweeps read the
        # rows the first one built.
        _, _, archive = world
        self._sweep_all(archive.root, None)
        assert parsed, "the sweeps must classify something"
        assert max(Counter(parsed).values()) == 1

    def test_sweeps_over_a_flushed_store_parse_nothing(self, world, tmp_path, parsed):
        _, _, archive = world
        store = ArchiveBodyStore(tmp_path)
        _sweep(archive.root, store, full_disallow_trend)
        store.flush()
        parsed.clear()
        self._sweep_all(archive.root, ArchiveBodyStore(tmp_path))
        assert parsed == []


class _CountingStore:
    """A body-facts store that counts persisted rows and writes."""

    def __init__(self, inner):
        self.inner = inner
        self.hits = 0
        self.puts = 0

    def get_row(self, digest):
        value = self.inner.get_row(digest)
        self.hits += value is not None
        return value

    def put_row(self, digest, packed):
        self.puts += 1
        self.inner.put_row(digest, packed)


class TestStreamingRunners:
    def test_experiment_results_identical(self, world):
        from repro.report.longitudinal import (
            run_figure2,
            run_figure3,
            run_figure4,
            run_table3,
        )

        _, series, archive = world
        for runner in (run_figure2, run_figure3, run_figure4, run_table3):
            in_memory = runner(series)
            streamed = runner(archive)
            assert streamed.text == in_memory.text
            assert streamed.metrics == in_memory.metrics
            assert streamed.experiment_id == in_memory.experiment_id
