"""The aggregation engine against a per-domain oracle, on both sources.

Figures 2-4 and Tables 3-4 have one implementation: the per-shard
functions in :mod:`repro.measure.longitudinal`, fed either an in-memory
:class:`SnapshotSeries` (a one-shard archive view) or a sharded
:class:`ArchiveSet` streamed shard by shard.  Every output must equal
the naive per-domain oracle in :mod:`tests.measure.oracle` on both
sources, including the ordering-sensitive payloads (removal-domain
insertion order, the Table 4 row order).
"""

from collections import Counter

import pytest

from repro.core import policy
from repro.measure.longitudinal import (
    allow_and_removal_trend,
    analysis_domains,
    collect_shard_archives,
    collect_snapshots,
    first_allow_table,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from repro.web.archive import ArchiveBodyStore, ArchiveSet
from repro.web.population import PopulationConfig, build_web_population

from . import oracle

CONFIG = PopulationConfig(
    universe_size=260, list_size=170, top5k_cut=30, audit_size=40, seed=11
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    population = build_web_population(CONFIG)
    series = collect_snapshots(population, workers=1)
    root = tmp_path_factory.mktemp("archive")
    collect_shard_archives(population, root, shards=3, workers=1)
    archive = ArchiveSet.open(root)
    assert len(archive.readers) == 3
    yield population, series, archive
    archive.close()


@pytest.fixture(scope="module")
def expected(world):
    """The oracle's answers, computed once per module (it is slow by
    design: every cell is parsed and classified afresh)."""
    _, series, _ = world
    return {
        "analysis": oracle.analysis_domains(series),
        "figure2": oracle.full_disallow_trend(series),
        "figure2_wildcard": oracle.full_disallow_trend(series, require_explicit=False),
        "figure3": oracle.per_agent_trend(series),
        "figure4": oracle.allow_and_removal_trend(series),
        "table4": oracle.first_allow_table(series),
        "table3": oracle.snapshot_coverage_table(series),
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
        assert archive.stable_domains() == series.stable_domains

    def test_figure2_rows_identical(self, world, expected):
        # The ablation really differs, so the flag is exercised.
        assert expected["figure2_wildcard"] != expected["figure2"]
        for name, source in _sources(world).items():
            assert full_disallow_trend(source) == expected["figure2"], name
            assert full_disallow_trend(
                source, require_explicit=False
            ) == expected["figure2_wildcard"], name

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

    def test_table4_rows_identical(self, world, expected):
        assert expected["table4"], "the world must exercise explicit allows"
        for name, source in _sources(world).items():
            assert first_allow_table(source) == expected["table4"], name

    def test_table3_rows_identical(self, world, expected):
        for name, source in _sources(world).items():
            assert snapshot_coverage_table(source) == expected["table3"], name

    def test_body_store_backend_changes_nothing(self, world, expected):
        _, _, archive = world
        store = archive.body_store()
        cold = full_disallow_trend(archive, store=store)
        store.flush()
        assert len(store.facts_payload()["rows"]) > 0
        # A second pass over a reopened store answers every body from
        # the persisted facts and computes nothing.
        warm_store = _CountingStore(archive.body_store())
        warm = full_disallow_trend(archive, store=warm_store)
        assert cold == warm == expected["figure2"]
        assert warm_store.hits > 0 and warm_store.puts == 0

    def test_series_refuses_a_store_argument(self, world):
        # A series takes its store through series.cache; silently
        # dropping one passed here would hide a caller's mistake.
        _, series, archive = world
        with pytest.raises(ValueError):
            full_disallow_trend(series, store=archive.body_store())


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
    def _sweep_all(archive, store):
        full_disallow_trend(archive, store=store)
        per_agent_trend(archive, store=store)
        allow_and_removal_trend(archive, store=store)
        first_allow_table(archive, store=store)

    def test_each_distinct_body_parses_at_most_once(self, world, tmp_path, parsed):
        _, _, archive = world
        self._sweep_all(archive, ArchiveBodyStore(tmp_path))
        distinct = {
            digest for reader in archive.readers for digest in reader.body_digests
        }
        assert parsed, "the sweeps must classify something"
        assert max(Counter(parsed).values()) == 1
        assert len(parsed) <= len(distinct)

    def test_sweeps_over_a_flushed_store_parse_nothing(self, world, tmp_path, parsed):
        _, _, archive = world
        store = ArchiveBodyStore(tmp_path)
        full_disallow_trend(archive, store=store)
        store.flush()
        parsed.clear()
        self._sweep_all(archive, ArchiveBodyStore(tmp_path))
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
        from repro.report.experiments import (
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
