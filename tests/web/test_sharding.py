"""Sharding must never change what gets crawled -- only where.

Every per-site sampler is keyed ``(seed, domain)``, so any shard count
x worker count, in line or forked, must produce byte-identical snapshot
archives and telemetry.  These tests pin the assignment function's
invariants (determinism, www-variant co-residency), the end-to-end
identity of the sharded snapshot crawl, and the ``shard.sites`` balance
metrics the scale plane reports.
"""

import multiprocessing
from collections import Counter

import pytest

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS
from repro.fanout import batch_mode
from repro.measure.longitudinal import (
    analysis_domains,
    collect_shard_archives,
    collect_snapshots,
)
from repro.obs.metrics import shared_registry
from repro.obs.trace import set_tracing_enabled, shared_tracer, tracing_enabled
from repro.web.archive import ArchiveSet
from repro.web.population import PopulationConfig, build_web_population
from repro.web.sharding import (
    SITES_PER_SHARD,
    normalize_host,
    partition_domains,
    record_shard_balance,
    shard_count_for,
    shard_of,
)

from ..archive_cells import archive_cells

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

CONFIG = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
)


class TestAssignment:
    def test_pure_function_of_domain(self):
        assert shard_of("example.com", 8) == shard_of("example.com", 8)
        assert shard_of("anything.net", 1) == 0

    def test_www_variants_co_reside(self):
        for n_shards in (2, 3, 7, 64):
            assert shard_of("example.com", n_shards) == shard_of(
                "www.example.com", n_shards
            )
            assert shard_of("Example.COM", n_shards) == shard_of(
                "example.com", n_shards
            )

    def test_normalize_host(self):
        assert normalize_host("WWW.Example.com") == "example.com"
        assert normalize_host("wwwx.example.com") == "wwwx.example.com"

    def test_partition_preserves_order_and_membership(self):
        domains = [f"site{i}.example" for i in range(100)]
        parts = partition_domains(domains, 5)
        assert sum(len(p) for p in parts) == 100
        for part in parts:
            assert part == sorted(part, key=domains.index)
        rebuilt = sorted(d for part in parts for d in part)
        assert rebuilt == sorted(domains)

    def test_partition_with_key_objects(self):
        sites = [("obj", f"s{i}.example") for i in range(20)]
        parts = partition_domains(sites, 3, key=[d for _, d in sites])
        flat = [item for part in parts for item in part]
        assert sorted(flat) == sorted(sites)

    def test_shard_count_auto_sizing(self):
        assert shard_count_for(1, None) == 1
        assert shard_count_for(SITES_PER_SHARD, None) == 1
        assert shard_count_for(SITES_PER_SHARD + 1, None) == 2
        assert shard_count_for(10, 4) == 4  # explicit wins

    def test_resolve_mode(self, force_fork):
        assert batch_mode(1) == "serial"
        assert batch_mode(2) == ("process" if HAS_FORK else "serial")


@pytest.fixture(scope="module")
def baseline():
    return build_web_population(CONFIG)


class TestShardedCollectIdentity:
    """The sharded crawl writes an archive; read back through its
    columns, it must hold the status and body an unsharded
    :func:`collect_snapshots` crawled, cell for cell."""

    @pytest.fixture(scope="class")
    def unsharded(self, baseline):
        series = collect_snapshots(baseline)
        return series, archive_cells(series)

    @staticmethod
    def _archived(population, root, **kwargs):
        collect_shard_archives(population, root, **kwargs)
        with ArchiveSet.open(root) as archive:
            return archive.specs, archive_cells(archive), analysis_domains(archive)

    @staticmethod
    def _assert_same(archived, unsharded):
        series, cells = unsharded
        specs, archived_cells, _ = archived
        assert specs == series.specs
        assert list(archived_cells) == series.stable_domains
        assert archived_cells == cells

    def test_sharded_serial_collect_identical(self, baseline, unsharded, tmp_path):
        archived = self._archived(baseline, tmp_path, shards=3, workers=1)
        self._assert_same(archived, unsharded)

    @needs_fork
    def test_sharded_forked_collect_identical(
        self, baseline, unsharded, tmp_path, force_fork
    ):
        for shards, workers in ((2, 2), (4, 3)):
            assert batch_mode(workers) == "process"
            archived = self._archived(
                baseline, tmp_path / f"w{workers}", shards=shards, workers=workers
            )
            self._assert_same(archived, unsharded)
            assert archived[2] == unsharded[0].analysis_domains

    @staticmethod
    def _traced_collect(population, root, workers):
        """Span tree and telemetry of one traced three-shard crawl."""
        registry, tracer = shared_registry(), shared_tracer()
        registry.reset()
        tracer.drain()
        was_tracing = tracing_enabled()
        set_tracing_enabled(True)
        try:
            collect_shard_archives(population, root, shards=3, workers=workers)
        finally:
            set_tracing_enabled(was_tracing)
        spans = Counter(
            (r["span_id"], r["parent_id"], r["name"], r.get("logical"))
            for r in tracer.drain()
        )
        snap = registry.snapshot()
        counters = {key: value for key, value in snap["counters"].items() if value}
        histograms = {
            key: payload
            for key, payload in snap["histograms"].items()
            if payload["count"]
        }
        return spans, counters, histograms, snap["series"]

    def test_one_shard_archive_holds_the_series_columns(
        self, baseline, unsharded, tmp_path
    ):
        """A one-shard archive commits the series' shard as it is: the
        same sites, the same status and body-ref arrays spec by spec
        (refs, not only the texts they name) and the same body table."""
        series, _ = unsharded
        shard = series.shard
        collect_shard_archives(baseline, tmp_path, shards=1)
        with ArchiveSet.open(tmp_path) as archive:
            (reader,) = archive.readers
            assert reader.specs == shard.specs
            assert reader.domains == shard.domains
            assert reader.ranks == shard.ranks
            assert reader.tiers == shard.tiers
            for spec_index in range(len(shard.specs)):
                assert reader.statuses(spec_index) == shard.statuses(spec_index)
                assert reader.body_refs(spec_index) == shard.body_refs(spec_index)
            # Every interned body is some cell's, so the largest ref
            # bounds the series' body table.
            n_bodies = reader.n_bodies
            assert n_bodies == 1 + max(
                max(shard.body_refs(i)) for i in range(len(shard.specs))
            )
            assert [reader.body_digest(ref) for ref in range(n_bodies)] == [
                shard.body_digest(ref) for ref in range(n_bodies)
            ]
            assert [reader.body_text(ref) for ref in range(n_bodies)] == [
                shard.body_text(ref) for ref in range(n_bodies)
            ]

    @needs_fork
    def test_traced_collect_identical_across_modes(
        self, baseline, tmp_path, force_fork
    ):
        """Every shard crawls under its own span, and fork children ship
        their spans home: the trace names the same work in line and
        forked."""
        assert batch_mode(2) == "process"
        runs = {
            workers: self._traced_collect(baseline, tmp_path / f"w{workers}", workers)
            for workers in (1, 2, 3)
        }
        spans = runs[1][0]
        assert set(spans.values()) == {1}  # every span id is unique
        names = Counter(name for _, _, name, _ in spans)
        assert names["collect_snapshots"] == 1
        assert names["collect_shard:0000"] == 1
        for spec in SNAPSHOT_SPECS:  # each shard crawls every spec
            assert names[f"collect_snapshot:{spec.snapshot_id}"] == 3, spec
        assert runs[1][3]  # the crawl's month series
        for workers in (2, 3):
            assert runs[workers][0] == spans, workers
            assert runs[workers][1:] == runs[1][1:], workers

    def test_collect_emits_shard_balance_counters(self, baseline, tmp_path):
        registry = shared_registry()
        before = registry.counter_totals("shard.sites")
        collect_shard_archives(baseline, tmp_path, shards=3, workers=1)
        after = registry.counter_totals("shard.sites")
        grown = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in after
            if "stage=collect" in key and after.get(key, 0) != before.get(key, 0)
        }
        assert len(grown) == 3
        assert sum(grown.values()) == len(baseline.stable)


class TestBalanceMetric:
    def test_record_shard_balance_returns_sizes(self):
        sizes = record_shard_balance([["a"], ["b", "c"], []], stage="test")
        assert sizes == {0: 1, 1: 2, 2: 0}
