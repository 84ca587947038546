"""Sharding must never change what gets built -- only where.

Every per-site sampler is keyed ``(seed, domain)``, so any shard count
x worker count x execution mode must produce byte-identical worlds and
snapshot archives.  These tests pin the assignment function's invariants
(determinism, www-variant co-residency) and the end-to-end identity for
both the population build and the sharded snapshot crawl, plus the
``shard.sites`` balance metrics the scale plane reports.
"""

import hashlib
import json

import pytest

from repro.measure.longitudinal import (
    analysis_domains,
    collect_shard_archives,
    collect_snapshots,
)
from repro.obs.metrics import shared_registry
from repro.web.archive import ArchiveSet
from repro.web.population import PopulationConfig, build_web_population
from repro.web.sharding import (
    SITES_PER_SHARD,
    normalize_host,
    partition_domains,
    record_shard_balance,
    resolve_shard_mode,
    shard_count_for,
    shard_of,
)

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

    def test_resolve_mode(self):
        assert resolve_shard_mode("auto", 1) == "serial"
        assert resolve_shard_mode("thread", 4) == "thread"
        assert resolve_shard_mode("process", 2) == "process"


def _world_digest(population) -> str:
    def site_row(s):
        b = s.blocking
        return [
            s.domain, s.rank, s.tier, s.category, s.publisher,
            s.robots_schedule, sorted(s.missing_months),
            b.cloudflare is not None and [
                b.cloudflare.block_ai_bots, b.cloudflare.definitely_automated,
            ],
            b.cf_custom_confound, b.waf_blocks_anthropic, b.blocks_automation,
            b.ip_blocks_published_ai, s.meta_noai, s.meta_noimageai,
        ]

    payload = {
        "stable": [site_row(s) for s in population.stable],
        "audit": [site_row(s) for s in population.audit_sites],
        "top5k": [s.domain for s in population.stable_top5k],
        "rankings": population.rankings,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _series_digest(snapshots) -> str:
    payload = [
        [
            snap.spec.snapshot_id,
            [[r.domain, r.status, r.robots_txt, r.error]
             for r in snap.records.values()],
            snap.error_budget.n_sites if snap.error_budget else None,
        ]
        for snap in snapshots
    ]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def baseline():
    return build_web_population(CONFIG)


class TestShardedBuildIdentity:
    def test_serial_sharded_build_identical(self, baseline):
        sharded = build_web_population(CONFIG, shards=3, workers=1)
        assert _world_digest(sharded) == _world_digest(baseline)

    def test_threaded_sharded_build_identical(self, baseline):
        sharded = build_web_population(CONFIG, shards=4, workers=2, mode="thread")
        assert _world_digest(sharded) == _world_digest(baseline)

    def test_forked_sharded_build_identical(self, baseline):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        sharded = build_web_population(CONFIG, shards=2, workers=2, mode="process")
        assert _world_digest(sharded) == _world_digest(baseline)

    def test_build_emits_shard_balance_counters(self):
        registry = shared_registry()
        before = registry.counter_totals("shard.sites")
        build_web_population(CONFIG, shards=3, workers=1)
        after = registry.counter_totals("shard.sites")
        grown = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in after
            if "stage=build" in key and after.get(key, 0) != before.get(key, 0)
        }
        # Three shards, and together they cover every constructed site
        # (the stable set plus the audit extras).
        assert len(grown) == 3
        assert sum(grown.values()) > 0


class TestShardedCollectIdentity:
    """The sharded crawl writes an archive; reassembled, it must equal
    an unsharded :func:`collect_snapshots` record for record."""

    @pytest.fixture(scope="class")
    def unsharded(self, baseline):
        return collect_snapshots(baseline, workers=1)

    @staticmethod
    def _archived(population, root, **kwargs):
        collect_shard_archives(population, root, **kwargs)
        with ArchiveSet.open(root) as archive:
            return archive.snapshots(), analysis_domains(archive)

    def test_sharded_serial_collect_identical(self, baseline, unsharded, tmp_path):
        snapshots, _ = self._archived(baseline, tmp_path, shards=3, workers=1)
        assert _series_digest(snapshots) == _series_digest(unsharded.snapshots)

    def test_sharded_threaded_collect_identical(self, baseline, unsharded, tmp_path):
        snapshots, analysis = self._archived(
            baseline, tmp_path, shards=4, workers=2, mode="thread"
        )
        assert _series_digest(snapshots) == _series_digest(unsharded.snapshots)
        assert analysis == unsharded.analysis_domains

    def test_sharded_forked_collect_identical(self, baseline, unsharded, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        snapshots, _ = self._archived(
            baseline, tmp_path, shards=2, workers=2, mode="process"
        )
        assert _series_digest(snapshots) == _series_digest(unsharded.snapshots)

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
