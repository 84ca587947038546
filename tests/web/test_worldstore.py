"""Tests for the content-addressed world store.

The store's whole contract is: a cached world is observationally
identical to a fresh build, and a copy-on-write view can never leak a
mutation back into the substrate (or into a sibling view).  These tests
pin both halves, plus the digest keying and the site-level fast paths
(robots_at memoization, handler caching) the store relies on.
"""

import dataclasses

import pytest

from repro.report.experiments import (
    build_longitudinal_bundle,
    run_figure2,
    run_table3,
)
from repro.web.evolution import EvolutionParams
from repro.web.population import PopulationConfig
from repro.web.site import SimSite
from repro.web.worldstore import (
    WorldStore,
    clone_population,
    config_digest,
    shared_world_store,
)

SMALL = PopulationConfig(
    universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
)


@pytest.fixture(scope="module")
def store():
    return WorldStore()


class TestConfigDigest:
    def test_stable_across_equal_configs(self):
        again = PopulationConfig(
            universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
        )
        assert config_digest(SMALL) == config_digest(again)

    def test_none_means_default_config(self):
        assert config_digest(None) == config_digest(PopulationConfig())

    def test_sensitive_to_seed(self):
        assert config_digest(SMALL) != config_digest(
            dataclasses.replace(SMALL, seed=8)
        )

    def test_sensitive_to_scale(self):
        assert config_digest(SMALL) != config_digest(
            dataclasses.replace(SMALL, list_size=301)
        )

    def test_sensitive_to_nested_evolution_params(self):
        tweaked = dataclasses.replace(
            SMALL, evolution=EvolutionParams(p_has_robots=0.5)
        )
        assert config_digest(SMALL) != config_digest(tweaked)


class TestStoreCaching:
    def test_population_cache_hit_returns_same_object(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        private = WorldStore(registry=registry)
        first = private.population(SMALL)
        second = private.population(SMALL)
        assert first is second
        totals = registry.counter_totals("worldstore.population")
        assert sum(v for k, v in totals.items() if "event=miss" in k) == 1
        assert sum(v for k, v in totals.items() if "event=hit" in k) >= 1

    def test_equal_config_different_instance_still_hits(self, store):
        again = dataclasses.replace(SMALL)
        assert store.population(again) is store.population(SMALL)

    def test_different_seed_builds_a_different_world(self, store):
        other = store.population(dataclasses.replace(SMALL, seed=8))
        assert other is not store.population(SMALL)

    def test_series_is_cached(self, store):
        first = store.series(SMALL)
        assert store.series(SMALL) is first

    def test_shared_store_is_a_singleton(self):
        assert shared_world_store() is shared_world_store()


class TestFrozenSubstrate:
    def test_canonical_sites_reject_mutation(self, store):
        site = store.population(SMALL).stable[0]
        assert site.frozen
        with pytest.raises(AttributeError):
            site.meta_noai = True
        with pytest.raises(AttributeError):
            site.robots_schedule = []

    def test_freeze_does_not_block_reads(self, store):
        site = store.population(SMALL).stable[0]
        site.robots_at(12)
        site.build_handler(12)


class TestCopyOnWriteViews:
    def test_view_sites_are_mutable_clones(self, store):
        view = store.population_view(SMALL)
        site = view.stable[0]
        assert not site.frozen
        site.meta_noai = True  # must not raise

    def test_view_mutations_never_reach_the_canonical_world(self, store):
        canonical = store.population(SMALL)
        view = store.population_view(SMALL)
        domain = next(
            site.domain
            for site in canonical.audit_sites
            if not site.blocking.blocks_automation
        )
        view.by_domain[domain].blocking.blocks_automation = True
        view.by_domain[domain].set_robots(0, "User-agent: *\nDisallow: /view-only/")
        original = canonical.by_domain[domain]
        assert not original.blocking.blocks_automation
        assert original.robots_at(0) != "User-agent: *\nDisallow: /view-only/"

    def test_sibling_views_are_isolated_from_each_other(self, store):
        one = store.population_view(SMALL)
        two = store.population_view(SMALL)
        domain = one.stable[0].domain
        one.by_domain[domain].set_robots(5, "User-agent: GPTBot\nDisallow: /one/")
        assert two.by_domain[domain].robots_at(5) != "User-agent: GPTBot\nDisallow: /one/"

    def test_view_preserves_identity_relations(self, store):
        view = store.population_view(SMALL)
        for site in view.stable_top5k:
            assert view.by_domain[site.domain] is site
        for site in view.audit_sites:
            assert view.by_domain[site.domain] is site

    def test_clone_population_copies_containers(self, store):
        canonical = store.population(SMALL)
        view = clone_population(canonical)
        view.rankings[0].append("injected.example")
        assert "injected.example" not in canonical.rankings[0]


class TestSiteFastPaths:
    def test_handler_shared_across_months_with_same_robots(self):
        site = SimSite(domain="cache.example", rank=10)
        site.set_robots(0, "User-agent: *\nDisallow: /private/")
        assert site.build_handler(3) is site.build_handler(9)

    def test_handler_cache_invalidated_by_set_robots(self):
        site = SimSite(domain="cache.example", rank=10)
        site.set_robots(0, "User-agent: *\nDisallow: /a/")
        before = site.build_handler(3)
        site.set_robots(2, "User-agent: *\nDisallow: /b/")
        after = site.build_handler(3)
        assert after is not before

    def test_clone_shares_then_detaches_handler_cache(self):
        site = SimSite(domain="cow.example", rank=10)
        site.set_robots(0, "User-agent: *\nDisallow: /x/")
        shared = site.build_handler(1)
        twin = site.clone()
        assert twin.build_handler(1) is shared
        twin.set_robots(1, "User-agent: GPTBot\nDisallow: /")
        assert twin.build_handler(1) is not shared
        # The original keeps its cached handler untouched.
        assert site.build_handler(1) is shared

    def test_robots_at_agrees_with_linear_scan_after_memoization(self):
        site = SimSite(domain="memo.example", rank=10)
        for month, text in [(-1, "v0"), (4, "v1"), (11, None), (18, "v3")]:
            site.set_robots(month, text)
        expected = {0: "v0", 4: "v1", 10: "v1", 11: None, 17: None, 18: "v3", 24: "v3"}
        for month, text in expected.items():
            assert site.robots_at(month) == text
        # Second pass hits the memo; answers must not drift.
        for month, text in expected.items():
            assert site.robots_at(month) == text


class TestCacheHitEqualsFreshBuild:
    def test_experiment_texts_bit_identical(self, store):
        cached = build_longitudinal_bundle(SMALL, store=store)
        fresh = build_longitudinal_bundle(SMALL)
        assert run_figure2(cached.series).text == run_figure2(fresh.series).text
        assert run_table3(cached.series).text == run_table3(fresh.series).text
