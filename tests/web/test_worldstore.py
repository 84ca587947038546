"""Tests for the content-addressed world store.

The store's whole contract is: a cached world is observationally
identical to a fresh build, and a stored world rejects every write, so
no consumer can observe another's.  These tests pin both halves, plus
the digest keying and the site-level paths the store relies on: a
stored site holds no derived state, the handlers it builds live only as
long as their network, and its pages render only on request.
"""

import dataclasses
import gc
import operator
import weakref

import pytest

from repro.measure.longitudinal import collect_snapshots
from repro.net.http import Request
from repro.net.server import render_page
from repro.net.transport import Network
from repro.proxy.cloudflare import CloudflareSettings
from repro.report.longitudinal import build_longitudinal_bundle, run_figure2, run_table3
from repro.web import site as site_module
from repro.web.evolution import EvolutionParams
from repro.web.population import PopulationConfig
from repro.web.site import BlockingConfig, SimSite
from repro.web.worldstore import WorldStore, config_digest, shared_world_store

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
        from repro.obs.metrics import shared_registry, snapshot_delta

        registry = shared_registry()
        before = registry.snapshot()
        private = WorldStore()
        first = private.population(SMALL)
        second = private.population(SMALL)
        assert first is second
        counted = snapshot_delta(registry.snapshot(), before)["counters"]
        events = [
            dict(labels)["event"]
            for (name, labels), value in counted.items()
            if name == "worldstore.population"
            for _ in range(value)
        ]
        assert events.count("miss") == 1
        assert events.count("hit") >= 1

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


def _cloudflare_site(population):
    return next(s for s in population.audit_sites if s.blocking.on_cloudflare)


#: One write of each kind a consumer could try on a stored world.
WRITES = {
    "site_field": lambda p: setattr(p.stable[0], "meta_noai", True),
    "blocking_field": lambda p: setattr(
        p.stable[0].blocking, "blocks_automation", True
    ),
    "cloudflare_field": lambda p: setattr(
        _cloudflare_site(p).blocking.cloudflare, "block_ai_bots", True
    ),
    "robots_schedule": lambda p: p.stable[0].robots_schedule.append((30, None)),
    "missing_months": lambda p: p.stable[0].missing_months.add(30),
    "stable_item": lambda p: operator.setitem(p.stable, 0, p.stable[1]),
    "by_domain_item": lambda p: operator.setitem(p.by_domain, "new.example", p.stable[0]),
    "rankings_item": lambda p: operator.setitem(p.rankings[0], 0, "new.example"),
    "population_field": lambda p: setattr(p, "stable", ()),
}


class TestFrozenSubstrate:
    def test_canonical_sites_reject_mutation(self, store):
        site = store.population(SMALL).stable[0]
        with pytest.raises(AttributeError):
            site.meta_noai = True
        with pytest.raises(AttributeError):
            site.robots_schedule = []

    @pytest.mark.parametrize("write", WRITES.values(), ids=WRITES.keys())
    def test_stored_world_rejects_every_write(self, store, write):
        with pytest.raises((AttributeError, TypeError)):
            write(store.population(SMALL))

    def test_freeze_does_not_block_reads(self, store):
        site = store.population(SMALL).stable[0]
        site.robots_at(12)
        site.build_handler(12)

    def test_preserves_identity_relations(self, store):
        population = store.population(SMALL)
        for site in population.stable_top5k:
            assert population.by_domain[site.domain] is site
        for site in population.audit_sites:
            assert population.by_domain[site.domain] is site


class TestSiteFastPaths:
    def test_materialized_handlers_die_with_their_network(self, store, monkeypatch):
        built = []
        build_handler = SimSite.build_handler

        def recording(site, month):
            handler = build_handler(site, month)
            built.append(weakref.ref(handler))
            return handler

        monkeypatch.setattr(SimSite, "build_handler", recording)
        population = store.population(SMALL)
        network = Network()
        population.materialize(network, month=24, sites=population.audit_sites)
        for site in population.audit_sites:
            network.request(Request(host=site.domain, path="/robots.txt"))
        assert len(built) == len(population.audit_sites)
        assert all(ref() is not None for ref in built)
        del network
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_frozen_site_gains_no_state(self):
        site = SimSite(
            domain="state.example",
            rank=1,
            blocking=BlockingConfig(
                cloudflare=CloudflareSettings(block_ai_bots=True),
                waf_blocks_anthropic=True,
            ),
        )
        site.set_robots(-1, "User-agent: *\nDisallow: /a/")
        site.set_robots(12, "User-agent: GPTBot\nDisallow: /")
        site.freeze()
        before = dict(site.__dict__)
        for month in (0, 12, 12, 24):
            site.robots_at(month)
            site.robots_changed_between(0, month)
            site.build_handler(month)
        assert site.__dict__ == before

    @pytest.mark.parametrize(
        "noai, noimageai, meta",
        [(False, False, None), (True, False, "noai"), (True, True, "noai, noimageai")],
    )
    def test_pages_render_on_request_as_eager_pages_did(self, noai, noimageai, meta):
        site = SimSite(domain="pages.example", rank=3, category="news",
                       meta_noai=noai, meta_noimageai=noimageai)
        site.set_robots(0, "User-agent: *\nDisallow: /private/")
        expected = {
            "/": render_page(
                "pages.example home",
                paragraphs=["news content from pages.example."],
                links=["/about", "/news/latest"],
                meta_robots=meta,
            ),
            "/about": render_page("About pages.example", paragraphs=["About page."]),
            "/news/latest": render_page("Latest", paragraphs=["Fresh content."]),
        }
        origin = site.build_origin(5)
        for path, body in expected.items():
            response = origin.handle(Request(host=site.domain, path=path))
            assert response.status == 200
            assert response.text == body
            assert response.headers.get("Content-Type") == "text/html; charset=utf-8"
        for path in ("/private/x", "/news", "/about/"):
            assert origin.handle(Request(host=site.domain, path=path)).status == 404
        robots = origin.handle(Request(host=site.domain, path="/robots.txt"))
        assert robots.text == site.robots_at(5)
        assert origin.pages == {}

    def test_snapshot_crawl_renders_no_page(self, store, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return render_page(*args, **kwargs)

        monkeypatch.setattr(site_module, "render_page", counting)
        population = store.population(SMALL)
        series = collect_snapshots(population)
        assert series.stable_domains
        assert calls == []
        # The counter sees a page that a request does ask for.
        site = population.stable[0]
        site.build_origin(24).handle(Request(host=site.domain, path="/"))
        assert len(calls) == 1

    def test_robots_at_agrees_with_linear_scan_after_memoization(self):
        site = SimSite(domain="memo.example", rank=10)
        for month, text in [(-1, "v0"), (4, "v1"), (11, None), (18, "v3")]:
            site.set_robots(month, text)
        expected = {0: "v0", 4: "v1", 10: "v1", 11: None, 17: None, 18: "v3", 24: "v3"}
        for month, text in expected.items():
            assert site.robots_at(month) == text
        # A second pass must answer the same: a lookup leaves nothing
        # behind that could change a later one.
        for month, text in expected.items():
            assert site.robots_at(month) == text


class TestCacheHitEqualsFreshBuild:
    def test_experiment_texts_bit_identical(self, store):
        cached = build_longitudinal_bundle(SMALL, store=store)
        fresh = build_longitudinal_bundle(SMALL)
        assert run_figure2(cached.series).text == run_figure2(fresh.series).text
        assert run_table3(cached.series).text == run_table3(fresh.series).text
