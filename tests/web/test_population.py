"""Tests for the web population builder."""

import pytest

from repro.core.classify import RestrictionLevel, classify
from repro.net.http import Request
from repro.net.transport import Network
from repro.web.events import DATA_DEALS
from repro.web.population import PopulationConfig, build_web_population

SMALL = PopulationConfig(
    universe_size=1500, list_size=1000, top5k_cut=120, audit_size=300, seed=11
)


@pytest.fixture(scope="module")
def population():
    return build_web_population(SMALL)


class TestStructure:
    def test_stable_set_nonempty_and_bounded(self, population):
        assert 0 < len(population.stable) <= SMALL.list_size

    def test_top5k_tier_subset(self, population):
        top = {s.domain for s in population.stable_top5k}
        assert top <= {s.domain for s in population.stable}
        assert 0 < len(top) <= SMALL.top5k_cut

    def test_audit_sites_count(self, population):
        assert len(population.audit_sites) == SMALL.audit_size

    def test_by_domain_covers_everything(self, population):
        for site in population.stable + population.audit_sites:
            assert population.by_domain[site.domain] is site

    def test_deterministic(self):
        a = build_web_population(SMALL)
        b = build_web_population(SMALL)
        assert [s.domain for s in a.stable] == [s.domain for s in b.stable]
        assert a.stable[0].robots_schedule == b.stable[0].robots_schedule


class TestTrendStatistics:
    def _full_disallow_rate(self, sites, month):
        from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS

        eligible = [s for s in sites if s.robots_at(month) is not None]
        if not eligible:
            return 0.0
        hits = sum(
            any(
                classify(s.robots_at(month), agent).level is RestrictionLevel.FULL
                for agent in AI_USER_AGENT_TOKENS
            )
            for s in eligible
        )
        return hits / len(eligible)

    def test_restrictions_grow_over_time(self, population):
        early = self._full_disallow_rate(population.stable, 0)
        late = self._full_disallow_rate(population.stable, 24)
        assert late > early

    def test_top5k_more_restrictive_than_rest(self, population):
        # The tier gap is ~4.5 points in expectation but the test
        # population's top tier holds <100 sites, so allow sampling
        # noise; the large-cohort check lives in test_site_evolution.
        top = self._full_disallow_rate(population.stable_top5k, 24)
        other = self._full_disallow_rate(
            [s for s in population.stable if s.tier != "top5k"], 24
        )
        assert top > other - 0.03

    def test_final_rates_in_paper_band(self, population):
        top = self._full_disallow_rate(population.stable_top5k, 24)
        other = self._full_disallow_rate(
            [s for s in population.stable if s.tier != "top5k"], 24
        )
        assert 0.08 <= top <= 0.20
        assert 0.05 <= other <= 0.14


class TestDealsAndAllows:
    def test_every_deal_assigned_domains(self, population):
        for deal in DATA_DEALS:
            assert population.deal_domains[deal.publisher]

    def test_deal_sites_remove_gptbot_at_deal_month(self, population):
        deal = DATA_DEALS[3]  # Dotdash Meredith
        for domain in population.deal_domains[deal.publisher]:
            site = population.by_domain[domain]
            before = site.robots_at(deal.month - 1)
            after = site.robots_at(deal.month)
            assert classify(before, "GPTBot").level is RestrictionLevel.FULL
            assert (
                classify(after, "GPTBot").level
                is RestrictionLevel.NO_RESTRICTIONS
            )

    def test_explicit_allowers_exist(self, population):
        assert population.explicit_allow_domains
        final_allows = [
            d
            for d in population.explicit_allow_domains
            if population.by_domain[d].robots_at(24) is not None
            and classify(population.by_domain[d].robots_at(24), "GPTBot").explicit_allow
        ]
        assert final_allows

    def test_vox_media_deal_adds_explicit_allow(self, population):
        vox = next(d for d in DATA_DEALS if d.publisher == "Vox Media")
        domain = population.deal_domains["Vox Media"][0]
        site = population.by_domain[domain]
        assert classify(site.robots_at(vox.month), "GPTBot").explicit_allow


class TestAuditAttributes:
    def test_cloudflare_rate(self, population):
        on_cf = sum(1 for s in population.audit_sites if s.blocking.on_cloudflare)
        assert 0.10 < on_cf / len(population.audit_sites) < 0.32

    def test_automation_blocking_rate(self, population):
        rate = sum(
            1 for s in population.audit_sites if s.blocking.blocks_automation
        ) / len(population.audit_sites)
        assert 0.08 < rate < 0.24

    def test_some_block_ai_enabled(self, population):
        enabled = [
            s
            for s in population.audit_sites
            if s.blocking.cloudflare and s.blocking.cloudflare.block_ai_bots
        ]
        assert enabled

    def test_meta_tags_rare(self, population):
        noai = sum(1 for s in population.audit_sites if s.meta_noai)
        assert noai <= 5  # 17 per 10k scaled to 300 sites

    def test_noimageai_implies_noai(self, population):
        for site in population.audit_sites:
            if site.meta_noimageai:
                assert site.meta_noai


class TestMaterialization:
    def test_sites_servable(self, population):
        net = Network()
        population.materialize(net, month=24, sites=population.stable[:20])
        for site in population.stable[:20]:
            response = net.request(
                Request(host=site.domain, path="/robots.txt",
                        headers={"User-Agent": "CCBot/2.0"})
            )
            assert response.status in (200, 404, 403)
