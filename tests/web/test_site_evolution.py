"""Tests for SimSite and the operator evolution model."""

import random

from repro.core.classify import RestrictionLevel, classify
from repro.net.http import Request
from repro.web.events import EU_AI_ACT, GPTBOT_ANNOUNCEMENT
from repro.web.evolution import EvolutionParams, OperatorModel
from repro.web.site import BlockingConfig, SimSite


def make_site(domain="example.com", tier="other"):
    return SimSite(domain=domain, rank=100, tier=tier)


class TestSimSiteSchedule:
    def test_empty_schedule_means_no_robots(self):
        assert make_site().robots_at(5) is None

    def test_latest_entry_wins(self):
        site = make_site()
        site.set_robots(-1, "v0")
        site.set_robots(10, "v1")
        site.set_robots(20, "v2")
        assert site.robots_at(0) == "v0"
        assert site.robots_at(10) == "v1"
        assert site.robots_at(15) == "v1"
        assert site.robots_at(24) == "v2"

    def test_set_robots_same_month_replaces(self):
        site = make_site()
        site.set_robots(5, "a")
        site.set_robots(5, "b")
        assert site.robots_at(5) == "b"
        assert len(site.robots_schedule) == 1

    def test_missing_months_hide_robots(self):
        site = make_site()
        site.set_robots(-1, "v0")
        site.missing_months = {7}
        assert site.robots_at(7) is None
        assert site.robots_at(8) == "v0"

    def test_build_origin_serves_schedule(self):
        site = make_site()
        site.set_robots(-1, "User-agent: GPTBot\nDisallow: /")
        origin = site.build_origin(5)
        response = origin.handle(Request(host=site.domain, path="/robots.txt"))
        assert "GPTBot" in response.text

    def test_meta_tags_rendered(self):
        site = make_site()
        site.meta_noai = True
        site.meta_noimageai = True
        origin = site.build_origin(0)
        home = origin.handle(Request(host=site.domain, path="/"))
        assert "noai" in home.text and "noimageai" in home.text

    def test_handler_with_waf_blocks_anthropic(self):
        site = make_site()
        site.blocking = BlockingConfig(waf_blocks_anthropic=True)
        handler = site.build_handler(24)
        blocked = handler.handle(
            Request(host=site.domain, path="/", headers={"User-Agent": "Claudebot"})
        )
        assert blocked.status == 403


class TestOperatorModelPopulationStatistics:
    """Statistical checks over a deterministic cohort of sites."""

    @classmethod
    def setup_class(cls):
        model = OperatorModel(seed=7)
        cls.sites = []
        for i in range(800):
            site = SimSite(domain=f"cohort{i}.com", rank=i, tier="other")
            model.populate(site)
            cls.sites.append(site)
        cls.top_sites = []
        for i in range(800):
            site = SimSite(domain=f"topcohort{i}.com", rank=i, tier="top5k")
            model.populate(site)
            cls.top_sites.append(site)

    @staticmethod
    def _fully_blocks_gptbot(site, month):
        text = site.robots_at(month)
        return (
            text is not None
            and classify(text, "GPTBot").level is RestrictionLevel.FULL
        )

    def test_most_sites_have_baseline_robots(self):
        have = sum(1 for s in self.sites if s.robots_at(0) is not None)
        assert 0.70 < have / len(self.sites) < 0.90

    def test_no_gptbot_restrictions_before_announcement(self):
        for site in self.sites:
            assert not self._fully_blocks_gptbot(site, GPTBOT_ANNOUNCEMENT - 1)

    def test_adoption_surges_after_announcement(self):
        before = sum(self._fully_blocks_gptbot(s, GPTBOT_ANNOUNCEMENT - 1) for s in self.sites)
        after = sum(self._fully_blocks_gptbot(s, 24) for s in self.sites)
        assert before == 0
        assert after / len(self.sites) > 0.03

    def test_top5k_adopts_more_than_other(self):
        other = sum(self._fully_blocks_gptbot(s, 24) for s in self.sites)
        top = sum(self._fully_blocks_gptbot(s, 24) for s in self.top_sites)
        assert top > other

    def test_some_ccbot_restrictions_predate_window(self):
        early = sum(
            1
            for s in self.sites
            if s.robots_at(0) is not None
            and classify(s.robots_at(0), "CCBot").level is RestrictionLevel.FULL
        )
        assert early > 0

    def test_eu_wave_adds_restrictions(self):
        def count(month):
            total = 0
            for s in self.sites + self.top_sites:
                text = s.robots_at(month)
                if text and classify(text, "GPTBot").level.disallows:
                    total += 1
            return total

        assert count(24) > count(EU_AI_ACT - 1)

    def test_deterministic(self):
        model = OperatorModel(seed=7)
        a = SimSite(domain="cohort5.com", rank=5)
        model.populate(a)
        assert a.robots_schedule == self.sites[5].robots_schedule


class TestDealEdits:
    def test_apply_deal_removal(self):
        model = OperatorModel(seed=3)
        site = make_site("pub.com")
        model.populate(site)
        model.apply_deal_removal(site, 20, ("GPTBot", "ChatGPT-User"))
        before = site.robots_at(19)
        after = site.robots_at(20)
        assert classify(before, "GPTBot").level is RestrictionLevel.FULL
        assert classify(after, "GPTBot").level is RestrictionLevel.NO_RESTRICTIONS

    def test_removal_preserves_other_rules(self):
        model = OperatorModel(seed=3)
        site = make_site("pub2.com")
        site.set_robots(-1, "User-agent: *\nDisallow: /admin/\n")
        model.apply_deal_removal(site, 20)
        after = site.robots_at(24)
        assert "/admin/" in after

    def test_apply_explicit_allow(self):
        model = OperatorModel(seed=3)
        site = make_site("allow.com")
        site.set_robots(-1, "User-agent: GPTBot\nDisallow: /\n")
        model.apply_explicit_allow(site, 22)
        assert classify(site.robots_at(22), "GPTBot").explicit_allow
        assert not classify(site.robots_at(21), "GPTBot").explicit_allow


class TestIpBlocking:
    def test_ip_blocklist_blocks_gptbot_by_address(self):
        from repro.agents.ipranges import crawler_ip

        site = make_site()
        site.blocking = BlockingConfig(ip_blocks_published_ai=True)
        handler = site.build_handler(24)
        # Genuine GPTBot (right IP) is blocked...
        blocked = handler.handle(
            Request(
                host=site.domain,
                path="/",
                headers={"User-Agent": "GPTBot/1.1"},
                client_ip=crawler_ip("GPTBot"),
            )
        )
        assert blocked.status == 403

    def test_ua_probe_from_other_ip_sees_nothing(self):
        site = make_site()
        site.blocking = BlockingConfig(ip_blocks_published_ai=True)
        handler = site.build_handler(24)
        # ...but the paper's UA probe from the measurement host passes,
        # which is exactly the detector's blind spot.
        probe = handler.handle(
            Request(
                host=site.domain,
                path="/",
                headers={"User-Agent": "GPTBot/1.1"},
                client_ip="198.51.100.1",
            )
        )
        assert probe.ok

    def test_unpublished_ranges_not_blocked(self):
        from repro.agents.ipranges import crawler_ip

        site = make_site()
        site.blocking = BlockingConfig(ip_blocks_published_ai=True)
        handler = site.build_handler(24)
        # ClaudeBot's range is unpublished; an IP blocklist cannot
        # include it (Section 8.2: "IP-level blocking is not technically
        # feasible" for Anthropic).
        response = handler.handle(
            Request(
                host=site.domain,
                path="/",
                headers={"User-Agent": "ClaudeBot/1.0"},
                client_ip=crawler_ip("ClaudeBot"),
            )
        )
        assert response.ok

    def test_search_engine_ranges_spared(self):
        from repro.agents.ipranges import crawler_ip

        site = make_site()
        site.blocking = BlockingConfig(ip_blocks_published_ai=True)
        handler = site.build_handler(24)
        response = handler.handle(
            Request(
                host=site.domain,
                path="/",
                headers={"User-Agent": "Googlebot/2.1"},
                client_ip=crawler_ip("Googlebot"),
            )
        )
        assert response.ok
