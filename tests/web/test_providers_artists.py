"""Tests for hosting providers and the artist population."""

import pytest

from repro.core.classify import RestrictionLevel, classify
from repro.net.http import Request
from repro.net.transport import Network
from repro.proxy.challenges import PageKind, classify_page
from repro.proxy.fingerprint import AUTOMATION_HEADER
from repro.web.artists import N_ARTISTS, SQUARESPACE_TOGGLE_RATE, build_artist_population
from repro.web.providers import TOP_PROVIDERS, RobotsControl, provider_by_name


class TestProviders:
    def test_eight_providers(self):
        assert len(TOP_PROVIDERS) == 8

    def test_shares_match_table2(self):
        shares = {p.name: p.share for p in TOP_PROVIDERS}
        assert shares["Squarespace"] == pytest.approx(0.207)
        assert shares["Artstation"] == pytest.approx(0.204)
        assert shares["Carbonmade"] == pytest.approx(0.015)

    def test_only_wix_paid_gives_full_control(self):
        full = [p.name for p in TOP_PROVIDERS if p.control == RobotsControl.FULL]
        assert full == ["Wix (Paid)"]

    def test_only_squarespace_gives_ai_toggle(self):
        toggles = [p.name for p in TOP_PROVIDERS if p.control == RobotsControl.AI_TOGGLE]
        assert toggles == ["Squarespace"]

    def test_carbonmade_default_blocks_ai(self):
        carbonmade = provider_by_name("Carbonmade")
        text = carbonmade.default_robots_txt()
        assert classify(text, "GPTBot").level is RestrictionLevel.FULL
        assert classify(text, "CCBot").level is RestrictionLevel.FULL

    def test_squarespace_toggle_adds_ten_agents(self):
        squarespace = provider_by_name("Squarespace")
        off = squarespace.default_robots_txt(ai_toggle_on=False)
        on = squarespace.default_robots_txt(ai_toggle_on=True)
        assert classify(off, "GPTBot").level is RestrictionLevel.NO_RESTRICTIONS
        assert classify(on, "GPTBot").level is RestrictionLevel.FULL
        assert classify(on, "anthropic-ai").level is RestrictionLevel.FULL
        assert classify(on, "Bytespider").level is RestrictionLevel.NO_RESTRICTIONS

    def test_weebly_blocks_claudebot_and_bytespider(self):
        weebly = provider_by_name("Weebly")
        assert set(weebly.blocks_uas) == {"Claudebot", "Bytespider"}

    def test_unknown_provider_raises(self):
        with pytest.raises(KeyError):
            provider_by_name("GeoCities")


def by_provider(population):
    """The population's provider-hosted sites, grouped by provider name."""
    groups = {}
    for site in population.sites:
        if site.provider is not None:
            groups.setdefault(site.provider.name, []).append(site)
    return groups


class TestArtistPopulation:
    POP = build_artist_population(seed=42)

    def test_population_size(self):
        assert len(self.POP.sites) == N_ARTISTS == 1182

    def test_provider_shares_approximate_table2(self):
        groups = by_provider(self.POP)
        share = len(groups.get("Squarespace", [])) / 1182
        assert 0.16 < share < 0.26
        share = len(groups.get("Artstation", [])) / 1182
        assert 0.16 < share < 0.25

    def test_majority_on_top8_providers(self):
        on_top8 = sum(1 for s in self.POP.sites if s.provider is not None)
        assert 0.55 < on_top8 / 1182 < 0.75

    def test_squarespace_toggle_rate(self):
        squarespace = by_provider(self.POP)["Squarespace"]
        enabled = sum(1 for s in squarespace if s.ai_toggle_on)
        rate = enabled / len(squarespace)
        assert abs(rate - SQUARESPACE_TOGGLE_RATE) < 0.07

    def test_non_squarespace_never_toggled(self):
        for site in self.POP.sites:
            if site.provider and site.provider.name != "Squarespace":
                assert not site.ai_toggle_on

    def test_carbonmade_sites_are_subdomains(self):
        for site in by_provider(self.POP).get("Carbonmade", []):
            assert site.host.endswith(".carbonmade.com")

    def test_dns_attribution_recovers_providers(self):
        infra = [p.infra for p in TOP_PROVIDERS]
        hits = 0
        total = 0
        for site in self.POP.sites:
            if site.provider is None:
                continue
            total += 1
            attributed = self.POP.zone.attribute(site.host, infra)
            if attributed == site.provider.infra.name:
                hits += 1
        assert hits == total  # attribution is exact in the simulation

    def test_long_tail_unattributed(self):
        infra = [p.infra for p in TOP_PROVIDERS]
        tails = [s for s in self.POP.sites if s.provider is None][:20]
        for site in tails:
            assert self.POP.zone.attribute(site.host, infra) is None

    def test_deterministic(self):
        again = build_artist_population(seed=42)
        assert [s.host for s in again.sites] == [s.host for s in self.POP.sites]


class TestArtistServing:
    def test_weebly_edge_blocks_claudebot(self):
        pop = build_artist_population(seed=1)
        weebly_sites = by_provider(pop).get("Weebly", [])
        assert weebly_sites, "expected some Weebly sites"
        net = Network()
        site = weebly_sites[0]
        net.register(site.build_handler(), host=site.host)
        response = net.request(
            Request(host=site.host, headers={"User-Agent": "Claudebot/1.0"})
        )
        assert response.status == 403

    def test_artstation_captchas_automation(self):
        pop = build_artist_population(seed=1)
        artstation = by_provider(pop).get("Artstation", [])[0]
        handler = artstation.build_handler()
        response = handler.handle(
            Request(
                host=artstation.host,
                headers={
                    "User-Agent": "Mozilla/5.0 (X11) Chrome/120 Safari/537.36",
                    AUTOMATION_HEADER: "webdriver",
                },
            )
        )
        assert classify_page(response.text) is PageKind.CAPTCHA

    def test_plain_browser_gets_content_everywhere(self):
        pop = build_artist_population(seed=1)
        net = Network()
        pop.materialize(net)
        from repro.agents.useragent import DEFAULT_BROWSER_UA

        for site in pop.sites[:30]:
            response = net.request(
                Request(host=site.host, headers={"User-Agent": DEFAULT_BROWSER_UA})
            )
            assert response.ok, site.host
