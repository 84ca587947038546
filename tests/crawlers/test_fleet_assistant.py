"""Tests for the Table 1 fleet, built-in assistants, and the app store."""

from repro.crawlers.assistant import build_app_store, build_third_party_services
from repro.crawlers.fleet import (
    FACEBOOK_EXTERNAL_HIT_UA,
    PASSIVE_VISITORS,
    build_builtin_assistants,
    build_fleet,
)
from repro.crawlers.profiles import RobotsBehavior
from repro.net.server import Website, render_page
from repro.net.transport import Network


def make_net():
    net = Network()
    site = Website("victim.com")
    site.add_page("/", render_page("V", links=["/page"]))
    site.add_page("/page", render_page("P"))
    site.set_robots_txt("User-agent: *\nDisallow: /")
    net.register(site)
    return net, site


class TestFleet:
    def test_fleet_covers_all_real_table1_crawlers(self):
        net, _ = make_net()
        fleet = build_fleet(net)
        assert len(fleet) == 21  # 24 minus 3 control tokens
        assert "GPTBot" in fleet and "Google-Extended" not in fleet

    def test_passive_visitor_flags(self):
        net, _ = make_net()
        fleet = build_fleet(net)
        visitors = {t for t, m in fleet.items() if m.visits_unprompted}
        assert visitors == set(PASSIVE_VISITORS)

    def test_bytespider_is_defiant(self):
        net, _ = make_net()
        fleet = build_fleet(net)
        assert fleet["Bytespider"].crawler.profile.behavior is RobotsBehavior.FETCH_AND_IGNORE

    def test_gptbot_obeys_on_the_wire(self):
        net, site = make_net()
        fleet = build_fleet(net)
        fleet["GPTBot"].crawler.crawl("victim.com")
        assert site.access_log.fetched_robots("GPTBot")
        assert not site.access_log.fetched_content("GPTBot")

    def test_bytespider_defies_on_the_wire(self):
        net, site = make_net()
        fleet = build_fleet(net)
        fleet["Bytespider"].crawler.crawl("victim.com")
        assert site.access_log.fetched_robots("Bytespider")
        assert site.access_log.fetched_content("Bytespider")

    def test_chatgpt_user_quirk_flag(self):
        net, _ = make_net()
        fleet = build_fleet(net)
        assert fleet["ChatGPT-User"].passive_quirk == "single-visit-no-robots"
        assert fleet["GPTBot"].passive_quirk is None

    def test_fleet_ips_match_assigned_ranges(self):
        net, _ = make_net()
        fleet = build_fleet(net)
        assert fleet["GPTBot"].crawler.profile.source_ip.startswith("100.64.13.")
        assert fleet["Bytespider"].crawler.profile.source_ip.startswith("100.64.5.")


class TestBuiltinAssistants:
    def test_chatgpt_obeys(self):
        net, site = make_net()
        assistants = build_builtin_assistants(net)
        result = assistants["ChatGPT"].fetch("victim.com", "/page")
        assert result.skipped == ["/page"]
        assert site.access_log.fetched_robots("ChatGPT-User")

    def test_meta_uses_facebookexternalhit_ua(self):
        net, site = make_net()
        assistants = build_builtin_assistants(net)
        assistants["Meta"].fetch("victim.com", "/page")
        agents = {e.user_agent for e in site.access_log}
        assert any("facebookexternalhit" in ua for ua in agents)
        assert not any("Meta-ExternalFetcher" in ua for ua in agents)

    def test_meta_obeys_robots(self):
        net, site = make_net()
        assistants = build_builtin_assistants(net)
        result = assistants["Meta"].fetch("victim.com", "/page")
        assert result.skipped == ["/page"]


class TestThirdPartyServices:
    def test_behavior_mix_matches_paper(self):
        net, _ = make_net()
        services = build_third_party_services(net)
        behaviors = [s.crawler.profile.behavior for s in services]
        assert behaviors.count(RobotsBehavior.FETCH_AND_OBEY) == 1
        assert behaviors.count(RobotsBehavior.BUGGY_FETCH) == 1
        assert behaviors.count(RobotsBehavior.INTERMITTENT_FETCH) == 1
        assert behaviors.count(RobotsBehavior.NO_FETCH) == 20

    def test_23_distinct_services(self):
        net, _ = make_net()
        services = build_third_party_services(net)
        assert len(services) == 23
        assert len({s.registered_domain for s in services}) == 23
        assert len({s.ip_pool[0] for s in services}) == 23

    def test_deterministic(self):
        net, _ = make_net()
        a = build_third_party_services(net, seed=7)
        b = build_third_party_services(net, seed=7)
        assert [s.crawler.profile.user_agent for s in a] == [
            s.crawler.profile.user_agent for s in b
        ]


class TestAppStore:
    def test_store_size_and_composition(self):
        net, _ = make_net()
        store = build_app_store(net, n_apps=1000)
        assert len(store.apps) == 1000
        browsing = store.browsing_apps()
        assert 0 < len(browsing) < 1000
        # Every third-party service is reachable through some app.
        used = {a.service.name for a in browsing}
        assert used == {s.name for s in store.services}

    def test_non_browsing_app_returns_none(self):
        net, _ = make_net()
        store = build_app_store(net, n_apps=200)
        app = next(a for a in store.apps if not a.can_browse)
        assert app.trigger_fetch("victim.com") is None

    def test_trigger_fetch_reaches_site(self):
        net, site = make_net()
        store = build_app_store(net, n_apps=500)
        app = store.browsing_apps()[0]
        app.trigger_fetch("victim.com", "/page")
        assert len(site.access_log) > 0

    def test_oblivious_service_ignores_robots(self):
        net, site = make_net()
        services = build_third_party_services(net)
        oblivious = services[5]  # index >= 3 never fetches robots.txt
        result = oblivious.crawler.fetch("victim.com", "/page")
        assert result.content_fetches == ["/page"]
        assert not result.robots_fetched
