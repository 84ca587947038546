"""Tests for ReverseProxy and CloudflareProxy."""

from repro.agents.ipranges import crawler_ip
from repro.agents.useragent import DEFAULT_BROWSER_UA
from repro.net.http import Request
from repro.net.server import Website, render_page
from repro.net.transport import Network
from repro.proxy.challenges import PageKind, classify_page
from repro.proxy.cloudflare import CloudflareProxy, CloudflareSettings
from repro.proxy.fingerprint import AUTOMATION_HEADER
from repro.proxy.reverse_proxy import ReverseProxy
from repro.proxy.rules import Action, BlockRule, RuleSet


def origin(host="site.com"):
    site = Website(host)
    site.add_page("/", render_page("Site home", paragraphs=["welcome"]))
    site.set_robots_txt("User-agent: *\nDisallow:")
    return site


def req(ua, ip="198.51.100.1", path="/", host="site.com", **headers):
    merged = {"User-Agent": ua}
    merged.update(headers)
    return Request(host=host, path=path, headers=merged, client_ip=ip)


class TestReverseProxy:
    def test_forwards_when_no_rule_matches(self):
        proxy = ReverseProxy(origin(), RuleSet([BlockRule(Action.BLOCK, ["Bytespider"])]))
        response = proxy.handle(req(DEFAULT_BROWSER_UA))
        assert response.ok and "welcome" in response.text

    def test_blocks_matching_ua(self):
        proxy = ReverseProxy(origin(), RuleSet([BlockRule(Action.BLOCK, ["Bytespider"])]))
        response = proxy.handle(req("Bytespider"))
        assert response.status == 403
        assert classify_page(response.text) is PageKind.BLOCK

    def test_blocked_request_never_reaches_origin(self):
        site = origin()
        proxy = ReverseProxy(site, RuleSet([BlockRule(Action.BLOCK, ["Bytespider"])]))
        proxy.handle(req("Bytespider"))
        # The proxy logs the request, once, into the host's one log.
        assert proxy.access_log is site.access_log
        assert [e.outcome for e in site.access_log] == ["blocked_403"]

    def test_block_all_automation(self):
        proxy = ReverseProxy(origin(), block_all_automation=True)
        blocked = proxy.handle(
            req(DEFAULT_BROWSER_UA, **{AUTOMATION_HEADER: "webdriver"})
        )
        assert blocked.status == 403
        assert classify_page(blocked.text) is PageKind.CAPTCHA
        # A clean browser passes.
        assert proxy.handle(req(DEFAULT_BROWSER_UA)).ok

    def test_host_delegates_to_origin(self):
        assert ReverseProxy(origin("x.net")).host == "x.net"

    def test_registers_on_network(self):
        net = Network()
        net.register(ReverseProxy(origin("p.com")))
        assert net.request(Request(host="p.com")).ok


class TestCloudflareVerifiedBots:
    def test_genuine_gptbot_passes_without_block_setting(self):
        zone = CloudflareProxy(origin(), CloudflareSettings())
        response = zone.handle(req("GPTBot/1.1", ip=crawler_ip("GPTBot")))
        assert response.ok

    def test_spoofed_gptbot_blocked_under_definitely_automated(self):
        zone = CloudflareProxy(
            origin(), CloudflareSettings(definitely_automated=True)
        )
        response = zone.handle(req("GPTBot/1.1", ip="192.0.2.50"))
        assert response.status == 403
        assert ("GPTBot/1.1", "spoofed-verified-bot") in zone.dashboard

    def test_spoofed_gptbot_passes_with_managed_rules_off(self):
        # Without Definitely Automated, no IP validation happens; this
        # is what allowed the paper's grey-box probes to work.
        zone = CloudflareProxy(origin(), CloudflareSettings())
        assert zone.handle(req("GPTBot/1.1", ip="192.0.2.50")).ok

    def test_genuine_gptbot_passes_under_definitely_automated(self):
        zone = CloudflareProxy(
            origin(), CloudflareSettings(definitely_automated=True)
        )
        assert zone.handle(req("GPTBot/1.1", ip=crawler_ip("GPTBot"))).ok

    def test_unverified_bot_not_spoof_checked(self):
        # ClaudeBot publishes no IPs, so it cannot be verified and is
        # not IP-checked (though DA would challenge it by UA).
        zone = CloudflareProxy(origin(), CloudflareSettings())
        assert zone.handle(req("ClaudeBot/1.0", ip="192.0.2.50")).ok


class TestCloudflareBlockAIBots:
    def on(self):
        return CloudflareProxy(origin(), CloudflareSettings(block_ai_bots=True))

    def test_blocks_unverified_ai_crawlers(self):
        zone = self.on()
        for ua in ("Bytespider", "ClaudeBot/1.0", "PerplexityBot/1.0", "cohere-ai"):
            response = zone.handle(req(ua))
            assert response.status == 403, ua
            assert classify_page(response.text) is PageKind.BLOCK

    def test_blocks_genuine_verified_ai_bots(self):
        zone = self.on()
        response = zone.handle(req("GPTBot/1.1", ip=crawler_ip("GPTBot")))
        assert response.status == 403
        assert ("GPTBot/1.1", "block-ai") in zone.dashboard

    def test_does_not_block_exempt_verified_bots(self):
        zone = self.on()
        # Applebot and OAI-SearchBot are verified but NOT in the block
        # list (footnote 8).
        assert zone.handle(req("Applebot/0.1", ip=crawler_ip("Applebot"))).ok
        assert zone.handle(
            req("OAI-SearchBot/1.0", ip=crawler_ip("OAI-SearchBot"))
        ).ok

    def test_does_not_block_plain_browsers(self):
        assert self.on().handle(req(DEFAULT_BROWSER_UA)).ok

    def test_googlebot_unaffected(self):
        zone = self.on()
        assert zone.handle(req("Googlebot/2.1", ip=crawler_ip("Googlebot"))).ok

    def test_off_by_default(self):
        zone = CloudflareProxy(origin())
        assert zone.handle(req("Bytespider")).ok


class TestCloudflareDefinitelyAutomated:
    def on(self):
        return CloudflareProxy(
            origin(), CloudflareSettings(definitely_automated=True)
        )

    def test_challenges_automation_tools(self):
        zone = self.on()
        for ua in ("python-requests/2.32", "curl/8.0", "HeadlessChrome", "libwww-perl/6.1"):
            response = zone.handle(req(ua))
            assert response.status == 403, ua
            assert classify_page(response.text) is PageKind.CHALLENGE, ua

    def test_challenges_listed_ai_agents(self):
        response = self.on().handle(req("anthropic-ai"))
        assert response.status == 403

    def test_browser_passes(self):
        assert self.on().handle(req(DEFAULT_BROWSER_UA)).ok


class TestCloudflareComposition:
    def test_custom_rules_run_first(self):
        custom = RuleSet([BlockRule(Action.CHALLENGE, ua_patterns=["oddball"])])
        zone = CloudflareProxy(origin(), CloudflareSettings(), custom_rules=custom)
        response = zone.handle(req("oddball/1.0"))
        assert response.status == 403
        assert zone.dashboard[-1][1] == "custom"

    def test_dashboard_records_passes(self):
        zone = CloudflareProxy(origin())
        zone.handle(req(DEFAULT_BROWSER_UA))
        assert zone.dashboard == [(DEFAULT_BROWSER_UA, "pass")]

    def test_both_settings_block_page_beats_challenge(self):
        zone = CloudflareProxy(
            origin(),
            CloudflareSettings(block_ai_bots=True, definitely_automated=True),
        )
        # Bytespider is in both lists; Block AI Bots takes precedence.
        response = zone.handle(req("Bytespider"))
        assert classify_page(response.text) is PageKind.BLOCK


class TestOneRecordPerRequest:
    """A proxy chain logs each request once, into the origin's log."""

    def test_chain_logs_each_request_once_at_the_terminating_layer(self):
        from repro.net.accesslog import reset_agent_label_memo, set_log_sink
        from repro.net.logstore import LogSink
        from repro.obs.metrics import set_metrics_enabled, shared_registry

        site = origin()
        inner = ReverseProxy(site, RuleSet([
            BlockRule(Action.CHALLENGE, ua_patterns=["EvilAgent"]),
            BlockRule(Action.BLOCK, ua_patterns=["NosyAgent"]),
        ]))
        zone = CloudflareProxy(
            inner,
            CloudflareSettings(block_ai_bots=True, definitely_automated=True),
        )
        assert inner.access_log is site.access_log
        assert zone.access_log is site.access_log

        sink = LogSink()
        set_metrics_enabled(True)
        shared_registry().reset()
        reset_agent_label_memo()
        previous = set_log_sink(sink)
        try:
            zone.handle(req(DEFAULT_BROWSER_UA))
            zone.handle(req(DEFAULT_BROWSER_UA, path="/missing"))
            zone.handle(req("Bytespider"))
            zone.handle(req("curl/8.4.0"))
            zone.handle(req("NosyAgent/1.0"))
            zone.handle(req("EvilAgent/1.0"))
            series_total = sum(
                sum(months.values())
                for (name, _), months in shared_registry().snapshot()["series"].items()
                if name == "sim.requests"
            )
        finally:
            set_log_sink(previous)
            shared_registry().reset()
            reset_agent_label_memo()

        expected = ["served", "not_found", "blocked_403", "challenged",
                    "blocked_403", "challenged"]
        assert [e.outcome for e in site.access_log] == expected
        assert [e.status for e in site.access_log] == [200, 404, 403, 403, 403, 403]
        assert sink.event_count() == len(expected)
        assert [event[4] for event in sink.delta({})["main"]] == expected
        assert series_total == len(expected)
