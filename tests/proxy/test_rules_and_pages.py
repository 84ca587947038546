"""Tests for repro.proxy rules, challenges, and fingerprinting."""

from repro.net.http import Request
from repro.proxy.challenges import (
    PageKind,
    block_page,
    captcha_page,
    challenge_page,
    classify_page,
)
from repro.proxy.fingerprint import (
    AUTOMATION_HEADER,
    automation_signals,
    is_automated,
    is_library_client,
)
from repro.proxy.rules import Action, BlockRule, RuleSet
from repro.agents.useragent import DEFAULT_BROWSER_UA


def req(ua="", ip="198.51.100.1", path="/", **headers):
    merged = {"User-Agent": ua}
    merged.update(headers)
    return Request(host="e.com", path=path, headers=merged, client_ip=ip)


class TestPageClassification:
    def test_each_generator_classified(self):
        assert classify_page(block_page()) is PageKind.BLOCK
        assert classify_page(challenge_page()) is PageKind.CHALLENGE
        assert classify_page(captcha_page()) is PageKind.CAPTCHA

    def test_ordinary_content(self):
        assert classify_page("<html><body>hello art</body></html>") is PageKind.CONTENT

    def test_handwritten_block_page_detected(self):
        assert classify_page("<h1>Access Denied</h1>") is PageKind.BLOCK

    def test_handwritten_challenge_detected(self):
        assert classify_page("Just a moment...") is PageKind.CHALLENGE

    def test_host_embedded_in_pages(self):
        assert "example.net" in block_page(host="example.net")
        assert "example.net" in challenge_page(host="example.net")


class TestBlockRule:
    def test_ua_pattern_match(self):
        rule = BlockRule(Action.BLOCK, ua_patterns=["Bytespider"])
        assert rule.matches(req("Mozilla/5.0 (compatible; Bytespider)"))
        assert not rule.matches(req("Googlebot"))

    def test_trailing_slash_pattern(self):
        rule = BlockRule(Action.BLOCK, ua_patterns=["GPTBot/"])
        assert rule.matches(req("GPTBot/1.1"))
        assert not rule.matches(req("GPTBot"))

    def test_network_match(self):
        rule = BlockRule(Action.BLOCK, networks=["100.64.5.0/24"])
        assert rule.matches(req("x", ip="100.64.5.77"))
        assert not rule.matches(req("x", ip="100.64.6.1"))

    def test_conditions_are_anded(self):
        rule = BlockRule(
            Action.BLOCK, ua_patterns=["bot"], networks=["100.64.0.0/10"]
        )
        assert rule.matches(req("somebot", ip="100.64.1.1"))
        assert not rule.matches(req("somebot", ip="192.0.2.1"))
        assert not rule.matches(req("human", ip="100.64.1.1"))

    def test_empty_conditions_match_everything(self):
        assert BlockRule(Action.BLOCK).matches(req("anything"))

    def test_invalid_ip_never_matches_networks(self):
        rule = BlockRule(Action.BLOCK, networks=["100.64.0.0/10"])
        assert not rule.matches(req("x", ip="garbage"))


class TestRuleSet:
    def test_first_match_wins(self):
        rules = RuleSet(
            [
                BlockRule(Action.CHALLENGE, ua_patterns=["GoodBot"]),
                BlockRule(Action.BLOCK, ua_patterns=["Bot"]),
            ]
        )
        assert rules.decide(req("GoodBot/1.0")) is Action.CHALLENGE
        assert rules.decide(req("BadBot/1.0")) is Action.BLOCK

    def test_no_match_returns_none(self):
        assert RuleSet().decide(req("x")) is None

    def test_one_rule_blocks_every_listed_agent(self):
        rules = RuleSet(
            [BlockRule(Action.BLOCK, ua_patterns=["Claudebot", "anthropic-ai"])]
        )
        assert rules.decide(req("Claudebot/1.0")) is Action.BLOCK
        assert rules.decide(req("anthropic-ai")) is Action.BLOCK
        assert rules.decide(req(DEFAULT_BROWSER_UA)) is None


class TestFingerprint:
    def test_plain_browser_not_automated(self):
        assert not is_automated(req(DEFAULT_BROWSER_UA))

    def test_automation_header_detected(self):
        request = req(DEFAULT_BROWSER_UA, **{AUTOMATION_HEADER: "webdriver,headless"})
        assert automation_signals(request) == ["webdriver", "headless"]
        assert is_automated(request)

    def test_library_clients_detected(self):
        for ua in ("python-requests/2.32", "curl/8.0", "Scrapy/2.11"):
            assert is_library_client(ua)
            assert is_automated(req(ua))

    def test_self_identified_crawler_is_automation(self):
        assert is_automated(req("Mozilla/5.0 (compatible; GPTBot/1.1)"))

    def test_empty_ua_is_automation(self):
        assert is_automated(req(""))
