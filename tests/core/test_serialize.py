"""Tests for repro.core.serialize (authoring and surgical edits)."""

import pytest

from repro.core.classify import RestrictionLevel, classify
from repro.core.policy import RobotsPolicy
from repro.core.serialize import (
    RobotsBuilder,
    add_allow_group,
    add_disallow_group,
    agents_mentioned,
    remove_agent_rules,
)


class TestRobotsBuilder:
    def test_single_group(self):
        text = RobotsBuilder().group("*").disallow("/").build()
        assert "User-agent: *" in text
        assert "Disallow: /" in text

    def test_multi_agent_group(self):
        text = RobotsBuilder().group("GPTBot", "CCBot").disallow("/").build()
        policy = RobotsPolicy(text)
        assert not policy.is_allowed("GPTBot", "/x")
        assert not policy.is_allowed("CCBot", "/x")

    def test_allow_and_disallow(self):
        text = RobotsBuilder().group("*").disallow("/").allow("/pub/").build()
        policy = RobotsPolicy(text)
        assert policy.is_allowed("bot", "/pub/a")
        assert not policy.is_allowed("bot", "/priv")

    def test_sitemap_rendered(self):
        text = RobotsBuilder().group("*").disallow("").sitemap("https://e.com/s.xml").build()
        assert RobotsPolicy(text).parsed.sitemaps == ["https://e.com/s.xml"]

    def test_crawl_delay_integer_rendering(self):
        text = RobotsBuilder().group("*").crawl_delay(5).build()
        assert "Crawl-delay: 5" in text

    def test_comments_rendered(self):
        text = RobotsBuilder().comment("top").group("*").disallow("/").build()
        assert text.startswith("# top\n\nUser-agent: *\n")

    def test_rules_require_group(self):
        with pytest.raises(ValueError):
            RobotsBuilder().disallow("/")

    def test_group_requires_agents(self):
        with pytest.raises(ValueError):
            RobotsBuilder().group()

    def test_roundtrip_parses_cleanly(self):
        from repro.core.diagnostics import lint, Severity

        text = (
            RobotsBuilder()
            .group("Googlebot")
            .allow("/")
            .group("GPTBot", "ChatGPT-User")
            .disallow("/")
            .group("*")
            .disallow("/secret/")
            .build()
        )
        assert not [f for f in lint(text) if f.severity is not Severity.NOTE]


class TestAddGroups:
    def test_add_disallow_group_to_empty(self):
        text = add_disallow_group("", ["GPTBot"])
        assert classify(text, "GPTBot").level is RestrictionLevel.FULL

    def test_add_disallow_group_preserves_existing(self):
        base = "User-agent: *\nDisallow: /secret/\n"
        text = add_disallow_group(base, ["GPTBot"])
        policy = RobotsPolicy(text)
        assert not policy.is_allowed("GPTBot", "/")
        assert not policy.is_allowed("otherbot", "/secret/x")
        assert policy.is_allowed("otherbot", "/open")

    def test_add_disallow_multiple_agents_one_group(self):
        text = add_disallow_group("", ["GPTBot", "CCBot"])
        assert classify(text, "GPTBot").level is RestrictionLevel.FULL
        assert classify(text, "CCBot").level is RestrictionLevel.FULL

    def test_add_disallow_custom_paths(self):
        text = add_disallow_group("", ["GPTBot"], paths=["/img/", "/art/"])
        assert classify(text, "GPTBot").level is RestrictionLevel.PARTIAL

    def test_add_allow_group(self):
        text = add_allow_group("User-agent: *\nDisallow: /private/\n", ["GPTBot"])
        assert classify(text, "GPTBot").explicit_allow


class TestRemoveAgentRules:
    def test_remove_sole_agent_group(self):
        base = "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nDisallow: /x/\n"
        text = remove_agent_rules(base, ["GPTBot"])
        assert classify(text, "GPTBot").level is RestrictionLevel.NO_RESTRICTIONS
        assert "gptbot" not in text.lower()
        # Wildcard group untouched.
        assert not RobotsPolicy(text).is_allowed("bot", "/x/a")

    def test_remove_one_agent_from_shared_group(self):
        base = "User-agent: GPTBot\nUser-agent: CCBot\nDisallow: /\n"
        text = remove_agent_rules(base, ["GPTBot"])
        assert classify(text, "CCBot").level is RestrictionLevel.FULL
        assert classify(text, "GPTBot").level is RestrictionLevel.NO_RESTRICTIONS

    def test_remove_is_case_insensitive(self):
        base = "User-agent: gptbot\nDisallow: /\n"
        text = remove_agent_rules(base, ["GPTBot"])
        assert "gptbot" not in text.lower()

    def test_rest_of_file_preserved(self):
        base = (
            "# policy file\n"
            "User-agent: Googlebot\nAllow: /\n\n"
            "User-agent: GPTBot\nDisallow: /\n\n"
            "Sitemap: https://e.com/s.xml\n"
        )
        text = remove_agent_rules(base, ["GPTBot"])
        assert "# policy file" in text
        assert "User-agent: Googlebot" in text
        assert "Sitemap: https://e.com/s.xml" in text

    def test_remove_absent_agent_is_noop_semantically(self):
        base = "User-agent: *\nDisallow: /\n"
        text = remove_agent_rules(base, ["GPTBot"])
        assert not RobotsPolicy(text).is_allowed("bot", "/x")

    def test_remove_from_empty(self):
        assert remove_agent_rules("", ["GPTBot"]) == ""


class TestAgentsMentioned:
    def test_order_and_dedup(self):
        base = (
            "User-agent: GPTBot\nDisallow: /\n"
            "User-agent: CCBot\nUser-agent: gptbot\nDisallow: /a\n"
        )
        assert agents_mentioned(base) == ("gptbot", "ccbot")

    def test_empty(self):
        assert agents_mentioned("") == ()

    def test_each_body_is_tokenized_once(self, monkeypatch):
        from repro.core import serialize

        calls = []
        real = serialize.tokenize

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(serialize, "tokenize", counting)
        body = "User-agent: MemoBot\nDisallow: /\n"
        first = agents_mentioned(body)
        assert agents_mentioned(body) is first == ("memobot",)
        assert calls == [body]
