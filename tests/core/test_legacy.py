"""Tests for the deliberately buggy legacy parser."""

import pytest

from repro.core.legacy import LegacyPolicy, LegacyQuirks
from repro.core.lexer import tokenize
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy

from .test_compiled import ROBOTS_SAMPLES


class TestCase1CommentBreaksGroup:
    TEXT = (
        "User-agent: *\n"
        "# Blog restrictions\n"
        "Disallow: /blog/latest/*\n"
        "Disallow: /blogs/*\n"
    )

    def test_legacy_drops_rules_after_comment(self):
        legacy = LegacyPolicy(self.TEXT)
        assert legacy.is_allowed("anybot", "/blogs/x")

    def test_compliant_keeps_rules(self):
        compliant = RobotsPolicy(self.TEXT)
        assert not compliant.is_allowed("anybot", "/blogs/x")

    def test_quirk_disabled_matches_compliant(self):
        legacy = LegacyPolicy(self.TEXT, LegacyQuirks.none())
        assert not legacy.is_allowed("anybot", "/blogs/x")


class TestCase2LastAgentOnly:
    TEXT = (
        "User-agent: GPTBot\n"
        "User-agent: anthropic-ai\n"
        "User-agent: Claudebot\n"
        "Disallow: /\n"
    )

    def test_only_last_agent_gets_rules(self):
        legacy = LegacyPolicy(self.TEXT)
        assert legacy.is_allowed("GPTBot", "/x")
        assert legacy.is_allowed("anthropic-ai", "/x")
        assert not legacy.is_allowed("Claudebot", "/x")

    def test_compliant_blocks_all_three(self):
        compliant = RobotsPolicy(self.TEXT)
        for agent in ("GPTBot", "anthropic-ai", "Claudebot"):
            assert not compliant.is_allowed(agent, "/x")


class TestCaseSensitivity:
    TEXT = "User-agent: gptbot\nDisallow: /\n"

    def test_legacy_misses_differently_cased_agent(self):
        legacy = LegacyPolicy(self.TEXT)
        assert legacy.is_allowed("GPTBot", "/x")
        assert not legacy.is_allowed("gptbot", "/x")

    def test_compliant_is_case_insensitive(self):
        assert not RobotsPolicy(self.TEXT).is_allowed("GPTBot", "/x")


class TestCrawlDelayBreaksGroup:
    TEXT = (
        "User-agent: *\n"
        "Crawl-delay: 5\n"
        "User-agent: GoogleBot\n"
        "Allow: /\n"
        "Disallow: /z/\n"
    )

    def test_legacy_detaches_wildcard_from_rules(self):
        legacy = LegacyPolicy(self.TEXT)
        # With the quirk, "*" group ends at Crawl-delay; GoogleBot alone
        # gets the rules, so an unrelated bot sees no restrictions.
        assert legacy.is_allowed("otherbot", "/z/x")

    def test_compliant_merges_across_crawl_delay(self):
        compliant = RobotsPolicy(self.TEXT)
        assert not compliant.is_allowed("otherbot", "/z/x")


class TestFirstMatchDiscipline:
    TEXT = "User-agent: *\nDisallow: /\nAllow: /public/\n"

    def test_legacy_first_match_blocks_public(self):
        legacy = LegacyPolicy(self.TEXT)
        assert not legacy.is_allowed("bot", "/public/x")

    def test_compliant_longest_match_allows_public(self):
        assert RobotsPolicy(self.TEXT).is_allowed("bot", "/public/x")


class TestQuirkToggles:
    def test_quirks_none_agrees_with_compliant_on_corpus(self):
        corpus = [
            "User-agent: *\nDisallow: /",
            "User-agent: A\nUser-agent: B\nDisallow: /\n",
            "User-agent: *\n# c\nDisallow: /x\n",
            "User-agent: *\nDisallow: /\nAllow: /pub/\n",
            "",
        ]
        probes = ["/", "/x", "/pub/a", "/blog/1"]
        for text in corpus:
            legacy = LegacyPolicy(text, LegacyQuirks.none())
            compliant = RobotsPolicy(text)
            for agent in ("A", "B", "bot"):
                for path in probes:
                    assert legacy.is_allowed(agent, path) == compliant.is_allowed(
                        agent, path
                    ), (text, agent, path)


#: Bodies exercising every quirk, beside the compliant samples.
_QUIRK_SAMPLES = [
    TestCase1CommentBreaksGroup.TEXT,
    TestCase2LastAgentOnly.TEXT,
    TestCaseSensitivity.TEXT,
    TestCrawlDelayBreaksGroup.TEXT,
    TestFirstMatchDiscipline.TEXT,
    "User-agent:\nDisallow: /a\n\nUser-agent: gptbot\n# c\nAllow: /\n",
]


class TestFromTokenStream:
    """A legacy policy grouping an existing token stream (the compliant
    parse's ``source_lines``) is the one ``LegacyPolicy(text)`` builds."""

    AGENTS = ["GPTBot", "gptbot", "CCBot", "Claudebot", "anybot", "*", ""]
    PATHS = ["/", "/x", "/private/ok", "/blogs/x", "/public/x", "/z/x"]

    @pytest.mark.parametrize("quirks", [LegacyQuirks(), LegacyQuirks.none()])
    def test_equals_the_text_build_on_every_sample(self, quirks):
        for text in ROBOTS_SAMPLES + _QUIRK_SAMPLES:
            from_text = LegacyPolicy(text, quirks)
            for lines in (tokenize(text), parse(text).source_lines):
                from_lines = LegacyPolicy(lines, quirks)
                assert from_lines._groups == from_text._groups, text
                for agent in self.AGENTS:
                    assert from_lines.rules_for(agent) == from_text.rules_for(agent)
                    for path in self.PATHS:
                        assert from_lines.verdict(agent, path) == from_text.verdict(
                            agent, path
                        ), (text, agent, path)

    def test_resolution_is_memoized(self):
        legacy = LegacyPolicy(TestCase2LastAgentOnly.TEXT)
        assert legacy.rules_for("Claudebot") is legacy.rules_for("Claudebot")
