"""Tests for repro.core.parser, including the Appendix B.2 edge cases."""

import gc

from repro.core import lexer, parser
from repro.core.legacy import LegacyPolicy
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy


class TestBasicParsing:
    def test_single_group(self):
        parsed = parse("User-agent: *\nDisallow: /")
        assert len(parsed.groups) == 1
        group = parsed.groups[0]
        assert group.agents == ["*"]
        assert len(group.rules) == 1
        assert not group.rules[0].allow

    def test_paper_figure1_example(self):
        text = (
            "# An example robots.txt file\n"
            "User-agent: Googlebot\n"
            "Allow: /\n"
            "\n"
            "User-agent: ChatGPT-User\n"
            "User-agent: GPTBot\n"
            "Disallow: /\n"
            "\n"
            "User-agent: *\n"
            "Disallow: /secret/\n"
        )
        parsed = parse(text)
        assert len(parsed.groups) == 3
        assert parsed.groups[0].agents == ["Googlebot"]
        assert parsed.groups[1].agents == ["ChatGPT-User", "GPTBot"]
        assert parsed.groups[2].agents == ["*"]
        assert parsed.groups[2].rules[0].path == "/secret/"

    def test_user_agent_after_rules_starts_new_group(self):
        text = "User-agent: a\nDisallow: /x\nUser-agent: b\nDisallow: /y"
        parsed = parse(text)
        assert len(parsed.groups) == 2
        assert parsed.groups[0].agents == ["a"]
        assert parsed.groups[1].agents == ["b"]

    def test_sitemap_recorded(self):
        parsed = parse("Sitemap: https://e.com/s.xml\nUser-agent: *\nDisallow:")
        assert parsed.sitemaps == ["https://e.com/s.xml"]

    def test_sitemap_does_not_break_group(self):
        text = "User-agent: a\nSitemap: https://e.com/s.xml\nUser-agent: b\nDisallow: /"
        parsed = parse(text)
        assert parsed.groups[0].agents == ["a", "b"]

    def test_orphan_rules_recorded_not_applied(self):
        parsed = parse("Disallow: /x\nUser-agent: *\nDisallow: /y")
        assert len(parsed.orphan_rules) == 1
        assert parsed.orphan_rules[0].path == "/x"
        assert parsed.groups[0].rules[0].path == "/y"

    def test_malformed_lines_recorded(self):
        parsed = parse("this is not a directive\nUser-agent: *\nDisallow: /")
        assert len(parsed.malformed_lines) == 1

    def test_unknown_directives_recorded(self):
        parsed = parse("User-agent: *\nNoindex: /x\nDisallow: /")
        assert parsed.unknown_directives == [(2, "Noindex", "/x")]

    def test_empty_file(self):
        parsed = parse("")
        assert parsed.groups == []
        assert parsed.sitemaps == []


class TestAppendixB2Case1:
    """Comments/newlines after User-agent must not detach rules."""

    TEXT = (
        "User-agent: *\n"
        "# Blog restrictions\n"
        "Disallow: /blog/latest/*\n"
        "Disallow: /blogs/*\n"
    )

    def test_rules_attach_across_comment(self):
        parsed = parse(self.TEXT)
        assert len(parsed.groups) == 1
        assert [r.path for r in parsed.groups[0].rules] == [
            "/blog/latest/*",
            "/blogs/*",
        ]

    def test_blank_lines_also_ignored(self):
        parsed = parse("User-agent: x\n\n\nDisallow: /a\n")
        assert parsed.groups[0].rules[0].path == "/a"


class TestAppendixB2Case2:
    """Grouped User-agent lines share the rules."""

    TEXT = (
        "User-agent: GPTBot\n"
        "User-agent: anthropic-ai\n"
        "User-agent: Claudebot\n"
        "Disallow: /\n"
    )

    def test_all_agents_in_one_group(self):
        parsed = parse(self.TEXT)
        assert len(parsed.groups) == 1
        assert parsed.groups[0].agents == ["GPTBot", "anthropic-ai", "Claudebot"]

    def test_comment_between_agent_lines(self):
        text = "User-agent: a\n# note\nUser-agent: b\nDisallow: /\n"
        parsed = parse(text)
        assert parsed.groups[0].agents == ["a", "b"]


class TestAppendixB2Case3:
    """Crawl-delay is ignored, merging groups across it."""

    TEXT = (
        "User-agent: *\n"
        "Disallow: /\n"
        "\n"
        "User-agent: *\n"
        "Crawl-delay: 5\n"
        "\n"
        "User-agent: GoogleBot\n"
        "Allow: /\n"
        "Disallow: /z/\n"
    )

    def test_crawl_delay_merges_groups(self):
        parsed = parse(self.TEXT)
        # Group 1: "*" with Disallow /.  Group 2: "*" AND GoogleBot
        # sharing Allow / + Disallow /z/ because Crawl-delay is ignored.
        assert len(parsed.groups) == 2
        assert parsed.groups[1].agents == ["*", "GoogleBot"]
        assert [r.path for r in parsed.groups[1].rules] == ["/", "/z/"]

    def test_crawl_delay_value_retained(self):
        parsed = parse(self.TEXT)
        assert parsed.groups[1].crawl_delays == [5.0]

    def test_invalid_crawl_delay_dropped(self):
        parsed = parse("User-agent: *\nCrawl-delay: soon\nDisallow: /")
        assert parsed.groups[0].crawl_delays == []

    def test_negative_crawl_delay_dropped(self):
        parsed = parse("User-agent: *\nCrawl-delay: -3\nDisallow: /")
        assert parsed.groups[0].crawl_delays == []


class TestGroupQueries:
    def test_groups_for_case_insensitive(self):
        policy = RobotsPolicy(parse("User-agent: GPTBot\nDisallow: /"))
        assert policy.rules_for("gptbot").explicit
        assert policy.rules_for("GPTBOT").explicit
        assert not policy.rules_for("ccbot").explicit

    def test_named_agents_deduplicated_in_order(self):
        text = (
            "User-agent: GPTBot\nDisallow: /\n"
            "User-agent: CCBot\nDisallow: /\n"
            "User-agent: gptbot\nDisallow: /a\n"
        )
        assert parse(text).named_agents() == ["gptbot", "ccbot"]

    def test_wildcard_groups(self):
        parsed = parse("User-agent: *\nDisallow: /\nUser-agent: a\nAllow: /")
        assert len(parsed.wildcard_groups()) == 1


class TestSharedLinesAndRules:
    """Live parses share one object per distinct line and rule; the line
    number is part of the key, and a parse nothing keeps leaves nothing
    in either table."""

    def test_equal_lines_and_rules_are_one_object(self):
        first = parse("User-agent: *\nDisallow: /x\n")
        second = parse("User-agent: *\nDisallow: /x\nDisallow: /y\n")
        assert first.source_lines[1] is second.source_lines[1]
        assert first.groups[0].rules[0] is second.groups[0].rules[0]

    def test_the_legacy_parser_holds_the_same_rules(self):
        compliant = RobotsPolicy("User-agent: *\nDisallow: /x\n")
        legacy = LegacyPolicy(compliant.parsed.source_lines)
        assert legacy.rules_for("GPTBot")[0] is compliant.rules_for("GPTBot").rules[0]

    def test_each_body_keeps_its_own_line_numbers(self):
        early = RobotsPolicy("User-agent: *\nDisallow: /x\n")
        late = RobotsPolicy("User-agent: *\n# one\n\n# two\nDisallow: /x\n")
        assert early.verdict("GPTBot", "/x").rule.line_number == 2
        assert late.verdict("GPTBot", "/x").rule.line_number == 5

    def test_dropped_parses_leave_nothing_behind(self):
        for index in range(300):
            policy = RobotsPolicy(
                f"User-agent: dropbot-{index}\nDisallow: /dropped-{index}\n"
            )
            assert not policy.is_allowed(f"dropbot-{index}", f"/dropped-{index}")
        del policy
        gc.collect()
        assert not [raw for _, raw in list(lexer._LINES) if "drop" in raw]
        assert not [path for _, path, _ in list(parser._RULES) if "drop" in path]
