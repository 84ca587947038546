"""Tests for repro.core.lexer."""

from repro.core.lexer import Line, LineKind, canonical_directive, tokenize


class TestTokenizeBasics:
    def test_empty_input_yields_no_lines(self):
        assert tokenize("") == []

    def test_blank_lines_classified(self):
        lines = tokenize("\n   \n\t\n")
        assert [ln.kind for ln in lines] == [LineKind.BLANK] * 3

    def test_comment_line(self):
        (line,) = tokenize("# hello world")
        assert line.kind is LineKind.COMMENT
        assert line.value == "hello world"

    def test_user_agent_line(self):
        (line,) = tokenize("User-agent: GPTBot")
        assert line.kind is LineKind.USER_AGENT
        assert line.key == "User-agent"
        assert line.value == "GPTBot"

    def test_disallow_line(self):
        (line,) = tokenize("Disallow: /secret/")
        assert line.kind is LineKind.DISALLOW
        assert line.value == "/secret/"

    def test_allow_line(self):
        (line,) = tokenize("Allow: /public")
        assert line.kind is LineKind.ALLOW

    def test_sitemap_line(self):
        (line,) = tokenize("Sitemap: https://example.com/sitemap.xml")
        assert line.kind is LineKind.SITEMAP
        assert line.value == "https://example.com/sitemap.xml"

    def test_crawl_delay_line(self):
        (line,) = tokenize("Crawl-delay: 5")
        assert line.kind is LineKind.CRAWL_DELAY
        assert line.value == "5"

    def test_line_numbers_are_one_based(self):
        lines = tokenize("User-agent: *\nDisallow: /")
        assert [ln.number for ln in lines] == [1, 2]


class TestTokenizeEdgeCases:
    def test_inline_comment_stripped_from_value(self):
        (line,) = tokenize("Disallow: /secret/ # keep out")
        assert line.value == "/secret/"

    def test_line_that_is_only_inline_comment_after_spaces(self):
        (line,) = tokenize("   # indented comment")
        assert line.kind is LineKind.COMMENT

    def test_missing_colon_is_malformed(self):
        (line,) = tokenize("Disallow /secret/")
        assert line.kind is LineKind.MALFORMED
        assert "Disallow /secret/" in line.value

    def test_unknown_directive(self):
        (line,) = tokenize("Noindex: /x")
        assert line.kind is LineKind.UNKNOWN_DIRECTIVE
        assert line.key == "Noindex"

    def test_directive_names_case_insensitive(self):
        (line,) = tokenize("DISALLOW: /a")
        assert line.kind is LineKind.DISALLOW

    def test_misspelled_useragent_accepted(self):
        (line,) = tokenize("UserAgent: GPTBot")
        assert line.kind is LineKind.USER_AGENT

    def test_user_space_agent_accepted(self):
        (line,) = tokenize("User Agent: GPTBot")
        assert line.kind is LineKind.USER_AGENT

    def test_bytes_input_decoded(self):
        lines = tokenize(b"User-agent: *\nDisallow: /")
        assert lines[0].kind is LineKind.USER_AGENT

    def test_bom_stripped(self):
        lines = tokenize("﻿User-agent: *")
        assert lines[0].kind is LineKind.USER_AGENT

    def test_invalid_utf8_bytes_replaced_not_raised(self):
        lines = tokenize(b"User-agent: \xff\xfe\nDisallow: /")
        assert lines[0].kind is LineKind.USER_AGENT

    def test_crlf_newlines(self):
        lines = tokenize("User-agent: *\r\nDisallow: /\r\n")
        assert [ln.kind for ln in lines] == [LineKind.USER_AGENT, LineKind.DISALLOW]

    def test_value_with_colon_preserved(self):
        (line,) = tokenize("Sitemap: https://example.com:8443/map.xml")
        assert line.value == "https://example.com:8443/map.xml"

    def test_whitespace_around_key_and_value_stripped(self):
        (line,) = tokenize("  User-agent :   GPTBot  ")
        assert line.key == "User-agent"
        assert line.value == "GPTBot"

    def test_empty_value(self):
        (line,) = tokenize("Disallow:")
        assert line.kind is LineKind.DISALLOW
        assert line.value == ""


class TestLineProperties:
    def test_is_directive(self):
        comment, blank, ua = tokenize("# c\n\nUser-agent: x")
        assert not comment.is_directive
        assert not blank.is_directive
        assert ua.is_directive

    def test_canonical_directive(self):
        assert canonical_directive("  User-Agent ") == "user-agent"
