"""Tests for repro.core.diagnostics."""

import itertools

from repro.core import diagnostics, policy
from repro.core.diagnostics import Severity, has_mistakes, lint

_FRESH = itertools.count()


def codes(source):
    return [f.code for f in lint(source)]


class TestLint:
    def test_clean_file_has_no_findings(self):
        assert lint("User-agent: *\nDisallow: /private/\nAllow: /") == []

    def test_path_missing_slash(self):
        findings = lint("User-agent: *\nDisallow: secret/")
        assert [f.code for f in findings] == ["path-missing-slash"]
        assert findings[0].severity is Severity.WARNING
        assert findings[0].line_number == 2

    def test_wildcard_start_not_flagged(self):
        assert lint("User-agent: *\nDisallow: *.pdf$") == []

    def test_unknown_directive(self):
        assert codes("User-agent: *\nFoobar: baz\nDisallow: /") == [
            "unknown-directive"
        ]

    def test_tolerated_extensions_not_flagged_as_unknown(self):
        text = "User-agent: *\nDisallow: /\nHost: example.com\nClean-param: ref"
        assert "unknown-directive" not in codes(text)

    def test_missing_colon(self):
        findings = lint("User-agent *\n")
        assert findings[0].code == "missing-colon"
        assert findings[0].severity is Severity.ERROR

    def test_rule_before_group(self):
        assert "rule-before-group" in codes("Disallow: /x\nUser-agent: *\nAllow: /")

    def test_empty_user_agent(self):
        assert "empty-user-agent" in codes("User-agent:\nDisallow: /")

    def test_crawl_delay_noted(self):
        findings = lint("User-agent: *\nCrawl-delay: 5\nDisallow: /x/")
        assert [f.code for f in findings] == ["crawl-delay"]
        assert findings[0].severity is Severity.NOTE

    def test_empty_file_noted(self):
        findings = lint("# only a comment\n")
        assert [f.code for f in findings] == ["empty-file"]

    def test_findings_sorted_by_line(self):
        text = "Disallow: nope\nUser-agent: *\nBadDir: x\nDisallow: alsonope"
        numbers = [f.line_number for f in lint(text)]
        assert numbers == sorted(numbers)

    def test_linting_one_text_twice_parses_it_once(self, monkeypatch):
        parsed = []
        real = policy.parse

        def counting(source):
            parsed.append(source)
            return real(source)

        # Every parse path lint could take: the shared policy cache's
        # RobotsPolicy, or a module-level parse of its own.
        monkeypatch.setattr(policy, "parse", counting)
        monkeypatch.setattr(diagnostics, "parse", counting, raising=False)
        # A text no other test has put in the process-wide cache.
        text = f"# parse-once probe {next(_FRESH)}\nUser-agent: *\nDisallow: x/\n"
        first = lint(text)
        second = lint(text)
        assert [f.code for f in first] == ["path-missing-slash"]
        assert second == first
        assert parsed == [text]


class TestHasMistakes:
    def test_clean(self):
        assert not has_mistakes("User-agent: *\nDisallow: /")

    def test_notes_do_not_count(self):
        assert not has_mistakes("User-agent: *\nCrawl-delay: 3\nDisallow: /x/")

    def test_warning_counts(self):
        assert has_mistakes("User-agent: *\nDisallow: img/")

    def test_error_counts(self):
        assert has_mistakes("User-agent\nDisallow: /")
