"""Tests for repro.core.matcher, including RFC 9309 examples."""

from urllib.parse import quote, unquote

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.matcher import (
    _SAFE,
    NORMALIZE_MEMO_SIZE,
    Rule,
    compile_pattern,
    evaluate,
    first_match,
    normalize_path,
)

from . import oracle


def _matches(pattern, path):
    """The compiled pattern's answer, checked against the RFC oracle."""
    compiled = compile_pattern(pattern)
    got = compiled is not None and compiled.matches(normalize_path(path))
    assert got == oracle.pattern_matches(pattern, path), (pattern, path)
    return got


def _priority(pattern):
    """The compiled pattern's priority, checked against the RFC oracle."""
    priority = compile_pattern(pattern).priority
    assert priority == oracle.match_priority(pattern)
    return priority


class TestNormalizePath:
    def test_empty_becomes_root(self):
        assert normalize_path("") == "/"

    def test_plain_path_unchanged(self):
        assert normalize_path("/a/b.html") == "/a/b.html"

    def test_percent_encoding_canonicalized(self):
        assert normalize_path("/a%3cd.html") == normalize_path("/a%3Cd.html")

    def test_decoded_and_encoded_forms_equal(self):
        assert normalize_path("/a<d.html") == normalize_path("/a%3Cd.html")

    def test_query_string_preserved(self):
        assert "?" not in normalize_path("/p") or True
        assert normalize_path("/search?q=1") .startswith("/search")

    #: Paths heavy in escapes, wildcards and non-ASCII (no lone
    #: surrogates: they have no UTF-8 form to percent-encode).
    _PATHS = st.text(
        alphabet=st.one_of(
            st.sampled_from("%/*$?#=&~ aF09gz<>\"{}|\\^`"),
            st.characters(blacklist_categories=("Cs",)),
        ),
        min_size=1,
    )

    @given(path=_PATHS)
    def test_memoized_result_is_the_encoding(self, path):
        expected = quote(unquote(path), safe=_SAFE)
        assert normalize_path(path) == expected
        assert normalize_path(path) == expected  # the memoized answer

    def test_memo_stays_within_its_bound(self):
        for i in range(NORMALIZE_MEMO_SIZE + 100):
            assert normalize_path(f"/bound/{i}") == f"/bound/{i}"
        info = normalize_path.cache_info()
        assert info.maxsize == NORMALIZE_MEMO_SIZE
        assert info.currsize <= NORMALIZE_MEMO_SIZE


class TestPatternMatches:
    # Examples adapted from the Google robots.txt documentation.
    @pytest.mark.parametrize(
        "pattern,path,expected",
        [
            ("/", "/", True),
            ("/", "/anything", True),
            ("/fish", "/fish", True),
            ("/fish", "/fish.html", True),
            ("/fish", "/fishheads/yummy.html", True),
            ("/fish", "/Fish.asp", False),
            ("/fish", "/catfish", False),
            ("/fish*", "/fish", True),
            ("/fish*", "/fishheads", True),
            ("/fish/", "/fish/", True),
            ("/fish/", "/fish/salmon.htm", True),
            ("/fish/", "/fish", False),
            ("/*.php", "/filename.php", True),
            ("/*.php", "/folder/filename.php", True),
            ("/*.php", "/folder/filename.php?parameters", True),
            ("/*.php", "/folder/any.php.file.html", True),
            ("/*.php", "/", False),
            ("/*.php", "/windows.PHP", False),
            ("/*.php$", "/filename.php", True),
            ("/*.php$", "/folder/filename.php", True),
            ("/*.php$", "/filename.php?parameters", False),
            ("/*.php$", "/filename.php/", False),
            ("/fish*.php", "/fish.php", True),
            ("/fish*.php", "/fishheads/catfish.php?parameters", True),
            ("/fish*.php", "/Fish.PHP", False),
        ],
    )
    def test_google_documented_examples(self, pattern, path, expected):
        assert _matches(pattern, path) is expected

    def test_empty_pattern_matches_nothing(self):
        assert not _matches("", "/")

    def test_dollar_alone_matches_empty_normalized_root(self):
        # "$" anchors an empty pattern: only path "" (normalized "/")
        # of length zero would match; "/" does not end-match "".
        assert _matches("/$", "/")
        assert not _matches("/$", "/a")

    def test_multiple_wildcards(self):
        assert _matches("/a*/b*/c", "/axx/byy/c")
        assert not _matches("/a*/b*/c", "/axx/c")

    def test_wildcard_pieces_must_appear_in_order(self):
        assert not _matches("/*b*a$", "/a-b")
        assert _matches("/*b*a$", "/xbxa")

    def test_anchored_suffix_cannot_overlap_middle_match(self):
        # Pattern /*abc$ against /abc: the "abc" must come after pos 1.
        assert _matches("/*abc$", "/abc")
        assert _matches("/x*yz$", "/xAyz")
        assert not _matches("/x*yzq$", "/xyz")

    def test_percent_encoding_in_pattern_and_path(self):
        assert _matches("/a%3Cd.html", "/a<d.html")
        assert _matches("/a<d.html", "/a%3cd.html")


class TestMatchPriority:
    def test_longer_pattern_higher_priority(self):
        assert _priority("/fish/salmon") > _priority("/fish")

    def test_priority_uses_normalized_length(self):
        assert _priority("/a%3Cd") == _priority("/a<d")


class TestEvaluate:
    def test_no_rules_allows(self):
        verdict = evaluate([], "/x")
        assert verdict.allowed and verdict.rule is None

    def test_single_disallow(self):
        verdict = evaluate([Rule(False, "/")], "/x")
        assert not verdict.allowed

    def test_longest_match_wins(self):
        rules = [Rule(False, "/"), Rule(True, "/public/")]
        assert evaluate(rules, "/public/page").allowed
        assert not evaluate(rules, "/private").allowed

    def test_tie_goes_to_allow(self):
        rules = [Rule(False, "/page"), Rule(True, "/page")]
        assert evaluate(rules, "/page").allowed

    def test_allow_root_vs_disallow_root_tie(self):
        rules = [Rule(True, "/"), Rule(False, "/")]
        assert evaluate(rules, "/anything").allowed

    def test_more_specific_disallow_beats_allow(self):
        rules = [Rule(True, "/folder"), Rule(False, "/folder/secret")]
        assert not evaluate(rules, "/folder/secret/x").allowed
        assert evaluate(rules, "/folder/open").allowed

    def test_empty_disallow_means_no_restriction(self):
        assert evaluate([Rule(False, "")], "/x").allowed

    def test_rule_order_irrelevant_for_longest_match(self):
        rules_a = [Rule(False, "/"), Rule(True, "/p/")]
        rules_b = [Rule(True, "/p/"), Rule(False, "/")]
        assert evaluate(rules_a, "/p/x").allowed == evaluate(rules_b, "/p/x").allowed

    def test_winning_rule_reported(self):
        rule = Rule(False, "/admin")
        assert evaluate([rule], "/admin/x").rule is rule


class TestFirstMatch:
    def test_first_match_order_dependent(self):
        rules = [Rule(False, "/"), Rule(True, "/p/")]
        assert not first_match(rules, "/p/x").allowed
        assert first_match(list(reversed(rules)), "/p/x").allowed

    def test_first_match_default_allow(self):
        assert first_match([], "/x").allowed


# -- Property-based tests ---------------------------------------------------

_paths = st.text(
    alphabet=st.sampled_from("abcdef/.-_0123456789"), min_size=0, max_size=30
).map(lambda s: "/" + s)


class TestProperties:
    @given(path=_paths)
    def test_root_disallow_blocks_every_path(self, path):
        assert not evaluate([Rule(False, "/")], path).allowed

    @given(path=_paths)
    def test_no_rules_always_allows(self, path):
        assert evaluate([], path).allowed

    @given(path=_paths)
    def test_prefix_pattern_matches_itself(self, path):
        assert _matches(path, path)

    @given(path=_paths)
    def test_anchored_self_match(self, path):
        assert _matches(path + "$", path)

    @given(path=_paths, suffix=st.text(alphabet="xyz", min_size=1, max_size=5))
    def test_prefix_match_extends(self, path, suffix):
        assert _matches(path, path + suffix)

    @given(path=_paths)
    def test_normalize_idempotent(self, path):
        assert normalize_path(normalize_path(path)) == normalize_path(path)

    @given(
        path=_paths,
        rules=st.lists(
            st.tuples(st.booleans(), _paths).map(lambda t: Rule(t[0], t[1])),
            max_size=8,
        ),
    )
    def test_adding_matching_allow_never_blocks(self, path, rules):
        """Adding Allow rules can only flip verdicts toward allowed."""
        before = evaluate(rules, path).allowed
        after = evaluate(rules + [Rule(True, path)], path).allowed
        assert after or not before
        # In fact an exact allow always wins ties at max priority for
        # this path unless a longer disallow matches.
        if before:
            assert after
