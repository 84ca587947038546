"""The matcher and RobotsPolicy must agree with the literal RFC 9309
reference in :mod:`tests.core.oracle`, and every rule compiles once."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import matcher
from repro.core.aitxt import AiTxtPolicy
from repro.core.classify import classify
from repro.core.compiled import CompiledPolicyCache, shared_policy_cache
from repro.core.legacy import LegacyPolicy
from repro.core.matcher import Rule, compile_pattern, evaluate, first_match, normalize_path
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy

from . import oracle

# Appendix B.2-style edge patterns: wildcards, anchors, percent
# encodings, specials.
EDGE_PATTERNS = [
    "/",
    "/fish",
    "/fish/",
    "/fish*",
    "/fish*.php",
    "/*.php",
    "/*.php$",
    "/fish*.php$",
    "/a%3cd.html",
    "/a%3Cd.html",
    "/a<d.html",
    "/p%2Bq",
    "/b/*/c",
    "*",
    "*/x",
    "/*/*/*/deep",
    "/$",
    "/x$",
    "/x$y",
    "/%e3%81%82",
    "/foo?bar",
    "/**",
    "/a**b",
]

EDGE_PATHS = [
    "/",
    "/fish",
    "/fish.html",
    "/fish/salmon.html",
    "/fishheads/catfish.php?id=2",
    "/catfish",
    "/filename.php",
    "/filename.php/",
    "/filename.php?parameters",
    "/a%3cd.html",
    "/a%3Cd.html",
    "/a<d.html",
    "/p+q",
    "/b/x/y/c",
    "/x",
    "/x$y",
    "/%E3%81%82",
    "/foo?bar=baz",
    "/a/b",
    "/ab",
]


class TestCompiledPattern:
    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    def test_matches_agrees_with_pattern_matches(self, pattern):
        compiled = compile_pattern(pattern)
        assert compiled is not None
        for path in EDGE_PATHS:
            expected = oracle.pattern_matches(pattern, path)
            assert compiled.matches(normalize_path(path)) == expected, (
                pattern,
                path,
            )

    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    def test_priority_agrees_with_match_priority(self, pattern):
        compiled = compile_pattern(pattern)
        assert compiled.priority == oracle.match_priority(pattern)

    def test_empty_pattern_compiles_to_none(self):
        assert compile_pattern("") is None
        assert Rule(allow=False, path="").pattern is None


class TestEvaluateCompiled:
    """``evaluate`` and ``first_match`` over rules' compiled patterns."""

    def _rules(self):
        return [
            Rule(allow=False, path="/"),
            Rule(allow=True, path="/fish"),
            Rule(allow=False, path="/fish*.php$"),
            Rule(allow=True, path=""),  # empty: matches nothing
            Rule(allow=False, path="/a%3cd"),
            Rule(allow=True, path="/*.html"),
        ]

    @pytest.mark.parametrize("path", EDGE_PATHS)
    def test_verdicts_identical(self, path):
        rules = self._rules()
        expected = oracle.longest_match(rules, path)
        got = evaluate(rules, path)
        assert got.allowed == expected.allowed
        assert got.rule is expected.rule
        assert first_match(rules, path) == oracle.first_match(rules, path)

    def test_allow_wins_tie_break_preserved(self):
        rules = [Rule(allow=False, path="/a"), Rule(allow=True, path="/a")]
        assert evaluate(rules, "/a/x").allowed
        assert oracle.longest_match(rules, "/a/x").allowed

    def test_no_match_allows(self):
        verdict = evaluate([Rule(allow=False, path="/private")], "/public")
        assert verdict.allowed and verdict.rule is None


#: Pattern and path alphabets: both metacharacters, percent signs that
#: may or may not start an escape, and characters normalization encodes.
_PATTERN_CHARS = "/ab*$%<?3c"
_PATH_CHARS = "/ab$%<?3c"


class TestOracleProperty:
    @seed(9309)
    @settings(max_examples=400, deadline=None)
    @given(
        patterns=st.lists(
            st.tuples(st.booleans(), st.text(alphabet=_PATTERN_CHARS, max_size=8)),
            max_size=6,
        ),
        path=st.text(alphabet=_PATH_CHARS, max_size=10),
    )
    def test_matcher_agrees_with_oracle(self, patterns, path):
        rules = [
            Rule(allow=allow, path=pattern, line_number=index)
            for index, (allow, pattern) in enumerate(patterns)
        ]
        for rule in rules:
            compiled = compile_pattern(rule.path)
            got = compiled is not None and compiled.matches(normalize_path(path))
            assert got == oracle.pattern_matches(rule.path, path), (rule.path, path)
        assert evaluate(rules, path) == oracle.longest_match(rules, path)
        assert first_match(rules, path) == oracle.first_match(rules, path)


ROBOTS_SAMPLES = [
    "User-agent: GPTBot\nDisallow: /\n",
    "User-agent: *\nDisallow: /private\nAllow: /private/ok\n",
    "User-agent: FooBot\nUser-agent: BarBot\nDisallow: /a\nCrawl-delay: 2\n",
    "User-agent: FooBot-News\nDisallow: /\nUser-agent: FooBot\nAllow: /\n",
    "Disallow: /orphan\nUser-agent: x\nDisallow: /b\n",
    "",
]

AGENTS = ["GPTBot", "FooBot", "FooBot-News", "BarBot", "randombot", "x"]
PATHS = ["/", "/private", "/private/ok", "/a/b", "/b"]


class TestCompiledRobots:
    """RobotsPolicy against the oracle run over the parsed groups."""

    @pytest.mark.parametrize("text", ROBOTS_SAMPLES)
    def test_drop_in_agreement_with_robots_policy(self, text):
        policy = RobotsPolicy(text)
        groups = parse(text).groups
        for agent in AGENTS:
            rules, explicit, delay = oracle.agent_rules(groups, agent)
            assert list(policy.rules_for(agent).rules) == rules
            assert policy.rules_for(agent).explicit == explicit
            assert policy.crawl_delay(agent) == delay
            for path in PATHS:
                expected = oracle.longest_match(rules, path)
                assert policy.verdict(agent, path) == expected
                assert policy.is_allowed(agent, path) == expected.allowed

    def test_rules_for_is_memoized(self):
        policy = RobotsPolicy(ROBOTS_SAMPLES[0])
        assert policy.rules_for("GPTBot") is policy.rules_for("GPTBot")


class TestCompileOnce:
    def test_each_rule_compiles_at_most_once(self, monkeypatch):
        calls = []
        real = matcher.compile_pattern

        def counting(pattern):
            calls.append(pattern)
            return real(pattern)

        monkeypatch.setattr(matcher, "compile_pattern", counting)
        text = (
            "# compile-once probe\n"
            "User-agent: GPTBot\nUser-agent: CCBot\n"
            "Disallow: /private\nAllow: /private/ok$\nDisallow: /*.php\n\n"
            "User-agent: *\nDisallow: /tmp\nAllow: /\n"
        )
        aitxt_text = "User-Agent: *\nDisallow: /\nAllow: *.jpg\nDisallow: *.txt\n"
        robots = RobotsPolicy(text)
        legacy = LegacyPolicy(text)
        aitxt = AiTxtPolicy(aitxt_text)

        def query_everything():
            for agent in AGENTS + ["CCBot"]:
                classify(text, agent)
                for path in PATHS + ["/x.php", "/private/ok"]:
                    robots.is_allowed(agent, path)
                    legacy.is_allowed(agent, path)
                    aitxt.may_train(path)

        query_everything()
        n_rules = sum(len(group.rules) for group in parse(text).groups)
        n_aitxt_rules = sum(len(group.rules) for group in parse(aitxt_text).groups)
        # One policy each for RobotsPolicy, LegacyPolicy and classify's
        # cached policy, plus the ai.txt rules.
        assert len(calls) <= 3 * n_rules + n_aitxt_rules
        warm = len(calls)
        for _ in range(3):
            query_everything()
        assert len(calls) == warm


class TestCompiledPolicyCache:
    def test_same_bytes_same_object(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /\n")
        b = cache.policy("User-agent: *\nDisallow: /\n")
        assert a is b
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_bodies_distinct_objects(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /a\n")
        b = cache.policy("User-agent: *\nDisallow: /b\n")
        assert a is not b
        assert len(cache) == 2

    def test_str_and_bytes_copies_answer_alike(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /x\n")
        b = cache.policy(b"User-agent: *\nDisallow: /x\n")
        for path in ("/", "/x", "/x/y"):
            assert a.is_allowed("bot", path) == b.is_allowed("bot", path)
        assert cache.policy(b"User-agent: *\nDisallow: /x\n") is b

    def test_clear_resets(self):
        cache = CompiledPolicyCache()
        cache.policy("User-agent: *\nDisallow: /\n")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_shared_cache_is_a_singleton(self):
        assert shared_policy_cache() is shared_policy_cache()
