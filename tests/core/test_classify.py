"""Tests for repro.core.classify (the paper's restriction categories)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.classify import (
    NO_ROBOTS_ROW,
    RestrictionLevel,
    VerdictRow,
    classify,
    classify_rules,
)
from repro.core import policy as policy_module
from repro.core.matcher import Rule
from repro.core.policy import RobotsPolicy


class TestRestrictionLevels:
    def test_no_robots(self):
        assert classify(None, "GPTBot").level is RestrictionLevel.NO_ROBOTS

    def test_no_restrictions_when_unnamed(self):
        result = classify("User-agent: CCBot\nDisallow: /", "GPTBot")
        assert result.level is RestrictionLevel.NO_RESTRICTIONS
        assert not result.explicit

    def test_fully_disallowed(self):
        result = classify("User-agent: GPTBot\nDisallow: /", "GPTBot")
        assert result.level is RestrictionLevel.FULL
        assert result.explicit

    def test_partially_disallowed(self):
        result = classify("User-agent: GPTBot\nDisallow: /images/", "GPTBot")
        assert result.level is RestrictionLevel.PARTIAL

    def test_explicit_group_with_no_disallow(self):
        result = classify("User-agent: GPTBot\nAllow: /", "GPTBot")
        assert result.level is RestrictionLevel.NO_RESTRICTIONS
        assert result.explicit
        assert result.explicit_allow

    def test_empty_disallow_is_no_restriction(self):
        result = classify("User-agent: GPTBot\nDisallow:", "GPTBot")
        assert result.level is RestrictionLevel.NO_RESTRICTIONS

    def test_wildcard_not_counted_by_default(self):
        result = classify("User-agent: *\nDisallow: /", "GPTBot")
        assert result.level is RestrictionLevel.NO_RESTRICTIONS

    def test_wildcard_counted_when_not_requiring_explicit(self):
        result = classify(
            "User-agent: *\nDisallow: /", "GPTBot", require_explicit=False
        )
        assert result.level is RestrictionLevel.FULL

    def test_disallow_all_with_carveout_is_partial(self):
        text = "User-agent: GPTBot\nDisallow: /\nAllow: /public/"
        assert classify(text, "GPTBot").level is RestrictionLevel.PARTIAL

    def test_allow_root_tie_neutralizes_disallow_root(self):
        text = "User-agent: GPTBot\nDisallow: /\nAllow: /"
        assert classify(text, "GPTBot").level is RestrictionLevel.NO_RESTRICTIONS

    def test_wildcard_star_disallow_pattern_is_full(self):
        text = "User-agent: GPTBot\nDisallow: /*"
        assert classify(text, "GPTBot").level is RestrictionLevel.FULL

    def test_levels_ordered(self):
        assert (
            RestrictionLevel.NO_ROBOTS
            < RestrictionLevel.NO_RESTRICTIONS
            < RestrictionLevel.PARTIAL
            < RestrictionLevel.FULL
        )

    def test_disallows_property(self):
        assert RestrictionLevel.FULL.disallows
        assert RestrictionLevel.PARTIAL.disallows
        assert not RestrictionLevel.NO_RESTRICTIONS.disallows
        assert not RestrictionLevel.NO_ROBOTS.disallows


class TestClassifyRules:
    def test_empty_rules(self):
        assert classify_rules([]) is RestrictionLevel.NO_RESTRICTIONS

    def test_blanket_disallow(self):
        assert classify_rules([Rule(False, "/")]) is RestrictionLevel.FULL

    def test_path_disallow(self):
        assert classify_rules([Rule(False, "/x/")]) is RestrictionLevel.PARTIAL

    def test_allow_only(self):
        assert classify_rules([Rule(True, "/")]) is RestrictionLevel.NO_RESTRICTIONS

    def test_longer_allow_breaks_blanket(self):
        rules = [Rule(False, "/"), Rule(True, "/ok/")]
        assert classify_rules(rules) is RestrictionLevel.PARTIAL

    def test_query_only_disallow_detected_as_partial(self):
        assert classify_rules([Rule(False, "/*?*")]) is RestrictionLevel.PARTIAL


class TestExplicitlyAllows:
    def test_explicit_allow_group(self):
        assert classify("User-agent: GPTBot\nAllow: /", "GPTBot").explicit_allow

    def test_wildcard_allow_not_explicit(self):
        assert not classify("User-agent: *\nAllow: /", "GPTBot").explicit_allow

    def test_allow_with_disallow_elsewhere_not_counted(self):
        text = "User-agent: GPTBot\nAllow: /\nDisallow: /private/"
        assert not classify(text, "GPTBot").explicit_allow

    def test_allow_subpath_only_not_counted(self):
        assert not classify("User-agent: GPTBot\nAllow: /blog/", "GPTBot").explicit_allow

    def test_disallow_only_group_not_allow(self):
        assert not classify("User-agent: GPTBot\nDisallow: /", "GPTBot").explicit_allow


def _row(text):
    return VerdictRow.of(RobotsPolicy(text))


class TestFullyDisallowsAny:
    AGENTS = ["GPTBot", "CCBot", "anthropic-ai"]

    def test_none_robots(self):
        assert not NO_ROBOTS_ROW.fully_disallows_any(self.AGENTS)

    def test_one_agent_blocked(self):
        text = "User-agent: CCBot\nDisallow: /"
        assert _row(text).fully_disallows_any(self.AGENTS)

    def test_partial_not_counted(self):
        text = "User-agent: CCBot\nDisallow: /img/"
        assert not _row(text).fully_disallows_any(self.AGENTS)

    def test_wildcard_not_counted_by_default(self):
        text = "User-agent: *\nDisallow: /"
        assert not _row(text).fully_disallows_any(self.AGENTS)

    def test_wildcard_counted_in_ablation_mode(self):
        assert _row("User-agent: *\nDisallow: /").fully_disallows_any(
            self.AGENTS, require_explicit=False
        )


class TestRawTextParsing:
    def test_same_text_parses_at_most_once(self, monkeypatch):
        parses = []
        real = policy_module.parse

        def counting(source):
            parses.append(source)
            return real(source)

        monkeypatch.setattr(policy_module, "parse", counting)
        text = "User-agent: GPTBot\nDisallow: /parsed-once/\n"
        classify(text, "GPTBot")
        classify(text, "CCBot")
        assert len(parses) <= 1


# -- Property-based ---------------------------------------------------------

_agents = st.sampled_from(["GPTBot", "CCBot", "Bytespider", "ClaudeBot"])


class TestClassifyProperties:
    @given(agent=_agents)
    def test_explicit_full_disallow_always_full(self, agent):
        text = f"User-agent: {agent}\nDisallow: /"
        assert classify(text, agent).level is RestrictionLevel.FULL

    @given(agent=_agents, path=st.sampled_from(["/a/", "/img/", "/x"]))
    def test_explicit_partial_never_full(self, agent, path):
        text = f"User-agent: {agent}\nDisallow: {path}"
        assert classify(text, agent).level is RestrictionLevel.PARTIAL

    @given(agent=_agents)
    def test_explicit_flag_matches_naming(self, agent):
        text = "User-agent: GPTBot\nDisallow: /"
        result = classify(text, agent)
        assert result.explicit == (agent == "GPTBot")
