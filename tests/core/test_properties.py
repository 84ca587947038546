"""Property-based tests of cross-module invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import RestrictionLevel, classify
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy
from repro.core.serialize import (
    RobotsBuilder,
    add_allow_group,
    add_disallow_group,
    agents_mentioned,
    remove_agent_rules,
)

# Strategies -------------------------------------------------------------------

_agent_names = st.sampled_from(
    ["GPTBot", "CCBot", "anthropic-ai", "Bytespider", "ClaudeBot",
     "PerplexityBot", "cohere-ai", "Google-Extended"]
)

_paths = st.sampled_from(
    ["/", "/admin/", "/images/", "/blog/", "/search", "/a/b/", "/*.pdf$"]
)


@st.composite
def robots_files(draw):
    """Syntactically valid robots.txt files built through the builder."""
    builder = RobotsBuilder()
    n_groups = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_groups):
        agents = draw(st.lists(_agent_names, min_size=1, max_size=3, unique=True))
        builder.group(*agents)
        n_rules = draw(st.integers(min_value=1, max_value=3))
        for _ in range(n_rules):
            path = draw(_paths)
            if draw(st.booleans()):
                builder.disallow(path)
            else:
                builder.allow(path)
    if draw(st.booleans()):
        builder.group("*").disallow(draw(_paths))
    return builder.build()


# Properties -------------------------------------------------------------------


class TestBuilderParserRoundTrip:
    @given(text=robots_files())
    @settings(max_examples=60)
    def test_builder_output_always_parses_without_junk(self, text):
        parsed = parse(text)
        assert parsed.malformed_lines == []
        assert parsed.orphan_rules == []
        assert parsed.unknown_directives == []

    @given(text=robots_files())
    @settings(max_examples=60)
    def test_groups_survive_roundtrip(self, text):
        policy = RobotsPolicy(parse(text))
        # Every agent mentioned is reachable through a group.
        for token in agents_mentioned(text):
            if token == "*":
                continue
            assert policy.rules_for(token).explicit, token


class TestEditInvariants:
    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_remove_then_disallow_yields_full(self, text, agent):
        # Adding a blanket disallow only guarantees FULL when no earlier
        # explicit Allow: / for the agent survives (allow wins ties per
        # RFC 9309), so the canonical edit is remove-then-add.
        edited = add_disallow_group(remove_agent_rules(text, [agent]), [agent])
        assert classify(edited, agent).level is RestrictionLevel.FULL

    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_remove_agent_rules_unmentions_agent(self, text, agent):
        edited = remove_agent_rules(text, [agent])
        assert agent.lower() not in agents_mentioned(edited)

    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_remove_after_add_restores_no_restrictions(self, text, agent):
        cleaned = remove_agent_rules(text, [agent])
        added = add_disallow_group(cleaned, [agent])
        removed = remove_agent_rules(added, [agent])
        result = classify(removed, agent)
        # The agent is no longer explicitly restricted.
        assert not result.explicit or result.level is RestrictionLevel.NO_RESTRICTIONS

    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_remove_preserves_other_agents_levels(self, text, agent):
        before = {
            other: classify(text, other).level
            for other in agents_mentioned(text)
            if other != agent.lower() and other != "*"
        }
        edited = remove_agent_rules(text, [agent])
        for other, level in before.items():
            assert classify(edited, other).level is level, other

    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_explicit_allow_neutralizes_restrictions(self, text, agent):
        cleaned = remove_agent_rules(text, [agent])
        allowed = add_allow_group(cleaned, [agent])
        assert classify(allowed, agent).level is RestrictionLevel.NO_RESTRICTIONS


class TestPolicyInvariants:
    @given(text=robots_files(), agent=_agent_names, path=_paths)
    @settings(max_examples=60)
    def test_robots_txt_always_fetchable(self, text, agent, path):
        assert RobotsPolicy(text).is_allowed(agent, "/robots.txt")

    @given(text=robots_files(), agent=_agent_names)
    @settings(max_examples=60)
    def test_classification_monotone_under_blanket_disallow(self, text, agent):
        before = classify(text, agent).level
        after = classify(add_disallow_group(text, [agent]), agent).level
        assert after >= before or after is RestrictionLevel.FULL

    @given(text=robots_files(), agent=_agent_names, path=_paths)
    @settings(max_examples=60)
    def test_case_insensitive_agent_matching(self, text, agent, path):
        policy = RobotsPolicy(text)
        assert policy.is_allowed(agent, path) == policy.is_allowed(agent.upper(), path)
        assert policy.is_allowed(agent, path) == policy.is_allowed(agent.lower(), path)
