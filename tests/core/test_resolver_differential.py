"""The token-indexed resolver and the verdict row against their oracles.

:meth:`RobotsPolicy.rules_for` reads an index of the body's named
tokens; :func:`oracle.resolve` walks every group's tokens per query.
:func:`classify` and :attr:`AgentRules.explicit_allow` read the level
and the explicit allow an :class:`AgentRules` computes once for every agent
sharing it; :func:`oracle.classification` and
:func:`oracle.explicitly_allows` classify each agent's rules afresh.
:meth:`VerdictRow.of` classifies only the AI user agents the body's
tokens name, found through the inverted
:func:`~repro.core.policy.naming_tokens`, and reads ``wildcard_rules``;
:func:`oracle.verdict_row` classifies all 24 AI user agents plus ``*``
afresh.
Each pair must agree on every body: the ``ROBOTS_SAMPLES``, a
hypothesis corpus built around the matching rule's corner cases, and
(in ``tests/measure/test_policy_cache.py``) every distinct body of a
crawled world.  Agents that resolve to the same groups must share one
:class:`AgentRules`, and agents resolving to different groups must not.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.classify import VerdictRow, classify
from repro.core.matcher import Rule
from repro.core.parser import Group, ParsedRobots
from repro.core.policy import RobotsPolicy, extract_product_token

from . import oracle
from .test_compiled import ROBOTS_SAMPLES

#: The agents every body is probed with: the vocabulary, ``*``, full UA
#: strings, a name outside the product-token alphabet, the empty string
#: and a UA with a leading space (its product token is empty).
PROBE_AGENTS = list(AI_USER_AGENT_TOKENS) + [
    "*",
    "GPTBot/1.2 (+https://openai.com/gptbot)",
    "Mozilla/5.0 (compatible; GPTBot/1.0; +https://openai.com/gptbot)",
    "gptbot-news/2.0",
    "gpt",
    "Kangaroo Bot",
    "kangaroo bot ",
    "",
    " GPTBot",
    "   ",
    "randombot",
]


def assert_matches_oracle(text, agents=PROBE_AGENTS):
    """``rules_for`` and ``VerdictRow.of`` agree with the oracles on
    *text* (raw robots.txt or a :class:`ParsedRobots`)."""
    policy = RobotsPolicy(text)
    parsed = policy.parsed
    by_groups = {}
    for agent in agents:
        got = policy.rules_for(agent)
        expected = oracle.resolve(parsed, agent)
        assert tuple(got.rules) == expected.rules, (text, agent)
        assert got.explicit == expected.explicit, (text, agent)
        assert got.crawl_delay == expected.crawl_delay, (text, agent)
        for require_explicit in (True, False):
            assert classify(policy, agent, require_explicit) == oracle.classification(
                parsed, agent, require_explicit
            ), (text, agent, require_explicit)
        assert got.explicit_allow == oracle.explicitly_allows(
            parsed, agent
        ), (text, agent)
        by_groups.setdefault(oracle.matched_groups(parsed, agent), set()).add(id(got))
    # One object per distinct set of matched groups, and distinct sets
    # never share one.
    assert all(len(ids) == 1 for ids in by_groups.values()), text
    assert len(set().union(*by_groups.values())) == len(by_groups), text
    assert VerdictRow.of(policy).pack() == oracle.verdict_row(policy).pack(), text


def _disallow(path):
    return Rule(allow=False, path=path)


class TestSamples:
    def test_every_sample(self):
        for text in ROBOTS_SAMPLES:
            assert_matches_oracle(text)

    def test_hand_built_parse_with_equal_length_matches(self):
        """A hand-built parse may hold a token with leading whitespace,
        so two distinct tokens of one length can match one UA; their
        groups merge once each, in file order."""
        parsed = ParsedRobots(
            groups=[
                Group(agents=["abc"], rules=[_disallow("/a")]),
                Group(agents=[" ab", "abc"], rules=[_disallow("/b")], crawl_delays=[4.0]),
                Group(agents=[" ab"], rules=[_disallow("/c")]),
                Group(agents=["*"], rules=[_disallow("/d")]),
            ]
        )
        assert_matches_oracle(parsed, PROBE_AGENTS + [" abc", " ab", "abc"])
        merged = RobotsPolicy(parsed).rules_for(" abc")
        assert [r.path for r in merged.rules] == ["/a", "/b", "/c"]
        assert merged.crawl_delay == 4.0

    def test_product_token_agrees(self):
        for agent in PROBE_AGENTS + ["a b", "x/y", "é-bot", "-_9z!"]:
            assert extract_product_token(agent) == oracle.product_token(agent)


class TestSharedWildcardAnswer:
    def test_unnamed_agents_share_one_object(self):
        policy = RobotsPolicy(
            "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nDisallow: /tmp\n"
        )
        first = policy.rules_for("CCBot")
        assert first is policy.rules_for("randombot")
        assert first is policy.rules_for("*")
        assert first is policy.wildcard_rules
        assert not first.explicit
        assert policy.rules_for("GPTBot") is not first

    def test_agents_of_one_group_share_one_object(self):
        """A rule set is merged and classified once for every agent that
        resolves to its groups."""
        policy = RobotsPolicy(
            "User-agent: GPTBot\nUser-agent: CCBot\nDisallow: /\n\n"
            "User-agent: ClaudeBot\nDisallow: /\n"
        )
        shared = policy.rules_for("GPTBot")
        assert policy.rules_for("CCBot") is shared
        assert policy.rules_for("GPTBot/1.2 (+https://openai.com/gptbot)") is shared
        assert policy.rules_for("ClaudeBot") is not shared
        assert shared.level is classify(policy, "CCBot").level

    def test_body_without_wildcard_groups(self):
        policy = RobotsPolicy("User-agent: GPTBot\nDisallow: /\n")
        unnamed = policy.rules_for("CCBot")
        assert unnamed is policy.rules_for("ClaudeBot")
        assert tuple(unnamed.rules) == () and unnamed.crawl_delay is None


#: Agent values for the corpus: prefix-related tokens in three cases,
#: ``*``, the empty value, names that only a full-UA match reaches, and
#: tokens that each name two AI agents at once (``applebot``, ``claude``,
#: ``meta-external``) beside the longer names of one of them, where the
#: longest match must still choose per agent.
_CORPUS_AGENTS = [
    "gpt",
    "GPTBot",
    "gptbot",
    "GPTBOT",
    "gptbot-news",
    "GPTBot-News",
    "*",
    "",
    "CCBot",
    "ccbot",
    "Kangaroo Bot",
    "kangaroo",
    "anthropic-ai",
    "anthropic",
    "ClaudeBot",
    "Google-Extended",
    "applebot",
    "Applebot-Extended",
    "claude",
    "Claude-Web",
    "meta-external",
]

#: Lines that may follow the agents: rules, the empty disallow, crawl
#: delays (which do not end an agent run), comments and blank lines.
_CORPUS_LINES = [
    "Disallow: /",
    "Allow: /",
    "Disallow: /private",
    "Allow: /private/ok",
    "Disallow:",
    "Crawl-delay: 5",
    "Crawl-delay: 1.5",
    "# comment",
    "",
]

_GROUPS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_CORPUS_AGENTS), min_size=1, max_size=4),
        st.lists(st.sampled_from(_CORPUS_LINES), max_size=4),
    ),
    max_size=5,
)


def _body(groups):
    lines = []
    for agents, rules in groups:
        lines.extend(f"User-agent: {agent}" for agent in agents)
        lines.extend(rules)
    return "\n".join(lines) + "\n"


class TestCorpus:
    @seed(9309)
    @settings(max_examples=300, deadline=None)
    @given(groups=_GROUPS)
    def test_generated_bodies(self, groups):
        assert_matches_oracle(_body(groups))

    def test_hand_written_corner_cases(self):
        """Hand-written bodies for each corner the strategy aims at."""
        bodies = [
            # A token repeated within one group and across groups.
            "User-agent: GPTBot\nUser-agent: gptbot\nDisallow: /a\n"
            "User-agent: GPTBOT\nAllow: /b\n",
            # Prefix-related tokens: the longest match wins.
            "User-agent: gpt\nDisallow: /\nUser-agent: GPTBot\nAllow: /\n"
            "User-agent: gptbot-news\nDisallow: /news\n",
            # ``*`` beside a named token in one group.
            "User-agent: *\nUser-agent: CCBot\nDisallow: /x\n"
            "User-agent: *\nDisallow: /y\nCrawl-delay: 3\n",
            # Empty values and a crawl delay between agent lines.
            "User-agent:\nCrawl-delay: 2\nUser-agent: Kangaroo Bot\n"
            "Disallow: /\nUser-agent: \nAllow: /\n",
        ]
        for text in bodies:
            assert_matches_oracle(text)
