"""A literal RFC 9309 reference for robots.txt path matching.

Deliberately naive and independent of :mod:`repro.core.matcher`'s
compiled patterns: section 2.2.3 is transcribed into a regular
expression (``*`` is ``.*``, a trailing ``$`` anchors the end), and the
evaluators try every rule on every query.  The only code shared with
the engine is :func:`~repro.core.matcher.normalize_path`, the percent-
encoding canonicalization both sides must agree on before comparing.

Group resolution has a reference of the same kind: :func:`resolve`
walks every group's tokens per query, where
:class:`~repro.core.policy.RobotsPolicy` reads its token index.
:func:`classification` and :func:`explicitly_allows` classify each
agent's resolved rules afresh, where a policy computes them once per
shared :class:`~repro.core.policy.AgentRules`, and :func:`verdict_row`
classifies all 24 AI user agents plus ``*`` afresh, where
:meth:`~repro.core.classify.VerdictRow.of` classifies only the agents
the body's tokens name and reads the policy's ``wildcard_rules``.
"""

import re

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.classify import Classification, RestrictionLevel, VerdictRow, classify_rules
from repro.core.matcher import Verdict, normalize_path
from repro.core.policy import AgentRules


def pattern_matches(pattern, path):
    """Whether the raw *pattern* matches the raw request *path*.

    An empty pattern matches nothing (``Disallow:`` allows everything).
    """
    if pattern == "":
        return False
    normalized = normalize_path(pattern)
    anchored = normalized.endswith("$")
    if anchored:
        normalized = normalized[:-1]
    regex = ".*".join(re.escape(piece) for piece in normalized.split("*"))
    find = re.fullmatch if anchored else re.match
    return find(regex, normalize_path(path), re.DOTALL) is not None


def match_priority(pattern):
    """Specificity of a matching rule: its normalized length."""
    return len(normalize_path(pattern))


def longest_match(rules, path):
    """The longest matching rule wins; an allow rule wins a tie."""
    matching = [rule for rule in rules if pattern_matches(rule.path, path)]
    if not matching:
        return Verdict(allowed=True, rule=None)
    top = max(match_priority(rule.path) for rule in matching)
    longest = [rule for rule in matching if match_priority(rule.path) == top]
    winner = next((rule for rule in longest if rule.allow), longest[0])
    return Verdict(allowed=winner.allow, rule=winner)


def first_match(rules, path):
    """The first matching rule in file order wins (the 1994 draft)."""
    for rule in rules:
        if pattern_matches(rule.path, path):
            return Verdict(allowed=rule.allow, rule=rule)
    return Verdict(allowed=True, rule=None)


def agent_rules(groups, token):
    """``(rules, explicit, crawl_delay)`` for a plain product *token*.

    Section 2.2.1 over parsed groups: a group applies when one of its
    agents is a case-insensitive prefix of *token*; only the groups
    with the longest such agent apply, merged in file order.  With none,
    the ``*`` groups apply.
    """
    token = token.lower()

    def specificity(group):
        return max(
            (
                len(agent)
                for agent in (a.lower() for a in group.agents)
                if agent and agent != "*" and token.startswith(agent)
            ),
            default=-1,
        )

    best = max((specificity(group) for group in groups), default=-1)
    if best >= 0:
        chosen = [group for group in groups if specificity(group) == best]
    else:
        chosen = [group for group in groups if "*" in group.agents]
    rules = [rule for group in chosen for rule in group.rules]
    delay = next((g.crawl_delays[0] for g in chosen if g.crawl_delays), None)
    return rules, best >= 0, delay


# -- group resolution by walking every group ----------------------------------

_TOKEN_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def product_token(user_agent):
    """The leading run of ``[A-Za-z0-9_-]`` characters, char by char."""
    out = []
    for ch in user_agent:
        if ch in _TOKEN_CHARS:
            out.append(ch)
        else:
            break
    return "".join(out)


def _agent_matches(group_token, crawler_token):
    """Whether a group's agent token governs a crawler product token."""
    group_token = group_token.lower()
    crawler_token = crawler_token.lower()
    if not group_token:
        return False
    return crawler_token.startswith(group_token)


def matched_groups(parsed, user_agent):
    """Indices of the named groups governing *user_agent*, in file order
    (empty when only the ``*`` groups apply).

    Walks every group and every token per query: a token matches when it
    is a non-empty prefix of the crawler's product token or equals the
    whole stripped, lowercased UA; a group's specificity is its longest
    matching token, and the groups of the longest specificity apply.
    """
    token = product_token(user_agent) or user_agent
    full = user_agent.strip().lower()
    best_len = -1
    matched = []
    for index, group in enumerate(parsed.groups):
        group_len = max(
            (
                len(agent_token)
                for agent_token in group.agent_tokens()
                if agent_token != "*"
                and (_agent_matches(agent_token, token) or agent_token == full)
            ),
            default=-1,
        )
        if group_len < 0:
            continue
        if group_len > best_len:
            best_len = group_len
            matched = [index]
        elif group_len == best_len:
            matched.append(index)
    return tuple(matched)


def resolve(parsed, user_agent):
    """:class:`AgentRules` for a full *user_agent* string or token: the
    :func:`matched_groups` merged in file order, and with none the ``*``
    groups."""
    matched = matched_groups(parsed, user_agent)
    chosen = [parsed.groups[i] for i in matched] or parsed.wildcard_groups()
    rules = tuple(rule for group in chosen for rule in group.rules)
    delay = next((g.crawl_delays[0] for g in chosen if g.crawl_delays), None)
    return AgentRules(rules=rules, explicit=bool(matched), crawl_delay=delay)


def explicitly_allows(parsed, user_agent):
    """Section 3.4's explicit allow, from :func:`resolve`'s rules: a group
    naming the agent allows the root and :func:`classify_rules` finds
    nothing disallowed."""
    resolved = resolve(parsed, user_agent)
    if not resolved.explicit:
        return False
    if not any(rule.allow and pattern_matches(rule.path, "/") for rule in resolved.rules):
        return False
    return classify_rules(resolved.rules) is RestrictionLevel.NO_RESTRICTIONS


def classification(parsed, user_agent, require_explicit=True):
    """:func:`~repro.core.classify.classify` for one agent, classifying
    :func:`resolve`'s rules per call."""
    resolved = resolve(parsed, user_agent)
    allow = explicitly_allows(parsed, user_agent)
    if require_explicit and not resolved.explicit:
        return Classification(RestrictionLevel.NO_RESTRICTIONS, False, allow)
    return Classification(classify_rules(resolved.rules), resolved.explicit, allow)


def verdict_row(policy):
    """The verdict row as 25 classifications build it: one per AI user
    agent, then ``*`` with wildcard rules counted."""
    parsed = policy.parsed
    cells = tuple(classification(parsed, agent) for agent in AI_USER_AGENT_TOKENS)
    wildcard = classification(parsed, "*", require_explicit=False).level
    return VerdictRow(cells, wildcard)
