"""A literal RFC 9309 reference for robots.txt path matching.

Deliberately naive and independent of :mod:`repro.core.matcher`'s
compiled patterns: section 2.2.3 is transcribed into a regular
expression (``*`` is ``.*``, a trailing ``$`` anchors the end), and the
evaluators try every rule on every query.  The only code shared with
the engine is :func:`~repro.core.matcher.normalize_path`, the percent-
encoding canonicalization both sides must agree on before comparing.
"""

import re

from repro.core.matcher import Verdict, normalize_path


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
