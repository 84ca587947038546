"""Restriction-level classification of robots.txt files per crawler.

This module implements the wrapper the paper builds around a compliant
parser (Section 3.1): for a given user agent, a site falls into one of
four categories --

* :attr:`RestrictionLevel.NO_ROBOTS` -- the site serves no robots.txt;
* :attr:`RestrictionLevel.NO_RESTRICTIONS` -- the agent may fetch
  everything;
* :attr:`RestrictionLevel.PARTIAL` -- some paths are disallowed;
* :attr:`RestrictionLevel.FULL` -- every path is disallowed.

Following the paper's methodology, classification can be restricted to
*explicit* rules: a site only counts as disallowing an AI crawler when
its robots.txt names that crawler's user agent, not when a wildcard
``User-agent: *`` group happens to cover it.  The ablation benchmarks
flip this switch to measure how much the wildcard convention would
inflate the trend lines.

The module also detects the *reverse* intent studied in Section 3.4:
sites whose robots.txt explicitly allows an AI crawler (e.g. an
``Allow: /`` group naming GPTBot).

Every Section 3 statistic depends only on how one body classifies for
each of the 24 AI user agents, so a body's verdicts are computed once,
into a :class:`VerdictRow`: one explicit-only :class:`Classification`
per agent of ``AI_USER_AGENT_TOKENS`` plus the body's wildcard level, from
which every per-agent, any-agent, explicit-allow and
``require_explicit=False`` answer derives.  A row packs into 25 hex
digits (:data:`VERDICT_ROW_LAYOUT`), the form the on-disk body-facts
stores persist under the body's SHA-256.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from .compiled import shared_policy_cache
from .matcher import Rule, evaluate, normalize_path
from .policy import RobotsPolicy

__all__ = [
    "RestrictionLevel",
    "Classification",
    "NO_ROBOTS_ROW",
    "VERDICT_ROW_LAYOUT",
    "VerdictRow",
    "classify",
    "classify_rules",
    "explicitly_allows",
    "fully_disallows_any",
]


class RestrictionLevel(enum.IntEnum):
    """How restricted a crawler is by a site's robots.txt.

    Ordering is meaningful: higher values are more restrictive, so
    aggregations can use ``max`` across agents.
    """

    NO_ROBOTS = 0
    NO_RESTRICTIONS = 1
    PARTIAL = 2
    FULL = 3

    @property
    def disallows(self) -> bool:
        """Whether this level reflects any disallowing at all."""
        return self in (RestrictionLevel.PARTIAL, RestrictionLevel.FULL)


@dataclass(frozen=True)
class Classification:
    """Result of classifying one (site, agent) pair.

    Attributes:
        level: The restriction level.
        explicit: Whether the rules came from a group naming the agent.
        explicit_allow: Whether the file contains an explicit allow rule
            for the agent (Section 3.4's reverse intent).
    """

    level: RestrictionLevel
    explicit: bool = False
    explicit_allow: bool = False


def _rules_disallow_everything(rules: Iterable[Rule]) -> bool:
    """Whether the merged rule set denies every possible path.

    A rule set is fully-disallowing when a disallow rule matches the
    root ``/`` with a pattern that matches *all* paths (``/``, ``*`` or a
    pure-wildcard variant), and no allow rule can ever beat it.  An
    allow rule beats the blanket disallow on the paths it matches when
    its priority is greater than or equal to the disallow's priority
    (ties go to allow).
    """
    rules = list(rules)
    blanket_priority: Optional[int] = None
    for rule in rules:
        if rule.allow or rule.is_empty:
            continue
        stripped = rule.path.rstrip("*")
        if stripped in ("", "/"):
            priority = rule.pattern.priority
            if blanket_priority is None or priority > blanket_priority:
                blanket_priority = priority
    if blanket_priority is None:
        return False
    for rule in rules:
        if not rule.allow or rule.is_empty:
            continue
        if rule.pattern.priority >= blanket_priority:
            return False
    return True


def _witness_path(rule: Rule) -> Optional[str]:
    """A concrete path *rule*'s pattern matches, or None when unmatchable.

    Built by anchoring off the ``$`` terminator and replacing each ``*``
    with a literal character.  Patterns that do not start with ``/`` (or
    a wildcard that can absorb the leading slash) never match any
    normalized request path and yield None.
    """
    pattern = rule.path
    body = pattern[:-1] if pattern.endswith("$") else pattern
    witness = body.replace("*", "x")
    if not witness:
        return None
    if not witness.startswith("/"):
        if body.startswith("*"):
            witness = "/" + body[1:].replace("*", "x")
        else:
            return None
    if not rule.pattern.matches(normalize_path(witness)):
        return None
    return witness


def _policy(robots_txt: Union[str, bytes, RobotsPolicy]) -> RobotsPolicy:
    """*robots_txt* as a policy; raw text parses once per distinct body."""
    if isinstance(robots_txt, RobotsPolicy):
        return robots_txt
    return shared_policy_cache().policy(robots_txt)


def classify_rules(rules: Iterable[Rule]) -> RestrictionLevel:
    """Classify a merged rule set into a restriction level.

    A set is ``FULL`` when a blanket disallow covers every path and no
    allow rule can ever beat it; it is ``PARTIAL`` when at least one
    disallow rule *wins* somewhere, established by evaluating a witness
    path derived from the rule's own pattern.  (The witness construction
    is a heuristic: a pathological allow rule could match the chosen
    witness yet miss other paths the disallow covers.  No such file
    occurs in this study's corpora.)

    >>> classify_rules([Rule(allow=False, path="/")])
    <RestrictionLevel.FULL: 3>
    >>> classify_rules([])
    <RestrictionLevel.NO_RESTRICTIONS: 1>
    """
    effective = [r for r in rules if not r.is_empty]
    disallows = [r for r in effective if not r.allow]
    if not disallows:
        return RestrictionLevel.NO_RESTRICTIONS
    if _rules_disallow_everything(effective):
        return RestrictionLevel.FULL
    for rule in disallows:
        witness = _witness_path(rule)
        if witness is not None and not evaluate(effective, witness).allowed:
            return RestrictionLevel.PARTIAL
    return RestrictionLevel.NO_RESTRICTIONS


def classify(
    robots_txt: Optional[Union[str, bytes, RobotsPolicy]],
    user_agent: str,
    require_explicit: bool = True,
) -> Classification:
    """Classify how *user_agent* is restricted by *robots_txt*.

    Args:
        robots_txt: Raw robots.txt content, a pre-built policy, or None
            when the site serves no robots.txt.
        user_agent: Crawler user agent (product token or full string).
        require_explicit: When True (the paper's methodology), rules
            reachable only through ``User-agent: *`` yield
            ``NO_RESTRICTIONS`` -- only groups naming the agent count.

    >>> classify("User-agent: *\\nDisallow: /", "GPTBot").level.name
    'NO_RESTRICTIONS'
    >>> classify("User-agent: GPTBot\\nDisallow: /", "GPTBot").level.name
    'FULL'
    """
    if robots_txt is None:
        return Classification(level=RestrictionLevel.NO_ROBOTS)
    policy = _policy(robots_txt)
    agent_rules = policy.rules_for(user_agent)
    allow = explicitly_allows(policy, user_agent)
    if require_explicit and not agent_rules.explicit:
        return Classification(
            level=RestrictionLevel.NO_RESTRICTIONS,
            explicit=False,
            explicit_allow=allow,
        )
    level = classify_rules(agent_rules.rules)
    return Classification(level=level, explicit=agent_rules.explicit, explicit_allow=allow)


def explicitly_allows(
    policy: Union[str, bytes, RobotsPolicy], user_agent: str
) -> bool:
    """Whether robots.txt *explicitly allows* *user_agent* (Section 3.4).

    A site explicitly allows a crawler when a group naming the crawler
    contains an ``Allow`` rule covering the root and the merged rules do
    not disallow it anywhere, i.e. a directive like::

        User-agent: GPTBot
        Allow: /
    """
    agent_rules = _policy(policy).rules_for(user_agent)
    if not agent_rules.explicit:
        return False
    has_root_allow = any(
        rule.allow and rule.pattern is not None and rule.pattern.matches("/")
        for rule in agent_rules.rules
    )
    if not has_root_allow:
        return False
    return classify_rules(agent_rules.rules) is RestrictionLevel.NO_RESTRICTIONS


def fully_disallows_any(
    robots_txt: Optional[Union[str, bytes, RobotsPolicy]],
    user_agents: Iterable[str],
    require_explicit: bool = True,
) -> bool:
    """Whether the site fully disallows at least one of *user_agents*.

    This is the per-site statistic plotted in Figure 2.
    """
    if robots_txt is None:
        return False
    policy = _policy(robots_txt)
    return any(
        classify(policy, agent, require_explicit=require_explicit).level
        is RestrictionLevel.FULL
        for agent in user_agents
    )


# -- one verdict row per body --------------------------------------------------

#: The packed row's layout: one cell per AI user agent, in vocabulary
#: order.  Both on-disk body-facts schemas embed it, so editing the
#: vocabulary or the digit encoding invalidates every stored row.
VERDICT_ROW_LAYOUT = {
    "agents": list(AI_USER_AGENT_TOKENS),
    "cell": "hex: level | explicit << 2 | explicit_allow << 3",
    "tail": "hex: wildcard level",
}

_HEX = "0123456789abcdef"
_AGENT_INDEX: Dict[str, int] = {
    agent: i for i, agent in enumerate(AI_USER_AGENT_TOKENS)
}

#: Every possible cell, indexed by its packed digit: rows share these
#: sixteen objects instead of holding one per (body, agent).
_CELLS: Tuple[Classification, ...] = tuple(
    Classification(
        level=RestrictionLevel(digit & 3),
        explicit=bool(digit & 4),
        explicit_allow=bool(digit & 8),
    )
    for digit in range(16)
)


def _digit(cell: Classification) -> int:
    return int(cell.level) | cell.explicit << 2 | cell.explicit_allow << 3


def _agent_index(agent: str) -> int:
    index = _AGENT_INDEX.get(agent)
    if index is None:
        raise ValueError(f"{agent!r} is not in AI_USER_AGENT_TOKENS")
    return index


@dataclass(frozen=True)
class VerdictRow:
    """Every verdict the Section 3 statistics read from one body.

    Attributes:
        cells: Per agent of ``AI_USER_AGENT_TOKENS``, its explicit-only
            :func:`classify` result.
        wildcard: The level the ``User-agent: *`` groups alone give,
            which an agent no group names falls back to when wildcard
            rules count.
    """

    cells: Tuple[Classification, ...]
    wildcard: RestrictionLevel

    @classmethod
    def of(cls, policy: RobotsPolicy) -> "VerdictRow":
        """Classify *policy* for each agent a group names, plus its
        wildcard level.

        An agent no group names classifies as explicit-only
        ``NO_RESTRICTIONS`` without an explicit allow, so only named
        agents run :func:`classify`.  No group token matches ``*``, so
        ``rules_for("*")`` resolves to the merged wildcard rules.
        """
        unnamed = _CELLS[RestrictionLevel.NO_RESTRICTIONS]
        cells = tuple(
            _CELLS[_digit(classify(policy, agent))]
            if policy.rules_for(agent).explicit
            else unnamed
            for agent in AI_USER_AGENT_TOKENS
        )
        wildcard = classify(policy, "*", require_explicit=False).level
        return cls(cells, wildcard)

    def classification(
        self, agent: str, require_explicit: bool = True
    ) -> Classification:
        """:func:`classify` for *agent*; raises :class:`ValueError` for an
        agent outside ``AI_USER_AGENT_TOKENS``."""
        cell = self.cells[_agent_index(agent)]
        if require_explicit or cell.explicit:
            return cell
        return _CELLS[self.wildcard]

    def disallows_any(self, agents: Iterable[str]) -> bool:
        """Whether a group naming one of *agents* disallows it anywhere."""
        return any(self.classification(agent).level.disallows for agent in agents)

    def fully_disallows_any(
        self, agents: Iterable[str], require_explicit: bool = True
    ) -> bool:
        """Whether at least one of *agents* is fully disallowed (Figure 2)."""
        return any(
            self.classification(agent, require_explicit).level is RestrictionLevel.FULL
            for agent in agents
        )

    def allows_any(self, agents: Iterable[str]) -> bool:
        """Whether the body explicitly allows at least one of *agents*."""
        return any(self.cells[_agent_index(agent)].explicit_allow for agent in agents)

    def pack(self) -> str:
        """One hex digit per cell, then the wildcard level."""
        return "".join(_HEX[_digit(cell)] for cell in self.cells) + _HEX[self.wildcard]

    @classmethod
    def unpack(cls, packed: object) -> Optional["VerdictRow"]:
        """The row :meth:`pack` wrote, or None for anything else."""
        if not isinstance(packed, str) or len(packed) != len(AI_USER_AGENT_TOKENS) + 1:
            return None
        digits = [_HEX.find(char) for char in packed]
        if -1 in digits or digits[-1] > RestrictionLevel.FULL:
            return None
        return cls(
            tuple(_CELLS[digit] for digit in digits[:-1]),
            RestrictionLevel(digits[-1]),
        )


#: The row for a site that serves no robots.txt.
NO_ROBOTS_ROW = VerdictRow(
    (_CELLS[RestrictionLevel.NO_ROBOTS],) * len(AI_USER_AGENT_TOKENS),
    RestrictionLevel.NO_ROBOTS,
)
