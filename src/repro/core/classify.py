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

Both answers are properties of the merged rule set an agent resolves
to (:class:`~repro.core.policy.AgentRules`), which a policy shares among
every agent matching the same groups, so each is computed once per
distinct rule set; :func:`classify` reads them.

Every Section 3 statistic depends only on how one body classifies for
each of the 24 AI user agents, so a body's verdicts are computed once,
into a :class:`VerdictRow`: one explicit-only :class:`Classification`
per agent of ``AI_USER_AGENT_TOKENS`` plus the body's wildcard level, from
which every per-agent, any-agent, explicit-allow and
``require_explicit=False`` answer derives.  Most bodies name no AI
agent, so a row classifies only the agents the body's own tokens name,
found through :func:`~repro.core.policy.naming_tokens` inverted once
over the vocabulary; every other cell is the unnamed cell.  A row packs
into 25 hex digits (:data:`VERDICT_ROW_LAYOUT`), the form the on-disk
body-facts stores persist under the body's SHA-256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from .compiled import shared_policy_cache
from .policy import RestrictionLevel, RobotsPolicy, classify_rules, naming_tokens

__all__ = [
    "RestrictionLevel",
    "Classification",
    "NO_ROBOTS_ROW",
    "VERDICT_ROW_LAYOUT",
    "VerdictRow",
    "classify",
    "classify_rules",
]


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


#: Every possible classification, indexed by its packed digit
#: (:func:`_digit`): :func:`classify` and the verdict rows hand out these
#: sixteen objects instead of building one per (body, agent).
_CELLS: Tuple[Classification, ...] = tuple(
    Classification(
        level=RestrictionLevel(digit & 3),
        explicit=bool(digit & 4),
        explicit_allow=bool(digit & 8),
    )
    for digit in range(16)
)


#: The explicit-only answer for an agent no group names.
_UNNAMED = _CELLS[RestrictionLevel.NO_RESTRICTIONS]


def _digit(cell: Classification) -> int:
    return int(cell.level) | cell.explicit << 2 | cell.explicit_allow << 3


def _policy(robots_txt: Union[str, bytes, RobotsPolicy]) -> RobotsPolicy:
    """*robots_txt* as a policy; raw text parses once per distinct body."""
    if isinstance(robots_txt, RobotsPolicy):
        return robots_txt
    return shared_policy_cache().policy(robots_txt)


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
        return _CELLS[RestrictionLevel.NO_ROBOTS]
    agent_rules = _policy(robots_txt).rules_for(user_agent)
    if require_explicit and not agent_rules.explicit:
        return _UNNAMED
    # The rule set's level and explicit allow are computed once per
    # distinct set of matched groups, not once per agent.
    return _CELLS[
        agent_rules.level
        | agent_rules.explicit << 2
        | agent_rules.explicit_allow << 3
    ]


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


def _agents_named_by() -> Dict[str, Tuple[int, ...]]:
    """:func:`naming_tokens` inverted over the vocabulary: each token
    that names an AI user agent, to the indices of the agents it names."""
    named_by: Dict[str, Tuple[int, ...]] = {}
    for index, agent in enumerate(AI_USER_AGENT_TOKENS):
        for token in naming_tokens(agent):
            named_by[token] = named_by.get(token, ()) + (index,)
    return named_by


_AGENTS_NAMED_BY = _agents_named_by()


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
        """Classify *policy* for each AI user agent a group names, plus
        its wildcard level; every other agent gets the unnamed cell."""
        named = {
            index
            for token in policy.named_agents()
            for index in _AGENTS_NAMED_BY.get(token, ())
        }
        cells = tuple(
            classify(policy, agent) if index in named else _UNNAMED
            for index, agent in enumerate(AI_USER_AGENT_TOKENS)
        )
        return cls(cells, policy.wildcard_rules.level)

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
