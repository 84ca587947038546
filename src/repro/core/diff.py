"""Semantic diffing of robots.txt versions.

The longitudinal analysis wants to know not just *that* a file changed
between snapshots but *what the change meant*: which agents gained or
lost restrictions, whether the edit was surgical (only the targeted
groups touched -- the Future PLC pattern of Section 3.3) or a rewrite,
and whether the new version expresses reverse intent (explicit allows,
Section 3.4).  :func:`diff_robots` compares two versions at the level
of per-agent restriction outcomes, and :func:`classify_change` maps a
diff onto the paper's change taxonomy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from .classify import RestrictionLevel, classify
from .compiled import shared_policy_cache
from .policy import RobotsPolicy

__all__ = ["AgentChange", "RobotsDiff", "diff_robots", "ChangeKind", "classify_change"]


@dataclass(frozen=True)
class AgentChange:
    """How one agent's treatment changed between versions.

    Attributes:
        agent: The agent token (as named in either version).
        before: Restriction level in the old version.
        after: Restriction level in the new version.
    """

    agent: str
    before: RestrictionLevel
    after: RestrictionLevel

    @property
    def tightened(self) -> bool:
        return self.after > self.before

    @property
    def loosened(self) -> bool:
        return self.after < self.before


@dataclass
class RobotsDiff:
    """The semantic difference between two robots.txt versions.

    Attributes:
        changes: Per-agent level changes (unchanged agents omitted).
        agents_added: Agents named only in the new version.
        agents_removed: Agents named only in the old version.
        allow_gained: Agents explicitly allowed only in the new version.
        wildcard_changed: Whether the merged ``*`` rules (the rules every
            agent no group names gets) changed.
    """

    changes: List[AgentChange] = field(default_factory=list)
    agents_added: List[str] = field(default_factory=list)
    agents_removed: List[str] = field(default_factory=list)
    allow_gained: List[str] = field(default_factory=list)
    wildcard_changed: bool = False

    @property
    def is_empty(self) -> bool:
        """Whether the versions are semantically equivalent (for the
        probed agents and paths)."""
        return not (
            self.changes
            or self.agents_added
            or self.agents_removed
            or self.allow_gained
            or self.wildcard_changed
        )

    def tightened_agents(self) -> List[str]:
        return [c.agent for c in self.changes if c.tightened]

    def loosened_agents(self) -> List[str]:
        return [c.agent for c in self.changes if c.loosened]


def _named(policy: Optional[RobotsPolicy]) -> Set[str]:
    """The agents a group of *policy* names, less ``*`` and the empty
    ``User-agent:`` value."""
    if policy is None:
        return set()
    return set(policy.named_agents()) - {"*", ""}


def _wildcard_rules(policy: Optional[RobotsPolicy]) -> Optional[List[Tuple[bool, str]]]:
    """The merged ``*`` rules as a sorted ``(allow, path)`` multiset.

    Longest-match evaluation depends only on this multiset (an empty
    pattern matches nothing), so equal multisets decide every path
    alike.
    """
    if policy is None:
        return None
    return sorted((rule.allow, rule.path) for rule in policy.wildcard_rules.rules if rule.path)


def diff_robots(before: Optional[str], after: Optional[str]) -> RobotsDiff:
    """Compute the semantic diff between two robots.txt versions.

    *before* and *after* are file contents (None = no robots.txt
    served).  Every agent either version names is compared.
    """
    # Each version is parsed at most once per process: the shared
    # content-addressed compile cache hands back one memoized policy per
    # distinct body, whose groups also list the agents it names.
    cache = shared_policy_cache()
    policy_before = cache.policy(before) if before is not None else None
    policy_after = cache.policy(after) if after is not None else None
    named_before = _named(policy_before)
    named_after = _named(policy_after)

    diff = RobotsDiff()
    diff.agents_added = sorted(named_after - named_before)
    diff.agents_removed = sorted(named_before - named_after)

    for agent in sorted(named_before | named_after):
        cell_before = classify(policy_before, agent)
        cell_after = classify(policy_after, agent)
        if cell_before.level is not cell_after.level:
            diff.changes.append(AgentChange(agent, cell_before.level, cell_after.level))
        if cell_after.explicit_allow and not cell_before.explicit_allow:
            diff.allow_gained.append(agent)

    diff.wildcard_changed = _wildcard_rules(policy_before) != _wildcard_rules(policy_after)
    return diff


class ChangeKind(enum.Enum):
    """The paper-aligned taxonomy of robots.txt changes."""

    #: Versions semantically equivalent (formatting-only edits).
    NO_CHANGE = "no-change"
    #: AI restrictions added (the Section 3.2 adoption events).
    AI_RESTRICTION_ADDED = "ai-restriction-added"
    #: AI restrictions removed, rest untouched (the Section 3.3
    #: data-deal pattern).
    AI_RESTRICTION_REMOVED = "ai-restriction-removed"
    #: Explicit allow appeared (the Section 3.4 reverse intent).
    EXPLICIT_ALLOW_ADDED = "explicit-allow-added"
    #: Only non-AI rules changed (wildcard paths, SEO bots, sitemaps).
    UNRELATED_CHANGE = "unrelated-change"
    #: Both additions and removals of AI restrictions (rewrites).
    MIXED = "mixed"


def classify_change(
    before: Optional[str],
    after: Optional[str],
    ai_agents: Sequence[str],
) -> ChangeKind:
    """Map one version transition onto the change taxonomy.

    >>> classify_change(
    ...     "User-agent: *\\nDisallow: /x/",
    ...     "User-agent: *\\nDisallow: /x/\\nUser-agent: GPTBot\\nDisallow: /",
    ...     ["GPTBot"],
    ... ).value
    'ai-restriction-added'
    """
    diff = diff_robots(before, after)
    if diff.is_empty:
        return ChangeKind.NO_CHANGE
    ai_set = {a.lower() for a in ai_agents}
    tightened = [a for a in diff.tightened_agents() if a.lower() in ai_set]
    loosened = [a for a in diff.loosened_agents() if a.lower() in ai_set]
    allows = [a for a in diff.allow_gained if a.lower() in ai_set]
    if allows and not tightened:
        return ChangeKind.EXPLICIT_ALLOW_ADDED
    if tightened and loosened:
        return ChangeKind.MIXED
    if tightened:
        return ChangeKind.AI_RESTRICTION_ADDED
    if loosened:
        return ChangeKind.AI_RESTRICTION_REMOVED
    return ChangeKind.UNRELATED_CHANGE
