"""A deliberately non-compliant robots.txt parser.

Section 8.1 of the paper attributes a ~10% robots.txt misinterpretation
rate to the home-grown parser used by Longpre et al. [70], and Appendix
B.2 documents the three bug classes responsible.  This module implements
a parser with exactly those bugs so the reproduction can quantify the
disagreement between compliant and non-compliant interpretation
(``benchmarks/bench_appb2_parsers.py``).

The legacy bugs, each individually toggleable:

* ``case_sensitive_agents`` -- ``User-agent`` values are compared
  case-sensitively, so ``User-agent: gptbot`` fails to govern GPTBot.
* ``last_agent_only`` -- consecutive ``User-agent`` lines do not form a
  shared group; only the last one receives the rules (Appendix B.2
  Case 2).
* ``comment_breaks_group`` -- a comment or blank line between a
  ``User-agent`` line and its rules detaches the rules (Case 1).
* ``crawl_delay_breaks_group`` -- ``Crawl-delay`` terminates the group
  instead of being ignored (Case 3).
* ``first_match`` -- rule evaluation uses the pre-RFC first-match
  discipline instead of longest-match.

Only the grouping and agent matching are its own: the first four quirks
live in :meth:`LegacyPolicy._parse` and :meth:`LegacyPolicy._match_agent`
(case-sensitive, split on ``/``, no longest-token rule), which share
almost nothing with :class:`~repro.core.policy.RobotsPolicy`.  A legacy
policy may group an existing token stream (a compliant parse's
``source_lines``), so comparing the two parsers tokenizes a body once.
Path matching goes through the compliant parser's shared :class:`Rule`
objects (:func:`~repro.core.parser.shared_rule`), so each rule line
compiles once for both parsers, not once per policy or query, and
per-agent resolution is memoized as in ``RobotsPolicy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .lexer import Line, LineKind, tokenize
from .matcher import Rule, Verdict, evaluate, first_match
from .parser import shared_rule

__all__ = ["LegacyQuirks", "LegacyPolicy"]


@dataclass(frozen=True)
class LegacyQuirks:
    """Which non-compliant behaviors the legacy parser exhibits.

    The default enables all of them, matching the parser analyzed in the
    paper before its authors fixed it.
    """

    case_sensitive_agents: bool = True
    last_agent_only: bool = True
    comment_breaks_group: bool = True
    crawl_delay_breaks_group: bool = True
    first_match: bool = True

    @classmethod
    def none(cls) -> "LegacyQuirks":
        """A quirk set with every bug disabled (compliant behavior)."""
        return cls(False, False, False, False, False)


@dataclass
class _LegacyGroup:
    agents: List[str] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)


class LegacyPolicy:
    """Policy built by the buggy parser; mirrors RobotsPolicy's surface.

    Construct from raw text/bytes or from the token stream
    :func:`~repro.core.lexer.tokenize` returns for it (for instance a
    compliant parse's ``source_lines``); both group alike.

    >>> text = "User-agent: GPTBot\\nUser-agent: CCBot\\nDisallow: /"
    >>> LegacyPolicy(text).is_allowed("GPTBot", "/x")  # bug: group lost
    True
    >>> LegacyPolicy(text).is_allowed("CCBot", "/x")
    False
    """

    def __init__(
        self,
        source: Union[str, bytes, Sequence[Line]],
        quirks: LegacyQuirks = LegacyQuirks(),
    ):
        self.quirks = quirks
        lines = tokenize(source) if isinstance(source, (str, bytes)) else source
        self._groups = self._parse(lines)
        self._agent_rules: Dict[str, Tuple[Rule, ...]] = {}

    def _parse(self, lines: Sequence[Line]) -> List[_LegacyGroup]:
        groups: List[_LegacyGroup] = []
        current: Optional[_LegacyGroup] = None
        collecting = False
        for line in lines:
            if line.kind in (LineKind.BLANK, LineKind.COMMENT):
                if self.quirks.comment_breaks_group:
                    # The buggy parser treats any interruption as the end
                    # of the group header *and* of the group body.
                    current = None
                    collecting = False
                continue
            if line.kind is LineKind.CRAWL_DELAY:
                if self.quirks.crawl_delay_breaks_group:
                    current = None
                    collecting = False
                continue
            if line.kind in (LineKind.SITEMAP, LineKind.UNKNOWN_DIRECTIVE, LineKind.MALFORMED):
                continue
            if line.kind is LineKind.USER_AGENT:
                if self.quirks.last_agent_only:
                    # Every user-agent line starts a fresh single-agent
                    # group; earlier consecutive agents lose their rules.
                    current = _LegacyGroup(agents=[line.value])
                    groups.append(current)
                else:
                    if current is None or not collecting:
                        current = _LegacyGroup()
                        groups.append(current)
                    current.agents.append(line.value)
                collecting = True
                continue
            rule = shared_rule(line)
            if current is not None:
                current.rules.append(rule)
                collecting = False
        return groups

    def _match_agent(self, group_agent: str, token: str) -> bool:
        if group_agent == "*":
            return True
        if self.quirks.case_sensitive_agents:
            return token.startswith(group_agent)
        return token.lower().startswith(group_agent.lower())

    def rules_for(self, user_agent: str) -> Tuple[Rule, ...]:
        """Rules the legacy parser believes apply to *user_agent*
        (memoized per *user_agent*)."""
        cached = self._agent_rules.get(user_agent)
        if cached is None:
            cached = self._agent_rules[user_agent] = self._resolve(user_agent)
        return cached

    def _resolve(self, user_agent: str) -> Tuple[Rule, ...]:
        token = user_agent.split("/", 1)[0].strip()
        specific: List[Rule] = []
        wildcard: List[Rule] = []
        for group in self._groups:
            for agent in group.agents:
                if agent == "*":
                    wildcard.extend(group.rules)
                    break
                if self._match_agent(agent, token):
                    specific.extend(group.rules)
                    break
        return tuple(specific if specific else wildcard)

    def verdict(self, user_agent: str, path: str) -> Verdict:
        """Evaluate one fetch with the configured match discipline."""
        rules = self.rules_for(user_agent)
        if self.quirks.first_match:
            return first_match(rules, path)
        return evaluate(rules, path)

    def is_allowed(self, user_agent: str, path: str) -> bool:
        """Whether the legacy parser would permit the fetch."""
        return self.verdict(user_agent, path).allowed
