"""RFC 9309-compliant robots.txt parsing.

This module turns the token stream produced by :mod:`repro.core.lexer`
into :class:`Group` records, faithfully implementing the grouping rules
that Appendix B.2 of the paper identifies as the decisive difference
between compliant and home-grown parsers:

* **Case 1** -- comments and blank lines between a ``User-agent`` line and
  its rules are ignored; the rules still attach to the group.
* **Case 2** -- consecutive ``User-agent`` lines form a single group whose
  rules apply to every listed agent.
* **Case 3** -- unsupported directives (e.g. the non-standard
  ``Crawl-delay``) are treated as if the line were blank, which can merge
  ``User-agent`` lines across them into one group.

The parser also records extension directives (sitemaps, crawl delays)
and everything it had to ignore, so that :mod:`repro.core.diagnostics`
can lint files without re-parsing.

Like the lexer's lines, rules are shared: while any parse holds a
:class:`Rule`, every rule line with the same kind, path and line number
gets that one object (:func:`shared_rule`, a weak-valued table), so its
pattern compiles once for every body and every parser that holds it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .lexer import Line, LineKind, tokenize
from .matcher import Rule

__all__ = ["Group", "ParsedRobots", "parse", "shared_rule"]

#: Product tokens are matched case-insensitively per RFC 9309.
WILDCARD_AGENT = "*"

#: Every live :class:`Rule` a parse built, keyed by its fields.
_RULES: "weakref.WeakValueDictionary[Tuple[bool, str, int], Rule]" = (
    weakref.WeakValueDictionary()
)


def shared_rule(line: Line) -> Rule:
    """The one live :class:`Rule` for an ``Allow`` or ``Disallow`` *line*."""
    key = (line.kind is LineKind.ALLOW, line.value, line.number)
    rule = _RULES.get(key)
    if rule is None:
        rule = _RULES[key] = Rule(*key)
    return rule


@dataclass
class Group:
    """One RFC 9309 group: a set of user agents and their rules.

    Attributes:
        agents: User-agent values as written (original case preserved;
            matching is done case-insensitively elsewhere).
        rules: Allow/disallow rules in file order.
        crawl_delays: Crawl-delay values seen inside this group, in file
            order.  RFC-compliant evaluation ignores these, but they are
            retained because real crawlers (e.g. Bing) honor them and the
            legacy parser needs them.
        start_line: Line number of the first user-agent line.
    """

    agents: List[str] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    crawl_delays: List[float] = field(default_factory=list)
    start_line: int = 0

    def agent_tokens(self) -> List[str]:
        """Lowercased agent product tokens for matching."""
        return [agent.lower() for agent in self.agents]

    @property
    def is_wildcard(self) -> bool:
        """Whether this group applies to all crawlers via ``*``."""
        return WILDCARD_AGENT in self.agents


@dataclass
class ParsedRobots:
    """The structured form of one robots.txt file.

    Attributes:
        groups: Groups in file order.
        sitemaps: Sitemap URLs (non-group records, file order).
        orphan_rules: Rules that appeared before any user-agent line.
            RFC 9309 requires these to be ignored during evaluation.
        unknown_directives: ``(line_number, key, value)`` for directives
            the parser does not understand.
        malformed_lines: Lines with no ``:`` separator.
        source_lines: The full token stream, for diagnostics.
    """

    groups: List[Group] = field(default_factory=list)
    sitemaps: List[str] = field(default_factory=list)
    orphan_rules: List[Rule] = field(default_factory=list)
    unknown_directives: List[Tuple[int, str, str]] = field(default_factory=list)
    malformed_lines: List[Line] = field(default_factory=list)
    source_lines: List[Line] = field(default_factory=list)

    def wildcard_groups(self) -> List[Group]:
        """All ``User-agent: *`` groups."""
        return [g for g in self.groups if g.is_wildcard]

    def named_agents(self) -> List[str]:
        """Every distinct agent token named anywhere, lowercased, in order."""
        seen: Dict[str, None] = {}
        for group in self.groups:
            for token in group.agent_tokens():
                seen.setdefault(token, None)
        return list(seen)


def _parse_crawl_delay(value: str) -> Optional[float]:
    try:
        delay = float(value)
    except ValueError:
        return None
    if delay < 0:
        return None
    return delay


def parse(source: Union[str, bytes]) -> ParsedRobots:
    """Parse robots.txt *source* into a :class:`ParsedRobots`.

    The grammar is applied exactly as RFC 9309 specifies; in particular,
    a ``User-agent`` line that follows rules starts a *new* group, while
    a ``User-agent`` line that follows only other user-agent lines (with
    any number of ignorable lines in between) extends the current group.

    >>> parsed = parse("User-agent: GPTBot\\nUser-agent: CCBot\\nDisallow: /")
    >>> parsed.groups[0].agents
    ['GPTBot', 'CCBot']
    """
    lines = tokenize(source)
    result = ParsedRobots(source_lines=lines)
    current: Optional[Group] = None
    # True while the most recent meaningful directive was a user-agent
    # line, i.e. further user-agent lines extend the current group.
    collecting_agents = False

    for line in lines:
        if line.kind in (LineKind.BLANK, LineKind.COMMENT):
            # Ignorable lines never terminate agent collection (Case 1).
            continue

        if line.kind is LineKind.MALFORMED:
            result.malformed_lines.append(line)
            continue

        if line.kind is LineKind.SITEMAP:
            # Sitemap is a non-group record: it neither starts nor ends a
            # group and may appear anywhere in the file.
            if line.value:
                result.sitemaps.append(line.value)
            continue

        if line.kind is LineKind.UNKNOWN_DIRECTIVE:
            # Unknown directives are skipped entirely (Case 3): they do
            # not terminate agent collection and do not attach rules.
            result.unknown_directives.append((line.number, line.key, line.value))
            continue

        if line.kind is LineKind.CRAWL_DELAY:
            # Crawl-delay is a known *extension*: a compliant parser
            # evaluates as if the line were blank, but we retain the
            # value for the crawlers that honor it.
            delay = _parse_crawl_delay(line.value)
            if current is not None and delay is not None:
                current.crawl_delays.append(delay)
            continue

        if line.kind is LineKind.USER_AGENT:
            if current is None or not collecting_agents:
                current = Group(start_line=line.number)
                result.groups.append(current)
                collecting_agents = True
            current.agents.append(line.value)
            continue

        # Allow / Disallow rule lines.
        rule = shared_rule(line)
        if current is None:
            result.orphan_rules.append(rule)
        else:
            current.rules.append(rule)
            collecting_agents = False

    return result
