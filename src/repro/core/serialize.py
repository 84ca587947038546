"""Programmatic construction of robots.txt files.

The synthetic web population (:mod:`repro.web`) needs to *author*
robots.txt files, not just read them: hosting-provider defaults,
operator edits that add or remove AI-crawler groups over time, and the
paper's own testbed files (Section 5.1).  :class:`RobotsBuilder`
produces well-formed text, and the edit helpers perform the surgical
changes the longitudinal model needs (add a disallow group for an
agent, remove every rule mentioning an agent, append an explicit
allow) while leaving the rest of the file byte-for-byte intact -- the
same property observed in the wild for e.g. Future PLC's GPTBot
removals (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from .lexer import LineKind, tokenize

__all__ = [
    "RobotsBuilder",
    "add_disallow_group",
    "add_allow_group",
    "remove_agent_rules",
    "agents_mentioned",
]


@dataclass
class _BuilderGroup:
    agents: List[str]
    rules: List[Tuple[str, str]]  # (directive, value)


@dataclass
class RobotsBuilder:
    """Fluent builder for robots.txt files.

    >>> text = (
    ...     RobotsBuilder()
    ...     .group("GPTBot", "CCBot")
    ...     .disallow("/")
    ...     .build()
    ... )
    >>> print(text)
    User-agent: GPTBot
    User-agent: CCBot
    Disallow: /
    <BLANKLINE>
    """

    _groups: List[_BuilderGroup] = field(default_factory=list)
    _sitemaps: List[str] = field(default_factory=list)
    _header_comments: List[str] = field(default_factory=list)

    def comment(self, text: str) -> "RobotsBuilder":
        """Add a header comment line (rendered before all groups)."""
        self._header_comments.append(text)
        return self

    def group(self, *agents: str) -> "RobotsBuilder":
        """Start a new group for *agents*; subsequent rules attach to it."""
        if not agents:
            raise ValueError("a group needs at least one user agent")
        self._groups.append(_BuilderGroup(list(agents), []))
        return self

    def _current(self) -> _BuilderGroup:
        if not self._groups:
            raise ValueError("add a group() before rules")
        return self._groups[-1]

    def disallow(self, *paths: str) -> "RobotsBuilder":
        """Add ``Disallow`` rules to the current group."""
        for path in paths:
            self._current().rules.append(("Disallow", path))
        return self

    def allow(self, *paths: str) -> "RobotsBuilder":
        """Add ``Allow`` rules to the current group."""
        for path in paths:
            self._current().rules.append(("Allow", path))
        return self

    def crawl_delay(self, seconds: float) -> "RobotsBuilder":
        """Add a non-standard ``Crawl-delay`` to the current group."""
        value = int(seconds) if float(seconds).is_integer() else seconds
        self._current().rules.append(("Crawl-delay", str(value)))
        return self

    def sitemap(self, url: str) -> "RobotsBuilder":
        """Declare a sitemap URL (rendered after all groups)."""
        self._sitemaps.append(url)
        return self

    def build(self) -> str:
        """Render the file as text (trailing newline included)."""
        chunks: List[str] = []
        for comment in self._header_comments:
            chunks.append(f"# {comment}")
        if self._header_comments:
            chunks.append("")
        for group in self._groups:
            for agent in group.agents:
                chunks.append(f"User-agent: {agent}")
            for directive, value in group.rules:
                chunks.append(f"{directive}: {value}")
            chunks.append("")
        for url in self._sitemaps:
            chunks.append(f"Sitemap: {url}")
        if self._sitemaps:
            chunks.append("")
        return "\n".join(chunks)


def _ensure_trailing_newline(text: str) -> str:
    if text and not text.endswith("\n"):
        return text + "\n"
    return text


def add_disallow_group(
    robots_txt: str, agents: Sequence[str], paths: Sequence[str] = ("/",)
) -> str:
    """Append a group disallowing *paths* for *agents*.

    The existing file content is preserved verbatim; the new group is
    appended at the end, which is how site operators (and managed
    robots.txt services) typically add AI-crawler restrictions.
    """
    text = _ensure_trailing_newline(robots_txt)
    lines = [text]
    if text and not text.endswith("\n\n"):
        lines.append("\n")
    for agent in agents:
        lines.append(f"User-agent: {agent}\n")
    for path in paths:
        lines.append(f"Disallow: {path}\n")
    return "".join(lines)


def add_allow_group(robots_txt: str, agents: Sequence[str]) -> str:
    """Append a group explicitly allowing *agents* everywhere."""
    text = _ensure_trailing_newline(robots_txt)
    lines = [text]
    if text and not text.endswith("\n\n"):
        lines.append("\n")
    for agent in agents:
        lines.append(f"User-agent: {agent}\n")
    lines.append("Allow: /\n")
    return "".join(lines)


def remove_agent_rules(robots_txt: str, agents: Iterable[str]) -> str:
    """Remove every rule that applies to *agents*, preserving the rest.

    The transformation works on the token stream: groups whose agent
    list becomes empty are dropped wholesale (header and rules); groups
    that also name other agents keep their rules and lose only the
    matching ``User-agent`` lines.  This models the surgical removals
    observed after data-licensing deals (Section 3.3), where "the rest
    of the robots.txt file remained unchanged".
    """
    targets = {a.lower() for a in agents}
    lines = robots_txt.splitlines()
    tokens = tokenize(robots_txt)
    drop: set = set()

    # Walk group by group, mirroring the RFC grouping discipline.
    index = 0
    total = len(tokens)
    while index < total:
        line = tokens[index]
        if line.kind is not LineKind.USER_AGENT:
            index += 1
            continue
        header = [line]
        cursor = index + 1
        while cursor < total and tokens[cursor].kind in (
            LineKind.USER_AGENT,
            LineKind.BLANK,
            LineKind.COMMENT,
            LineKind.UNKNOWN_DIRECTIVE,
            LineKind.CRAWL_DELAY,
        ):
            if tokens[cursor].kind is LineKind.USER_AGENT:
                header.append(tokens[cursor])
            cursor += 1
        body_start = cursor
        while cursor < total and tokens[cursor].kind in (
            LineKind.ALLOW,
            LineKind.DISALLOW,
            LineKind.CRAWL_DELAY,
            LineKind.BLANK,
            LineKind.COMMENT,
        ):
            if tokens[cursor].kind is LineKind.USER_AGENT:
                break
            cursor = cursor + 1
            # Stop extending past the body once a new group starts.
            if cursor < total and tokens[cursor].kind is LineKind.USER_AGENT:
                break
        body_end = cursor

        matching = [ln for ln in header if ln.value.lower() in targets]
        if matching:
            if len(matching) == len(header):
                # Entire group is targeted: drop header and body rules.
                for ln in header:
                    drop.add(ln.number)
                for pos in range(body_start, body_end):
                    if tokens[pos].kind in (
                        LineKind.ALLOW,
                        LineKind.DISALLOW,
                        LineKind.CRAWL_DELAY,
                    ):
                        drop.add(tokens[pos].number)
            else:
                for ln in matching:
                    drop.add(ln.number)
        index = max(body_end, index + 1)

    kept = [
        text for number, text in enumerate(lines, start=1) if number not in drop
    ]
    # Collapse runs of blank lines left behind by dropped groups.
    out: List[str] = []
    for text in kept:
        if text.strip() == "" and out and out[-1].strip() == "":
            continue
        out.append(text)
    result = "\n".join(out).strip("\n")
    return result + "\n" if result else ""


#: How many distinct bodies :func:`agents_mentioned` remembers.  A cold
#: battery's world build asks about a few hundred distinct bodies.
AGENTS_MEMO_SIZE = 1024


@lru_cache(maxsize=AGENTS_MEMO_SIZE)
def agents_mentioned(robots_txt: str) -> Tuple[str, ...]:
    """Agent tokens named in any ``User-agent`` line, lowercased, in order.

    Memoized per body text for the :data:`AGENTS_MEMO_SIZE` most recent
    distinct bodies (the world build asks about each body several
    times); the tuple is shared, so callers cannot mutate it.
    """
    seen: List[str] = []
    for line in tokenize(robots_txt):
        if line.kind is LineKind.USER_AGENT and line.value:
            token = line.value.lower()
            if token not in seen:
                seen.append(token)
    return tuple(seen)
