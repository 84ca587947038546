"""Path matching for robots.txt rules per RFC 9309 section 2.2.3.

Rule paths may contain two metacharacters:

* ``*`` matches any sequence of characters (including none), and
* ``$`` at the end of the pattern anchors the match to the end of the
  request path.

Matching is performed against the percent-decoded-then-re-encoded form
of both pattern and path so that equivalent encodings compare equal
(``/a%3Cd.html`` and ``/a<d.html`` must match each other).

Rule precedence follows the "longest match" rule used by Google's
open-source parser: the applicable rule is the one whose pattern is the
longest, and when an allow and a disallow rule tie in length, the allow
rule wins (least-restrictive tie break).

Every evaluator reads :attr:`Rule.pattern`, the rule's pattern compiled
once on first use, so a query normalizes only the request path, and
:func:`normalize_path` remembers recent paths, so a repeated probe path
normalizes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

from ..util import computed_once

__all__ = [
    "Rule",
    "CompiledPattern",
    "compile_pattern",
    "normalize_path",
    "evaluate",
    "Verdict",
]

#: Characters that stay verbatim when paths are re-encoded.  This mirrors
#: the set that mainstream parsers leave untouched: RFC 3986 unreserved
#: plus sub-delims plus the path/query structural characters.
_SAFE = "/~!$&'()*+,;=:@%-._"

#: How many distinct paths :func:`normalize_path` remembers.  A cold
#: battery normalizes a few hundred distinct patterns and request paths;
#: the bound only caps what a crawl of many distinct URLs can pin.
NORMALIZE_MEMO_SIZE = 1024


@lru_cache(maxsize=NORMALIZE_MEMO_SIZE)
def normalize_path(path: str) -> str:
    """Return a canonical percent-encoded form of *path*.

    The path is percent-decoded and re-encoded with a fixed safe set so
    that two spellings of the same path compare equal.  An empty path is
    normalized to ``/`` as required by the RFC.  Memoized for the
    :data:`NORMALIZE_MEMO_SIZE` most recent distinct paths, so every
    query of one probe path after the first is a dict probe.

    >>> normalize_path("/a%3cd.html")
    '/a%3Cd.html'
    >>> normalize_path("")
    '/'
    """
    if not path:
        return "/"
    return quote(unquote(path), safe=_SAFE)


@dataclass(frozen=True)
class Rule:
    """A single allow/disallow rule attached to a group.

    Attributes:
        allow: True for ``Allow``, False for ``Disallow``.
        path: The raw pattern as written in the file.
        line_number: Source line, for diagnostics (0 when synthetic).
    """

    allow: bool
    path: str
    line_number: int = 0

    @property
    def is_empty(self) -> bool:
        """An empty pattern matches nothing; ``Disallow:`` means allow all."""
        return self.path == ""

    @computed_once
    def pattern(self) -> Optional[CompiledPattern]:
        """The compiled pattern (None when empty), built on first use.

        Cached on the instance, so a rule normalizes its pattern at most
        once however many queries evaluate it.  Not a field: equality
        and hashing stay on ``(allow, path, line_number)``.
        """
        return compile_pattern(self.path)


class CompiledPattern(NamedTuple):
    """A rule pattern normalized and decomposed once, at compile time.

    Attributes:
        priority: Length of the full normalized pattern (including a
            trailing ``$``); longer patterns are more specific, as in
            the byte-length priority of Google's matcher.
        anchored: Whether the pattern ended with ``$``.
        pieces: The normalized pattern (sans ``$``) split on ``*``; a
            single-element tuple means the pattern has no wildcards.
    """

    priority: int
    anchored: bool
    pieces: Tuple[str, ...]

    def matches(self, path: str) -> bool:
        """Whether this pattern matches an already-normalized *path*.

        Callers must pass the output of :func:`normalize_path`; skipping
        re-normalization per query is the point of compiling.
        """
        pieces = self.pieces
        if len(pieces) == 1:
            if self.anchored:
                return path == pieces[0]
            return path.startswith(pieces[0])

        # Greedy segment scan: the first piece must be a prefix, the
        # last piece (when anchored) must be a suffix, and intermediate
        # pieces must appear in order.
        if not path.startswith(pieces[0]):
            return False
        pos = len(pieces[0])
        last = pieces[-1]
        for piece in pieces[1:-1]:
            if piece == "":
                continue
            found = path.find(piece, pos)
            if found == -1:
                return False
            pos = found + len(piece)
        if self.anchored:
            return path.endswith(last) and len(path) - len(last) >= pos
        if last == "":
            return True
        return path.find(last, pos) != -1


def compile_pattern(pattern: str) -> Optional[CompiledPattern]:
    """Normalize *pattern* once and precompute its match structure.

    Returns None for the empty pattern, which matches nothing (per RFC
    an empty ``Disallow`` value imposes no restriction).
    """
    if pattern == "":
        return None
    normalized = normalize_path(pattern)
    priority = len(normalized)
    anchored = normalized.endswith("$")
    if anchored:
        normalized = normalized[:-1]
    return CompiledPattern(
        priority=priority, anchored=anchored, pieces=tuple(normalized.split("*"))
    )


@dataclass(frozen=True)
class Verdict:
    """Outcome of evaluating a path against a rule set.

    Attributes:
        allowed: Final decision.
        rule: The winning rule, or None when no rule matched.
    """

    allowed: bool
    rule: Optional[Rule] = None


def evaluate(rules: Iterable[Rule], path: str) -> Verdict:
    """Evaluate *path* against *rules* using longest-match precedence.

    Returns an allow verdict when no rule matches (the protocol default)
    and applies the allow-wins tie break for equal-priority matches.
    """
    path = normalize_path(path)
    best: Optional[Tuple[int, Rule]] = None
    for rule in rules:
        pattern = rule.pattern
        if pattern is None or not pattern.matches(path):
            continue
        priority = pattern.priority
        if best is None:
            best = (priority, rule)
            continue
        best_priority, best_rule = best
        if priority > best_priority:
            best = (priority, rule)
        elif priority == best_priority and rule.allow and not best_rule.allow:
            best = (priority, rule)
    if best is None:
        return Verdict(allowed=True, rule=None)
    return Verdict(allowed=best[1].allow, rule=best[1])


def first_match(rules: Sequence[Rule], path: str) -> Verdict:
    """Evaluate using pre-RFC "first matching rule wins" semantics.

    The original 1994 robots.txt draft specified first-match evaluation;
    some home-grown parsers still implement it.  Exposed so the legacy
    parser and the ablation benchmarks can compare the two disciplines.
    """
    path = normalize_path(path)
    for rule in rules:
        pattern = rule.pattern
        if pattern is not None and pattern.matches(path):
            return Verdict(allowed=rule.allow, rule=rule)
    return Verdict(allowed=True, rule=None)
