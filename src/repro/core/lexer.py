"""Line-level tokenization of robots.txt files.

The Robots Exclusion Protocol (RFC 9309) is a line-oriented format.  This
module turns raw robots.txt bytes or text into a sequence of
:class:`Line` records that the parser consumes.  Keeping lexing separate
from parsing lets the diagnostics module (`repro.core.diagnostics`)
report problems with exact line numbers, and lets the deliberately buggy
legacy parser (`repro.core.legacy`) share the same low-level scan while
diverging in interpretation.

The lexer is forgiving by design: *every* input line produces exactly one
:class:`Line`, even malformed ones.  Classification into directive
kinds happens here; deciding what a directive *means* is the parser's
job.

Lines are shared: while any token stream holds a :class:`Line`, every
body with the same text on the same line number gets that one object
(a weak-valued table keyed by ``(number, raw)``), so the thousands of
bodies a policy cache keeps hold one object per distinct line, and a
stream nothing keeps leaves nothing behind.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import List, Tuple, Union

__all__ = [
    "LineKind",
    "Line",
    "tokenize",
    "KNOWN_DIRECTIVES",
    "canonical_directive",
]


class LineKind(enum.Enum):
    """The syntactic category of a single robots.txt line."""

    BLANK = "blank"
    COMMENT = "comment"
    USER_AGENT = "user-agent"
    ALLOW = "allow"
    DISALLOW = "disallow"
    SITEMAP = "sitemap"
    CRAWL_DELAY = "crawl-delay"
    UNKNOWN_DIRECTIVE = "unknown-directive"
    MALFORMED = "malformed"


#: Directive spellings (lowercased) the lexer recognizes, mapped to the
#: :class:`LineKind` they produce.  Common misspellings seen in the wild
#: ("useragent", "user agent") are accepted the same way Google's parser
#: accepts them, because real robots.txt files contain them.
KNOWN_DIRECTIVES = {
    "user-agent": LineKind.USER_AGENT,
    "useragent": LineKind.USER_AGENT,
    "user agent": LineKind.USER_AGENT,
    "allow": LineKind.ALLOW,
    "disallow": LineKind.DISALLOW,
    "dissallow": LineKind.DISALLOW,
    "disallaw": LineKind.DISALLOW,
    "sitemap": LineKind.SITEMAP,
    "site-map": LineKind.SITEMAP,
    "crawl-delay": LineKind.CRAWL_DELAY,
    "crawldelay": LineKind.CRAWL_DELAY,
}

#: Directives that RFC 9309 itself defines.  Anything else -- even if the
#: lexer maps it onto a kind for convenience -- is an extension.
RFC_DIRECTIVES = frozenset({"user-agent", "allow", "disallow"})


@dataclass(frozen=True)
class Line:
    """One physical line of a robots.txt file.

    Attributes:
        number: 1-based physical line number.
        kind: Syntactic category.
        key: The directive name as written (original case, stripped), or
            ``""`` for blank/comment/malformed lines.
        value: The directive value with surrounding whitespace and any
            trailing comment removed, or the full text for malformed
            lines and the comment body for comment lines.
        raw: The original line, without the newline.
    """

    number: int
    kind: LineKind
    key: str
    value: str
    raw: str

    @property
    def is_directive(self) -> bool:
        """Whether this line carries any directive at all."""
        return self.kind not in (LineKind.BLANK, LineKind.COMMENT, LineKind.MALFORMED)


def canonical_directive(key: str) -> str:
    """Return the canonical spelling for a directive key, lowercased.

    >>> canonical_directive("UserAgent")
    'useragent'
    """
    return key.strip().lower()


def _strip_bom(text: str) -> str:
    # UTF-8 BOM appears at the start of a surprising number of real
    # robots.txt files; RFC 9309 says to ignore it.
    if text.startswith("﻿"):
        return text[1:]
    return text


def _split_comment(line: str) -> str:
    """Drop an inline ``#`` comment from a line, returning the content."""
    idx = line.find("#")
    if idx == -1:
        return line
    return line[:idx]


#: Every live :class:`Line`, keyed by ``(number, raw)``.
_LINES: "weakref.WeakValueDictionary[Tuple[int, str], Line]" = (
    weakref.WeakValueDictionary()
)


def tokenize(source: Union[str, bytes]) -> List[Line]:
    """Tokenize robots.txt text into a list of :class:`Line` records.

    Bytes input is decoded as UTF-8 with replacement, matching the
    lenient decoding used by production parsers.  All universal newline
    conventions are handled.

    >>> [ln.kind.value for ln in tokenize("User-agent: *\\nDisallow: /")]
    ['user-agent', 'disallow']
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    source = _strip_bom(source)
    lines = []
    for number, raw in enumerate(source.splitlines(), start=1):
        line = _LINES.get((number, raw))
        if line is None:
            line = _LINES[number, raw] = _lex(number, raw)
        lines.append(line)
    return lines


def _lex(number: int, raw: str) -> Line:
    stripped = raw.strip()
    if not stripped:
        return Line(number, LineKind.BLANK, "", "", raw)
    if stripped.startswith("#"):
        return Line(number, LineKind.COMMENT, "", stripped[1:].strip(), raw)
    content = _split_comment(raw).strip()
    if not content:
        # The line was nothing but an inline comment.
        return Line(number, LineKind.COMMENT, "", stripped.lstrip("#").strip(), raw)
    key, sep, value = content.partition(":")
    if not sep:
        return Line(number, LineKind.MALFORMED, "", content, raw)
    key = key.strip()
    value = value.strip()
    kind = KNOWN_DIRECTIVES.get(canonical_directive(key), LineKind.UNKNOWN_DIRECTIVE)
    return Line(number, kind, key, value, raw)
