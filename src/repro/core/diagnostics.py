"""Linting of robots.txt files.

Section 8.1 of the paper reports that roughly 1% of the studied sites
have mistakes in their robots.txt, citing paths that do not start with
``/`` and non-existent directives.  This module detects those mistake
classes (and several adjacent ones) so the reproduction can sweep a
population and report the error rate
(``benchmarks/bench_sec81_mistakes.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Union

from .compiled import shared_policy_cache
from .lexer import LineKind, canonical_directive

__all__ = ["Severity", "Finding", "lint", "has_mistakes"]

#: Extension directives that are widespread enough not to be flagged as
#: author mistakes, even though RFC 9309 does not define them.
_TOLERATED_EXTENSIONS = frozenset(
    {"sitemap", "site-map", "crawl-delay", "crawldelay", "host", "clean-param", "noindex", "request-rate", "visit-time"}
)


class Severity(enum.Enum):
    """How serious a lint finding is."""

    #: The file deviates from the RFC in a way a compliant parser
    #: silently tolerates (e.g. a tolerated extension directive).
    NOTE = "note"
    #: An author mistake that changes or risks changing interpretation.
    WARNING = "warning"
    #: A construct that compliant parsers must discard entirely.
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    Attributes:
        line_number: 1-based line the finding refers to (0 = whole file).
        severity: Finding severity.
        code: Stable machine-readable identifier.
        message: Human-readable explanation.
    """

    line_number: int
    severity: Severity
    code: str
    message: str


def lint(source: Union[str, bytes]) -> List[Finding]:
    """Lint robots.txt *source*, returning all findings in line order.

    Detected mistake classes:

    * ``path-missing-slash`` -- an allow/disallow value that is neither
      empty nor starts with ``/`` or a wildcard (the paper's canonical
      example of an author mistake).
    * ``unknown-directive`` -- a directive name the protocol does not
      define and that is not a tolerated extension.
    * ``missing-colon`` -- a line with no ``:`` separator.
    * ``rule-before-group`` -- allow/disallow before any user-agent line
      (discarded by compliant parsers).
    * ``empty-user-agent`` -- a ``User-agent:`` line with no value.
    * ``empty-file`` -- a file with no directives at all.
    * ``crawl-delay`` -- use of the deprecated non-standard extension.

    >>> [f.code for f in lint("User-agent: *\\nDisallow: secret/")]
    ['path-missing-slash']
    """
    findings: List[Finding] = []
    # The shared cache's parse: a body linted after it was classified
    # (sec81 after appb2) parses once.
    parsed = shared_policy_cache().policy(source).parsed

    any_directive = False
    for line in parsed.source_lines:
        if line.is_directive:
            any_directive = True
        if line.kind is LineKind.MALFORMED:
            findings.append(
                Finding(
                    line.number,
                    Severity.ERROR,
                    "missing-colon",
                    f"line has no ':' separator: {line.value!r}",
                )
            )
        elif line.kind in (LineKind.ALLOW, LineKind.DISALLOW):
            value = line.value
            if value and not value.startswith(("/", "*")):
                findings.append(
                    Finding(
                        line.number,
                        Severity.WARNING,
                        "path-missing-slash",
                        f"rule path does not start with '/': {value!r}",
                    )
                )
        elif line.kind is LineKind.USER_AGENT:
            if not line.value:
                findings.append(
                    Finding(
                        line.number,
                        Severity.WARNING,
                        "empty-user-agent",
                        "User-agent line has no value",
                    )
                )
        elif line.kind is LineKind.CRAWL_DELAY:
            findings.append(
                Finding(
                    line.number,
                    Severity.NOTE,
                    "crawl-delay",
                    "Crawl-delay is a non-standard extension ignored by "
                    "compliant parsers",
                )
            )
        elif line.kind is LineKind.UNKNOWN_DIRECTIVE:
            if canonical_directive(line.key) not in _TOLERATED_EXTENSIONS:
                findings.append(
                    Finding(
                        line.number,
                        Severity.WARNING,
                        "unknown-directive",
                        f"non-existent directive {line.key!r}",
                    )
                )

    for rule in parsed.orphan_rules:
        findings.append(
            Finding(
                rule.line_number,
                Severity.WARNING,
                "rule-before-group",
                "allow/disallow rule appears before any User-agent line "
                "and is ignored by compliant parsers",
            )
        )

    if not any_directive:
        findings.append(
            Finding(0, Severity.NOTE, "empty-file", "file contains no directives")
        )

    # Whole-file findings (line 0) sort after per-line findings.
    findings.sort(key=lambda f: (f.line_number == 0, f.line_number))
    return findings


def has_mistakes(source: Union[str, bytes]) -> bool:
    """Whether the file contains author mistakes (warning or error).

    This is the per-site predicate behind the paper's ~1% mistake rate;
    notes (tolerated extensions, empty files) do not count.
    """
    return any(
        f.severity in (Severity.WARNING, Severity.ERROR) for f in lint(source)
    )
