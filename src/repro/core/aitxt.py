"""The ai.txt protocol (Spawning AI), Section 2.2.

ai.txt lets content owners express *AI-training* permissions per media
type.  Unlike robots.txt it is consulted when an AI model attempts to
**download media** -- at training-data assembly time rather than crawl
time -- which enables real-time opt-out even for previously collected
URLs.  Syntactically it reuses the robots.txt line format with
extension patterns::

    # ai.txt
    User-Agent: *
    Disallow: /
    Allow: /images/*.jpg
    Disallow: *.txt

This module implements the format on top of the robots.txt engine:
:class:`AiTxtPolicy` parses a file and answers training-permission
queries.
"""

from __future__ import annotations

from typing import Union

from .matcher import Rule
from .parser import parse
from .policy import RobotsPolicy

__all__ = ["AITXT_PATH", "AiTxtPolicy"]

AITXT_PATH = "/ai.txt"


class AiTxtPolicy:
    """Parsed ai.txt with training-permission queries.

    The underlying grammar is the robots.txt grammar; the semantic
    difference is the question being asked: *may this URL's content be
    used for AI training*, evaluated at media-download time.

    >>> policy = AiTxtPolicy("User-Agent: *\\nDisallow: /\\nAllow: *.jpg")
    >>> policy.may_train("/photos/cat.jpg")
    True
    >>> policy.may_train("/writing/essay.txt")
    False
    """

    def __init__(self, source: Union[str, bytes]):
        parsed = parse(source)
        # Re-root once, at parse: every query then evaluates the same
        # rules, each compiled on first use.
        for group in parsed.groups:
            group.rules = [self._normalize(rule) for rule in group.rules]
        self._policy = RobotsPolicy(parsed)

    def may_train(self, path: str) -> bool:
        """Whether content at *path* may be used for AI training."""
        return self._policy.verdict("*", path).allowed

    @staticmethod
    def _normalize(rule: Rule) -> Rule:
        # ai.txt files commonly write bare extension patterns like
        # "*.jpg"; robots.txt matching needs them rooted at "/".
        path = rule.path
        if path.startswith("*"):
            path = "/" + path
        return Rule(allow=rule.allow, path=path, line_number=rule.line_number)
