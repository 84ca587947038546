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
:class:`AiTxtPolicy` parses/queries, :func:`build_aitxt` renders the
per-media-category opt-in/out files the Spawning generator produces,
and :data:`MEDIA_EXTENSIONS` carries the category-to-extension mapping.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Union

from .matcher import Rule
from .parser import parse
from .policy import RobotsPolicy

__all__ = ["MediaCategory", "MEDIA_EXTENSIONS", "AiTxtPolicy", "build_aitxt", "category_for_path"]

AITXT_PATH = "/ai.txt"


class MediaCategory(enum.Enum):
    """Media classes ai.txt generators let owners opt in/out of."""

    TEXT = "text"
    IMAGES = "images"
    AUDIO = "audio"
    VIDEO = "video"
    CODE = "code"


#: File extensions per media category (the Spawning generator's set,
#: abridged to the common entries).
MEDIA_EXTENSIONS: Dict[MediaCategory, tuple] = {
    MediaCategory.TEXT: (".txt", ".html", ".htm", ".md", ".pdf", ".doc", ".docx"),
    MediaCategory.IMAGES: (".jpg", ".jpeg", ".png", ".gif", ".webp", ".svg", ".bmp"),
    MediaCategory.AUDIO: (".mp3", ".wav", ".flac", ".ogg", ".m4a"),
    MediaCategory.VIDEO: (".mp4", ".webm", ".avi", ".mov", ".mkv"),
    MediaCategory.CODE: (".js", ".py", ".css", ".json", ".xml"),
}


def category_for_path(path: str) -> Optional[MediaCategory]:
    """The media category a URL path falls into, by extension.

    >>> category_for_path("/gallery/piece.png")
    <MediaCategory.IMAGES: 'images'>
    >>> category_for_path("/about") is None
    True
    """
    low = path.split("?", 1)[0].lower()
    for category, extensions in MEDIA_EXTENSIONS.items():
        if low.endswith(extensions):
            return category
    return None


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

    def may_train(self, path: str, agent: str = "*") -> bool:
        """Whether content at *path* may be used for AI training."""
        return self._policy.verdict(agent, path).allowed

    @staticmethod
    def _normalize(rule: Rule) -> Rule:
        # ai.txt files commonly write bare extension patterns like
        # "*.jpg"; robots.txt matching needs them rooted at "/".
        path = rule.path
        if path.startswith("*"):
            path = "/" + path
        return Rule(allow=rule.allow, path=path, line_number=rule.line_number)

    def allowed_categories(self) -> Dict[MediaCategory, bool]:
        """Per-category training permission, probed by representative paths."""
        out: Dict[MediaCategory, bool] = {}
        for category, extensions in MEDIA_EXTENSIONS.items():
            probe = f"/content/sample{extensions[0]}"
            out[category] = self.may_train(probe)
        return out


def build_aitxt(
    allow: Optional[Mapping[MediaCategory, bool]] = None,
    default_allow: bool = False,
) -> str:
    """Render an ai.txt file in the generator style.

    Args:
        allow: Per-category permission; categories absent fall back to
            *default_allow*.
        default_allow: Whether unlisted content is opted in.

    >>> text = build_aitxt({MediaCategory.IMAGES: False}, default_allow=True)
    >>> AiTxtPolicy(text).may_train("/a.png")
    False
    >>> AiTxtPolicy(text).may_train("/a.txt")
    True
    """
    allow = dict(allow or {})
    lines = ["# ai.txt generated by repro (Spawning-style)", "User-Agent: *"]
    lines.append("Allow: /" if default_allow else "Disallow: /")
    for category in MediaCategory:
        permitted = allow.get(category, default_allow)
        if permitted == default_allow:
            continue
        directive = "Allow" if permitted else "Disallow"
        for extension in MEDIA_EXTENSIONS[category]:
            lines.append(f"{directive}: *{extension}")
    return "\n".join(lines) + "\n"
