"""Thematic coding of open-ended survey responses (Appendix D.3).

The paper's first author performed iterative open coding following
Braun & Clarke's thematic-analysis approach; the codebooks in Tables
9-12 are the result.  This module encodes those codebooks and provides
a deterministic keyword coder, so the synthetic open responses (which
are generated *from* theme templates) can be re-coded by the analysis
pipeline without circularity at the statistics level: the pipeline
counts whatever the coder finds in the text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "Theme",
    "Codebook",
    "ACTIONS_CODEBOOK",
    "NO_ADOPT_CODEBOOK",
    "ENABLE_CODEBOOK",
    "DISTRUST_CODEBOOK",
    "code_response",
]


@dataclass(frozen=True)
class Theme:
    """One codebook theme.

    Attributes:
        name: Theme label.
        description: What the theme captures.
        example: A representative quote (from the paper's tables).
        keywords: Lowercased trigger phrases for the keyword coder.
    """

    name: str
    description: str
    example: str
    keywords: Tuple[str, ...]


@dataclass(frozen=True)
class Codebook:
    """A named collection of themes."""

    name: str
    themes: Tuple[Theme, ...]


#: Table 9: other actions taken by artists in response to AI art.
ACTIONS_CODEBOOK = Codebook(
    "other-actions",
    (
        Theme("modify-post", "Artists alter the content or format of shared artwork",
              "Overlaying watermarks or art filters to modify the artwork",
              ("watermark", "filter", "lower resolution", "modify the artwork")),
        Theme("switch-platforms", "Artists migrate to alternative sites",
              "Use Cara instead of Instagram",
              ("cara", "instead of instagram", "switch", "migrate", "left the platform")),
        Theme("raise-awareness", "Artists publicly highlight issues",
              "Spreading awareness about the damage AI-generated art does",
              ("awareness", "speaking out", "educate")),
        Theme("unionize", "Artists organize collectively",
              "Connecting with groups of professional artists",
              ("union", "collective", "organize", "groups of professional artists")),
        Theme("change-career", "Artists pivot professionally",
              "I left school and am taking a gap year to reevaluate my life",
              ("gap year", "career", "left school", "quit")),
        Theme("misc", "Additional strategies",
              "Using block lists to block AI art accounts",
              ("block list", "blocklist")),
    ),
)

#: Table 10: why artists would not adopt robots.txt.
NO_ADOPT_CODEBOOK = Codebook(
    "no-adopt-reasons",
    (
        Theme("efficacy", "Concern about efficacy given the voluntary nature",
              "if the companies can ignore it why would they respect it",
              ("ignore it", "voluntary", "won't stop", "not respect", "efficacy",
               "does not fully stop")),
        Theme("usability", "Concern about complexity of use",
              "It sounds like something difficult to use",
              ("difficult to use", "complicated", "hard to", "usability")),
        Theme("more-information", "Wants more information first",
              "Not informed enough about it",
              ("more information", "not informed", "research it", "learn more")),
        Theme("no-personal-website", "No personal website",
              "I do not have a personal website",
              ("no personal website", "don't have a website", "do not have a personal")),
        Theme("search-results", "Worried about search discoverability",
              "If it hides things from search engines then how will people find my work?",
              ("search engine", "find my work", "discoverab", "seo")),
    ),
)

#: Table 11: why artists would enable a blocking mechanism.
ENABLE_CODEBOOK = Codebook(
    "enable-reasons",
    (
        Theme("protection", "Want to protect their work",
              "To protect my original concepts and visual brand",
              ("protect", "safeguard")),
        Theme("consent", "Did not consent to crawling",
              "I havent given AI companies permission to use my work",
              ("consent", "permission", "without asking")),
        Theme("compensation", "Not compensated while companies profit",
              "I do not want other companies to profit off of it without fair compensation",
              ("compensat", "profit", "paid")),
        Theme("useful-mechanism", "Sees the mechanism as useful/reassuring",
              "Adds a sense of security and ease of use.",
              ("sense of security", "ease of use", "useful", "reassur")),
        Theme("legal-benefit", "Potentially useful in legal cases",
              "will probably benefit in a possible lawsuit in the future",
              ("lawsuit", "legal", "court", "evidence")),
        Theme("misc", "Other reasons",
              "if it seems legitimate I'll do it on principle",
              ("on principle",)),
    ),
)

#: Table 12: why artists distrust AI companies to respect robots.txt.
DISTRUST_CODEBOOK = Codebook(
    "distrust-reasons",
    (
        Theme("track-record", "History of unauthorized/unethical operations",
              "AI companies have already used data without consent",
              ("track record", "already used data", "history", "without consent before")),
        Theme("profit", "Monetary interest in scraping",
              "Money before morals.",
              ("money", "monetary", "profit motive")),
        Theme("perception", "Negative perception of AI companies",
              "AI companies are morally bankrupt.",
              ("morally bankrupt", "greedy", "unethical", "evil")),
        Theme("loophole", "Will find loopholes or workarounds",
              "They might start loopholes to get around it",
              ("loophole", "workaround", "get around")),
        Theme("legal-enforcement", "Lack of legislation or enforcement",
              "They have to be forced to respect it by law",
              ("by law", "legislation", "enforce", "regulation")),
        Theme("voluntary-nature", "robots.txt is only a voluntary signal",
              "robots.txt is just a warning sign",
              ("warning sign", "polite notice", "just a request", "voluntary")),
        Theme("misc", "Other reasons",
              "a lot of companies will not respect and will do it anyway",
              ("do it anyway",)),
    ),
)


def code_response(text: str, codebook: Codebook) -> List[str]:
    """Code one open response against *codebook* (multi-label).

    Returns matched theme names in codebook order; an empty list when
    nothing matches (analysis treats those as uncoded).

    >>> code_response("Money before morals.", DISTRUST_CODEBOOK)
    ['profit']
    """
    low = text.lower()
    matched: List[str] = []
    for theme in codebook.themes:
        if any(keyword in low for keyword in theme.keywords):
            matched.append(theme.name)
    return matched
