"""Deterministic domain-name generation for the synthetic web.

Every site in the simulated populations needs a stable, unique,
realistic-looking domain.  Generation is purely positional: domain *i*
is always the same string, so experiments are reproducible and site
attributes can be derived from the domain alone.
"""

from __future__ import annotations

from typing import List

__all__ = ["domain_name", "domain_names", "artist_domain"]

_WORDS_A = [
    "daily", "global", "prime", "urban", "north", "bright", "swift",
    "blue", "clear", "open", "true", "fresh", "grand", "metro", "civic",
    "solar", "lunar", "rapid", "vivid", "noble", "arc", "peak", "core",
    "pulse", "nova", "echo", "terra", "astra", "delta", "vertex",
]

_WORDS_B = [
    "news", "review", "market", "journal", "times", "post", "wire",
    "digest", "report", "gazette", "store", "shop", "tech", "media",
    "hub", "base", "works", "labs", "forge", "press", "board", "index",
    "guide", "atlas", "vault", "point", "line", "stream", "field",
    "craft",
]

_TLDS = [".com", ".net", ".org", ".io", ".co", ".info", ".biz", ".us"]

_FIRST_NAMES = [
    "ava", "ben", "cora", "dane", "elle", "finn", "gia", "hugo", "iris",
    "jude", "kira", "liam", "mara", "nico", "orla", "pax", "quinn",
    "rhea", "sage", "theo", "uma", "vera", "wren", "xavi", "yara", "zane",
]

_LAST_NAMES = [
    "abbott", "blake", "carver", "duarte", "ellis", "flores", "grant",
    "hale", "ibarra", "jensen", "keller", "lane", "moreau", "nakata",
    "ortega", "pryce", "reyes", "sato", "torres", "ueda", "vance",
    "walsh", "xu", "yates", "zhou",
]


def domain_name(index: int) -> str:
    """The domain for site *index* (stable across runs).

    >>> domain_name(0)
    'dailynews.com'
    >>> domain_name(0) == domain_name(0)
    True
    """
    a = _WORDS_A[index % len(_WORDS_A)]
    b = _WORDS_B[(index // len(_WORDS_A)) % len(_WORDS_B)]
    tld = _TLDS[(index // (len(_WORDS_A) * len(_WORDS_B))) % len(_TLDS)]
    serial = index // (len(_WORDS_A) * len(_WORDS_B) * len(_TLDS))
    suffix = str(serial) if serial else ""
    return f"{a}{b}{suffix}{tld}"


def domain_names(count: int) -> List[str]:
    """The first *count* domains."""
    return [domain_name(i) for i in range(count)]


def artist_domain(index: int) -> str:
    """A personal-site domain for artist *index*.

    >>> artist_domain(0)
    'avaabbottart.com'
    """
    first = _FIRST_NAMES[index % len(_FIRST_NAMES)]
    last = _LAST_NAMES[(index // len(_FIRST_NAMES)) % len(_LAST_NAMES)]
    serial = index // (len(_FIRST_NAMES) * len(_LAST_NAMES))
    suffix = str(serial) if serial else ""
    return f"{first}{last}{suffix}art.com"
