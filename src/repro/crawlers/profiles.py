"""Crawler behavior profiles: how a bot treats robots.txt.

Section 5's central finding is that compliance is a *behavioral*
property per crawler: most large AI data crawlers fetch and obey
robots.txt, Bytespider fetches it and ignores it, and most third-party
assistant crawlers never fetch it at all.  One third-party crawler had
"a bug in its implementation that caused it to incorrectly fetch the
robots.txt file", and one "did not fetch the robots.txt file most of
the time".  :class:`RobotsBehavior` enumerates these observed modes and
:class:`CrawlerProfile` binds a user agent to one of them.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..agents.ipranges import crawler_ip

__all__ = ["RobotsBehavior", "CrawlerProfile"]


class RobotsBehavior(enum.Enum):
    """How a crawler treats robots.txt."""

    #: Fetch robots.txt before crawling and obey its directives.
    FETCH_AND_OBEY = "fetch-and-obey"
    #: Fetch robots.txt (it shows in server logs) but ignore the rules.
    #: This is Bytespider's observed behavior.
    FETCH_AND_IGNORE = "fetch-and-ignore"
    #: Never fetch robots.txt; crawl regardless.  20 of 23 third-party
    #: assistant crawlers behave this way.
    NO_FETCH = "no-fetch"
    #: Request a wrong path (e.g. ``/robots.txt/`` or ``//robots.txt``)
    #: and then crawl as if no policy existed.
    BUGGY_FETCH = "buggy-fetch"
    #: Fetch robots.txt only every Nth visit; obey it when fetched.
    INTERMITTENT_FETCH = "intermittent-fetch"

    @property
    def obeys(self) -> bool:
        """Whether the crawler honors directives when it has them."""
        return self in (
            RobotsBehavior.FETCH_AND_OBEY,
            RobotsBehavior.INTERMITTENT_FETCH,
        )


@dataclass
class CrawlerProfile:
    """Identity and behavior of one crawler.

    Attributes:
        token: Product token used in robots.txt group matching.
        user_agent: Full User-Agent header sent with requests.
        behavior: robots.txt treatment.
        source_ip: Address requests originate from; defaults to the
            crawler's assigned range.
        robots_cache_ttl: How long (simulation seconds) a fetched
            robots.txt is cached.  Large values model the crawlers that
            "may cache robots.txt and continue to fetch content even
            after it has changed" (Section 8.2).
        intermittent_period: For INTERMITTENT_FETCH, robots.txt is
            fetched on every Nth crawl only.
        buggy_robots_path: The wrong path a BUGGY_FETCH crawler requests.
        visits_unprompted: Whether the crawler shows up on its own in a
            passive measurement (vs. only when user-triggered).
    """

    token: str
    user_agent: str
    behavior: RobotsBehavior = RobotsBehavior.FETCH_AND_OBEY
    source_ip: str = ""
    robots_cache_ttl: float = 0.0
    intermittent_period: int = 5
    buggy_robots_path: str = "/robots.txt/"
    visits_unprompted: bool = True
    #: Whether the crawler honors the non-standard Crawl-delay
    #: extension (Bing-style).  RFC-compliant crawlers ignore it.
    honors_crawl_delay: bool = False
    #: Seconds between content fetches when no Crawl-delay applies.
    default_fetch_interval: float = 0.0
    # -- adversarial (anti-detection) knobs ---------------------------------
    #: User-Agent strings rotated round-robin per request (empty: always
    #: ``user_agent``).  Defeats UA-list rules; a behavioral layer sees
    #: the rotation itself as churn.
    ua_pool: Tuple[str, ...] = ()
    #: Source addresses rotated round-robin per request (empty: always
    #: ``source_ip``).  Defeats per-IP limits and verified-bot checks.
    ip_pool: Tuple[str, ...] = ()
    #: Max extra milliseconds of seeded jitter added to each politeness
    #: gap, so inter-request timing is not a perfectly regular beacon.
    stealth_gap_jitter_ms: int = 0
    #: Salt for the jitter (sha256 of seed|token|host|index -- no RNG,
    #: so stealth crawls replay byte-identically).
    stealth_seed: int = 0
    #: Charge politeness gaps (interval + jitter) to the simulated
    #: network clock, so server-side inter-arrival timing actually
    #: shows the pacing -- that clock charge *is* the evasion cost.
    paces_on_clock: bool = False

    def __post_init__(self) -> None:
        if not self.source_ip:
            self.source_ip = crawler_ip(self.token)

    # -- per-request identity (round-robin over the pools) ------------------

    def user_agent_for(self, index: int) -> str:
        """The User-Agent for the crawl's *index*-th request."""
        if not self.ua_pool:
            return self.user_agent
        return self.ua_pool[index % len(self.ua_pool)]

    def source_ip_for(self, index: int) -> str:
        """The source address for the crawl's *index*-th request."""
        if not self.ip_pool:
            return self.source_ip
        return self.ip_pool[index % len(self.ip_pool)]

    def gap_jitter_seconds(self, host: str, index: int) -> float:
        """Seeded jitter (seconds) added to the *index*-th pacing gap."""
        if self.stealth_gap_jitter_ms <= 0:
            return 0.0
        digest = hashlib.sha256(
            f"{self.stealth_seed}|{self.token}|{host}|{index}".encode("utf-8")
        ).hexdigest()
        return (int(digest[:8], 16) % (self.stealth_gap_jitter_ms + 1)) / 1000.0

    @classmethod
    def respectful(cls, token: str, **kwargs) -> "CrawlerProfile":
        """A compliant crawler profile."""
        return cls(
            token=token,
            user_agent=f"{token}/1.0",
            behavior=RobotsBehavior.FETCH_AND_OBEY,
            **kwargs,
        )

    @classmethod
    def defiant(cls, token: str, user_agent: Optional[str] = None, **kwargs) -> "CrawlerProfile":
        """A crawler that fetches robots.txt but ignores it."""
        return cls(
            token=token,
            user_agent=user_agent or f"{token}/1.0",
            behavior=RobotsBehavior.FETCH_AND_IGNORE,
            **kwargs,
        )

    @classmethod
    def oblivious(cls, token: str, **kwargs) -> "CrawlerProfile":
        """A crawler that never looks at robots.txt."""
        return cls(
            token=token,
            user_agent=f"{token}/1.0",
            behavior=RobotsBehavior.NO_FETCH,
            **kwargs,
        )

    @classmethod
    def stealth(
        cls, token: str, fetch_interval: float = 1.0, seed: int = 0, **kwargs
    ) -> "CrawlerProfile":
        """A paced scraper built to slip past behavioral scoring.

        Fetches robots.txt (so server logs show discipline) but ignores
        its rules, keeps one consistent User-Agent, and spaces content
        fetches by *fetch_interval* plus up to 400 ms of seeded jitter
        charged to the simulated clock -- trading crawl time for a
        human-shaped traffic fingerprint.  Combine with
        ``ua_pool``/``ip_pool`` via *kwargs* to measure how rotation
        changes the equilibrium.
        """
        return cls(
            token=token,
            user_agent=f"{token}/1.0",
            behavior=RobotsBehavior.FETCH_AND_IGNORE,
            default_fetch_interval=fetch_interval,
            stealth_gap_jitter_ms=400,
            stealth_seed=seed,
            paces_on_clock=True,
            **kwargs,
        )
