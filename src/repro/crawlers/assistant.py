"""GPT apps and third-party AI assistant crawlers.

Section 5.1's active measurement enumerates the top 5k GPT apps, asks
each to fetch a controlled URL, observes which backend crawler made the
request, and merges crawlers that share an IP address or registered
domain -- yielding 23 distinct third-party assistant crawlers.  Of
those (Section 5.2.2): one fetched and respected robots.txt, one had a
buggy robots.txt fetch, one fetched it only some of the time, and the
remaining twenty never fetched it.

This module builds that world: third-party services with domains, IP
pools, and behavior profiles; a synthetic app store where browsing-
capable apps are backed by those services; and the trigger mechanism
the measurement uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..net.transport import Network
from .engine import Crawler, CrawlResult
from .profiles import CrawlerProfile, RobotsBehavior

__all__ = [
    "ThirdPartyService",
    "GptApp",
    "GptAppStore",
    "build_third_party_services",
    "build_app_store",
]

_SERVICE_NAMES = [
    "mixerbox", "webpilot", "linkreader", "browserop", "scholarly",
    "aaronchat", "pagepeek", "fetchwise", "siteglance", "quicklook",
    "webweaver", "readerly", "summarly", "surfacer", "deeplink",
    "pagesense", "crawlmate", "linklens", "webscholar", "contentscout",
    "infodiver", "sitewhisper", "webharvest",
]

#: Fraction of apps that can retrieve Web content.
BROWSE_FRACTION = 0.3

#: Of the browsing apps, the fraction that use the built-in
#: ChatGPT-User crawler rather than a third party.
BUILTIN_FRACTION = 0.4


@dataclass
class ThirdPartyService:
    """One third-party browsing backend used by GPT apps.

    Attributes:
        name: Service name (also its registered domain's label).
        domains: Registered domains the service operates under; apps
            backed by the same service contact one of these.
        ip_pool: Source addresses its crawler uses.
        crawler: The executable crawler for this service.
    """

    name: str
    domains: List[str]
    ip_pool: List[str]
    crawler: Crawler

    @property
    def registered_domain(self) -> str:
        """The service's primary registered domain."""
        return self.domains[0]


@dataclass
class GptApp:
    """One app in the GPT store.

    Attributes:
        name: App display name.
        can_browse: Whether the app can retrieve Web content.
        service: The backing third-party service (None for non-browsing
            apps and apps using the built-in ChatGPT-User crawler).
        uses_builtin: Whether browsing goes through the built-in
            ChatGPT-User crawler instead of a third party.
    """

    name: str
    can_browse: bool
    service: Optional[ThirdPartyService] = None
    uses_builtin: bool = False

    def trigger_fetch(self, host: str, path: str = "/") -> Optional[CrawlResult]:
        """Ask the app to fetch a URL; returns None when it cannot browse."""
        if not self.can_browse or self.service is None:
            return None
        return self.service.crawler.fetch(host, path)


def build_third_party_services(network: Network, seed: int = 7) -> List[ThirdPartyService]:
    """Build the 23 third-party assistant crawler services, one per name.

    The behavior mix matches Section 5.2.2 exactly: index 0 respects
    robots.txt, index 1 has the buggy fetcher, index 2 fetches
    intermittently, and the rest never fetch robots.txt.
    """
    rng = random.Random(seed)
    services: List[ThirdPartyService] = []
    for index, name in enumerate(_SERVICE_NAMES):
        if index == 0:
            behavior = RobotsBehavior.FETCH_AND_OBEY
        elif index == 1:
            behavior = RobotsBehavior.BUGGY_FETCH
        elif index == 2:
            behavior = RobotsBehavior.INTERMITTENT_FETCH
        else:
            behavior = RobotsBehavior.NO_FETCH
        ip_pool = [f"100.96.{index}.{host}" for host in (10, 11, 12)]
        # Third-party assistant crawlers rarely send distinctive UAs;
        # model a mix of branded and library user agents.
        if rng.random() < 0.5:
            user_agent = f"Mozilla/5.0 (compatible; {name}-bot/1.0; +https://{name}.com/bot)"
        else:
            user_agent = rng.choice(
                ["python-requests/2.31.0", "axios/1.6.2", "Go-http-client/2.0"]
            )
        profile = CrawlerProfile(
            token=f"{name}-bot",
            user_agent=user_agent,
            behavior=behavior,
            source_ip=ip_pool[0],
            intermittent_period=3,
        )
        services.append(
            ThirdPartyService(
                name=name,
                domains=[f"{name}.com"],
                ip_pool=ip_pool,
                crawler=Crawler(profile, network),
            )
        )
    return services


@dataclass
class GptAppStore:
    """The synthetic GPT app store.

    Attributes:
        apps: All apps, in popularity order.
        services: The distinct third-party services backing them.
    """

    apps: List[GptApp] = field(default_factory=list)
    services: List[ThirdPartyService] = field(default_factory=list)

    def browsing_apps(self) -> List[GptApp]:
        """Apps that can retrieve Web content via a third party."""
        return [a for a in self.apps if a.can_browse and a.service is not None]


def build_app_store(network: Network, seed: int = 7, n_apps: int = 5000) -> GptAppStore:
    """Build a store of *n_apps* apps over the third-party services.

    A :data:`BROWSE_FRACTION` of apps can retrieve Web content, and a
    :data:`BUILTIN_FRACTION` of those use the built-in ChatGPT-User
    crawler rather than a third party.  Multiple apps share each backing
    service, which is what makes the measurement's merge-by-domain-or-IP
    step (Section 5.1) necessary and meaningful.
    """
    rng = random.Random(seed)
    service_list = build_third_party_services(network, seed=seed)
    apps: List[GptApp] = []
    for index in range(n_apps):
        name = f"gpt-app-{index:04d}"
        if rng.random() >= BROWSE_FRACTION:
            apps.append(GptApp(name=name, can_browse=False))
            continue
        if rng.random() < BUILTIN_FRACTION:
            apps.append(GptApp(name=name, can_browse=True, uses_builtin=True))
            continue
        service = rng.choice(service_list)
        apps.append(GptApp(name=name, can_browse=True, service=service))
    return GptAppStore(apps=apps, services=service_list)
