"""The artist-website population (Section 4.4).

Builds the 1,182 artist personal sites collected from the Concept Art
Association and Animation Union directories: each site is assigned a
hosting provider per Table 2's shares (with a long tail of small
providers, self-hosting, and social platforms), a robots.txt determined
by the provider's policy surface, DNS records matching the provider's
hosting style, and the provider's edge blocking behavior.

The key empirical inputs reproduced here:

* 17% of Squarespace artists enabled the AI-crawler toggle,
* zero Wix (Paid) artists edited their fully editable robots.txt,
* Carbonmade's default robots.txt blocks GPTBot and CCBot for everyone,
* Weebly UA-blocks ClaudeBot and Bytespider at the edge,
* ArtStation and Carbonmade challenge all automated requests.
"""

from __future__ import annotations

import random

from ..util import seeded_rng
from dataclasses import dataclass
from typing import List, Optional

from ..net.dns import DnsZone
from ..net.server import Website, render_page
from ..net.transport import Handler, Network
from ..proxy.reverse_proxy import ReverseProxy
from ..proxy.rules import Action, BlockRule, RuleSet
from .domains import artist_domain
from .providers import TOP_PROVIDERS, HostingProvider, RobotsControl

__all__ = ["ArtistSite", "ArtistPopulation", "build_artist_population"]

#: Long-tail buckets for artists not on a Table 2 provider.
_LONG_TAIL = ["small-provider", "self-hosted", "social-platform"]

#: Fraction of Squarespace artists who enabled the AI toggle.
SQUARESPACE_TOGGLE_RATE = 0.17

#: Artist sites in the two member directories.
N_ARTISTS = 1182


@dataclass
class ArtistSite:
    """One artist's personal website.

    Attributes:
        index: Position in the member directory.
        host: The site's hostname (custom domain or provider subdomain).
        provider: The Table 2 provider, or None for the long tail.
        tail_kind: Long-tail bucket when provider is None.
        ai_toggle_on: For AI-toggle providers, whether the artist
            enabled AI-crawler blocking.
        robots_txt: The robots.txt the site serves (None = absent).
    """

    index: int
    host: str
    provider: Optional[HostingProvider]
    tail_kind: Optional[str] = None
    ai_toggle_on: bool = False
    robots_txt: Optional[str] = None

    def build_handler(self) -> Handler:
        """Materialize the site (with provider edge behavior) for serving."""
        origin = Website(self.host)
        origin.add_page(
            "/",
            render_page(
                f"Portfolio of artist {self.index}",
                paragraphs=["Original artwork."],
                links=["/gallery"],
                images=["/img/piece1.png"],
            ),
        )
        origin.add_page("/gallery", render_page("Gallery", images=["/img/piece2.png"]))
        origin.set_robots_txt(self.robots_txt)
        if self.provider is None:
            return origin
        rules = RuleSet()
        if self.provider.blocks_uas:
            rules.add(
                BlockRule(
                    Action.BLOCK,
                    ua_patterns=list(self.provider.blocks_uas),
                    label=f"{self.provider.name}-edge",
                )
            )
        if self.provider.blocks_uas or self.provider.challenges_automation:
            return ReverseProxy(
                origin,
                rules,
                service_name=self.provider.name,
                block_all_automation=self.provider.challenges_automation,
            )
        return origin


@dataclass
class ArtistPopulation:
    """All artist sites plus the DNS zone used for attribution."""

    sites: List[ArtistSite]
    zone: DnsZone

    def materialize(self, network: Network) -> None:
        """Register every artist site's handler on *network*."""
        for site in self.sites:
            network.register(site.build_handler(), host=site.host)


def _assign_provider(rng: random.Random) -> Optional[HostingProvider]:
    roll = rng.random()
    acc = 0.0
    for provider in TOP_PROVIDERS:
        acc += provider.share
        if roll < acc:
            return provider
    return None


def build_artist_population(seed: int = 42) -> ArtistPopulation:
    """Build the :data:`N_ARTISTS` artist sites with DNS records.

    Subdomain-hosting providers put the artist under the provider apex;
    the rest give the artist a custom domain whose DNS points at the
    provider (CNAME into infra, or an A record in the provider's
    range).  Long-tail sites resolve to unaffiliated addresses.
    """
    rng = seeded_rng(seed, "artists")
    zone = DnsZone()
    sites: List[ArtistSite] = []
    for index in range(N_ARTISTS):
        provider = _assign_provider(rng)
        custom = artist_domain(index)
        if provider is None:
            tail_kind = rng.choice(_LONG_TAIL)
            host = custom
            zone.add_a(host, f"203.0.113.{1 + index % 250}")
            robots = None if rng.random() < 0.5 else (
                "User-agent: *\nDisallow: /admin/\n"
            )
            sites.append(
                ArtistSite(
                    index=index,
                    host=host,
                    provider=None,
                    tail_kind=tail_kind,
                    robots_txt=robots,
                )
            )
            continue

        toggle_on = (
            provider.control == RobotsControl.AI_TOGGLE
            and rng.random() < SQUARESPACE_TOGGLE_RATE
        )
        if provider.subdomain_hosting:
            apex = provider.infra.apex_domains[0]
            host = f"{custom.split('.')[0]}.{apex}"
        else:
            host = custom
            infra_host = provider.infra.infra_domains[0]
            if rng.random() < 0.6:
                zone.add_cname(host, infra_host)
                zone.add_a(infra_host, provider.infra.ip_networks[0].split("/")[0].rsplit(".", 1)[0] + ".10")
            else:
                network_base = provider.infra.ip_networks[0].split("/")[0].rsplit(".", 1)[0]
                zone.add_a(host, f"{network_base}.{20 + index % 200}")

        sites.append(
            ArtistSite(
                index=index,
                host=host,
                provider=provider,
                ai_toggle_on=toggle_on,
                robots_txt=provider.default_robots_txt(ai_toggle_on=toggle_on),
            )
        )
    return ArtistPopulation(sites=sites, zone=zone)
