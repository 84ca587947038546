"""Section 4.4: the artist-website measurement study.

Given the artist population, this pipeline performs the paper's steps
over the network (not by peeking at the generator's attributes):

1. attribute each site to a hosting provider via DNS (subdomain of the
   provider apex, or A/CNAME into provider infrastructure),
2. fetch each site's robots.txt and classify whether it disallows any
   of the Table 1 AI crawlers,
3. probe provider edge behavior (UA blocking, automation challenges),
4. assemble Table 2: provider share, edit affordances, % disallowing
   AI crawlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..net.dns import ProviderInfra
from ..net.errors import NetError
from ..net.http import Headers, Request
from ..net.transport import Network
from ..web.artists import ArtistPopulation
from ..web.providers import TOP_PROVIDERS, HostingProvider, RobotsControl
from .cache import PolicyCache

__all__ = ["ProviderRow", "ArtistStudy", "measure_artist_sites", "edit_option_label"]


def edit_option_label(provider: HostingProvider) -> str:
    """Table 2's "Edit?" cell for a provider (e.g. ``"No [AI,SE]"``)."""
    if provider.control == RobotsControl.FULL:
        return "Yes"
    marks = []
    if provider.control == RobotsControl.AI_TOGGLE:
        marks.append("AI")
    if provider.se_toggle:
        marks.append("SE")
    suffix = f" [{','.join(marks)}]" if marks else ""
    return f"No{suffix}"


@dataclass
class ProviderRow:
    """One Table 2 row, as measured.

    Attributes:
        provider: Provider name.
        n_sites: Artist sites attributed to the provider.
        pct_sites: Share of all artist sites (percent).
        edit_option: The robots.txt affordance label.
        n_disallow_ai: Attributed sites whose robots.txt disallows at
            least one Table 1 AI crawler.
        pct_disallow_ai: Percentage of attributed sites doing so.
        blocks_uas: AI user agents the provider edge actively blocks
            (probed, not configured).
        challenges_automation: Whether automated requests get challenged.
        tos_ai_stance: The provider's Terms-of-Service position on AI
            training over user content (Section 4.4's ToS review).
    """

    provider: str
    n_sites: int
    pct_sites: float
    edit_option: str
    n_disallow_ai: int
    pct_disallow_ai: float
    blocks_uas: List[str] = field(default_factory=list)
    challenges_automation: bool = False
    tos_ai_stance: str = "silent"


@dataclass
class ArtistStudy:
    """Full output of the artist measurement."""

    rows: List[ProviderRow]
    n_artists: int
    n_unattributed: int

    def row(self, provider: str) -> ProviderRow:
        """The row for *provider* (KeyError when absent)."""
        for row in self.rows:
            if row.provider == provider:
                return row
        raise KeyError(provider)


def _site_disallows_ai(network: Network, host: str, cache: PolicyCache) -> bool:
    """Fetch robots.txt over HTTP and classify against the 24 agents.

    The fetch presents as a regular browser: providers that challenge
    automated requests (ArtStation, Carbonmade) still serve robots.txt
    to ordinary visitors, and the study needs to read it there.
    """
    from ..agents.useragent import DEFAULT_BROWSER_UA

    try:
        response = network.request(
            Request(
                host=host,
                path="/robots.txt",
                headers=Headers({"User-Agent": DEFAULT_BROWSER_UA}),
            )
        )
    except NetError:
        return False
    if response.status != 200:
        return False
    return cache.row(response.text).disallows_any(AI_USER_AGENT_TOKENS)


def _probe_edge_blocking(network: Network, host: str) -> List[str]:
    """Which Table 1 crawler UAs the site's edge blocks outright."""
    blocked: List[str] = []
    for token in ("Claudebot", "Bytespider", "GPTBot"):
        try:
            response = network.request(
                Request(host=host, path="/", headers=Headers({"User-Agent": token}))
            )
        except NetError:
            blocked.append(token)
            continue
        if response.status == 403:
            blocked.append(token)
    return blocked


def _probe_automation_challenge(network: Network, host: str) -> bool:
    from ..proxy.challenges import PageKind, classify_page
    from ..proxy.fingerprint import AUTOMATION_HEADER

    try:
        response = network.request(
            Request(
                host=host,
                path="/",
                headers=Headers(
                    {
                        "User-Agent": "Mozilla/5.0 (X11; Linux x86_64) Chrome/129 Safari/537.36",
                        AUTOMATION_HEADER: "webdriver",
                    }
                ),
            )
        )
    except NetError:
        return False
    return classify_page(response.text) in (PageKind.CAPTCHA, PageKind.CHALLENGE)


def measure_artist_sites(population: ArtistPopulation) -> ArtistStudy:
    """Run the full Section 4.4 measurement and assemble Table 2."""
    network = Network()
    population.materialize(network)

    infra: List[ProviderInfra] = [p.infra for p in TOP_PROVIDERS if p.infra]
    by_provider: Dict[str, List[str]] = {p.name: [] for p in TOP_PROVIDERS}
    unattributed = 0
    for site in population.sites:
        name = population.zone.attribute(site.host, infra)
        if name is None:
            unattributed += 1
            continue
        # ProviderInfra names match HostingProvider names.
        by_provider.setdefault(name, []).append(site.host)

    total = len(population.sites)
    rows: List[ProviderRow] = []
    # One verdict row per distinct body answers every site serving it.
    cache = PolicyCache()
    for provider in TOP_PROVIDERS:
        hosts = by_provider.get(provider.name, [])
        n_disallow = sum(
            1 for host in hosts if _site_disallows_ai(network, host, cache)
        )
        sample_host = hosts[0] if hosts else None
        blocks = _probe_edge_blocking(network, sample_host) if sample_host else []
        challenges = (
            _probe_automation_challenge(network, sample_host) if sample_host else False
        )
        rows.append(
            ProviderRow(
                provider=provider.name,
                n_sites=len(hosts),
                pct_sites=100.0 * len(hosts) / total if total else 0.0,
                edit_option=edit_option_label(provider),
                n_disallow_ai=n_disallow,
                pct_disallow_ai=100.0 * n_disallow / len(hosts) if hosts else 0.0,
                blocks_uas=blocks,
                challenges_automation=challenges,
                tos_ai_stance=provider.tos_ai_stance,
            )
        )
    rows.sort(key=lambda r: -r.pct_sites)
    return ArtistStudy(rows=rows, n_artists=total, n_unattributed=unattributed)
