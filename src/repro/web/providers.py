"""Hosting providers for artist websites (Table 2).

Each provider is modeled with the affordances the paper measured by
registering accounts (Section 4.4):

* whether users can modify robots.txt (fully, via an AI toggle, via a
  search-engine toggle, or not at all),
* the provider's default robots.txt,
* provider-level active blocking (Weebly blocks ClaudeBot and
  Bytespider by UA; ArtStation and Carbonmade challenge all automated
  requests),
* whether customer sites are provider subdomains or custom domains
  pointing at provider infrastructure (the DNS-attribution signal),
* the Terms-of-Service stance on AI training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..agents.catalogs import CARBONMADE_DEFAULT_BLOCKED, SQUARESPACE_BLOCKED_AGENTS
from ..core.serialize import RobotsBuilder, add_disallow_group
from ..net.dns import ProviderInfra

__all__ = ["RobotsControl", "HostingProvider", "TOP_PROVIDERS", "provider_by_name"]


class RobotsControl:
    """How much robots.txt control a provider gives its users."""

    NONE = "none"
    FULL = "full"
    AI_TOGGLE = "ai-toggle"
    SE_TOGGLE = "se-toggle"


@dataclass(frozen=True)
class HostingProvider:
    """One hosting provider and its policy surface.

    Attributes:
        name: Provider name as in Table 2.
        share: Fraction of artist sites hosted here (Table 2 "% Sites").
        control: The robots.txt affordance exposed to users.
        se_toggle: Whether a search-engine-blocking option also exists
            (Table 2's SE superscript).
        default_blocked_agents: AI agents the *default* robots.txt
            disallows for every customer.
        toggle_blocked_agents: Agents added when a user enables the AI
            toggle (Squarespace's Appendix C.1 list).
        blocks_uas: User agents the provider actively blocks at the edge.
        challenges_automation: Whether all fingerprint-detected
            automation gets a captcha (ArtStation, Carbonmade).
        subdomain_hosting: Whether customer sites are subdomains of the
            provider apex rather than custom domains.
        tos_ai_stance: ToS position on AI training over user content.
        infra: DNS footprint for attribution.
    """

    name: str
    share: float
    control: str = RobotsControl.NONE
    se_toggle: bool = False
    default_blocked_agents: Tuple[str, ...] = ()
    toggle_blocked_agents: Tuple[str, ...] = ()
    blocks_uas: Tuple[str, ...] = ()
    challenges_automation: bool = False
    subdomain_hosting: bool = False
    tos_ai_stance: str = "silent"
    infra: Optional[ProviderInfra] = None

    def default_robots_txt(self, ai_toggle_on: bool = False) -> str:
        """The robots.txt the provider serves for a customer site.

        Args:
            ai_toggle_on: For AI-toggle providers, whether the customer
                enabled the AI-crawler blocking option.
        """
        builder = RobotsBuilder().comment(f"{self.name} managed robots.txt")
        builder.group("*").disallow("/account/", "/api/")
        text = builder.build()
        if self.default_blocked_agents:
            text = add_disallow_group(text, list(self.default_blocked_agents))
        if ai_toggle_on and self.control == RobotsControl.AI_TOGGLE:
            text = add_disallow_group(text, list(self.toggle_blocked_agents))
        return text


def _infra(name: str, octet: int, apex: Optional[str] = None) -> ProviderInfra:
    # The infra name must equal the provider name exactly: DNS
    # attribution reports infra names, and Table 2 assembly joins on
    # provider names.  The DNS label is a sanitized form.
    label = "".join(ch for ch in name.lower() if ch.isalnum())
    return ProviderInfra(
        name=name,
        apex_domains=(apex,) if apex else (),
        infra_domains=(f"ext-cust.{label}.com", f"proxy.{label}.net"),
        ip_networks=(f"198.18.{octet}.0/24",),
    )


#: The eight Table 2 providers.  Shares sum to ~65%; the remaining
#: artists use a long tail of small providers, self-hosting, and social
#: platforms (modeled as provider=None).
TOP_PROVIDERS: List[HostingProvider] = [
    HostingProvider(
        name="Squarespace",
        share=0.207,
        control=RobotsControl.AI_TOGGLE,
        se_toggle=True,
        toggle_blocked_agents=tuple(SQUARESPACE_BLOCKED_AGENTS),
        infra=_infra("Squarespace", 1),
    ),
    HostingProvider(
        name="Artstation",
        share=0.204,
        control=RobotsControl.NONE,
        challenges_automation=True,
        tos_ai_stance="no-ai-training",
        infra=_infra("Artstation", 2, apex="artstation.com"),
    ),
    HostingProvider(
        name="Wix (Paid)",
        share=0.093,
        control=RobotsControl.FULL,
        tos_ai_stance="service-improvement-training",
        infra=_infra("Wix (Paid)", 3),
    ),
    HostingProvider(
        name="Adobe Portfolio",
        share=0.048,
        control=RobotsControl.NONE,
        se_toggle=True,
        tos_ai_stance="no-ai-training",
        infra=_infra("Adobe Portfolio", 4),
    ),
    HostingProvider(
        name="Wix (Free)",
        share=0.035,
        control=RobotsControl.NONE,
        subdomain_hosting=True,
        tos_ai_stance="service-improvement-training",
        infra=_infra("Wix (Free)", 5, apex="wix.com"),
    ),
    HostingProvider(
        name="Weebly",
        share=0.031,
        control=RobotsControl.NONE,
        se_toggle=True,
        blocks_uas=("Claudebot", "Bytespider"),
        infra=_infra("Weebly", 6),
    ),
    HostingProvider(
        name="Shopify",
        share=0.017,
        control=RobotsControl.NONE,
        infra=_infra("Shopify", 7),
    ),
    HostingProvider(
        name="Carbonmade",
        share=0.015,
        control=RobotsControl.NONE,
        default_blocked_agents=tuple(CARBONMADE_DEFAULT_BLOCKED),
        challenges_automation=True,
        subdomain_hosting=True,
        tos_ai_stance="no-crawl-clause",
        infra=_infra("Carbonmade", 8, apex="carbonmade.com"),
    ),
]


def provider_by_name(name: str) -> HostingProvider:
    """Look up one of the Table 2 providers by name."""
    for provider in TOP_PROVIDERS:
        if provider.name.lower() == name.lower():
            return provider
    raise KeyError(f"unknown provider: {name}")
