"""Crawler source-address allocation.

Table 1 records, per user agent, whether the operating company
*publishes* the IP ranges its crawler uses.  That bit matters twice in
the paper: sites can IP-block crawlers with published ranges (a form of
active blocking the UA-based detector cannot see, Section 6.1), and
Cloudflare validates "verified bots" by checking that a request claiming
a verified UA comes from the published range (Appendix C.2).

All addresses here are synthetic, drawn from documentation/test blocks,
but the *structure* -- one stable range per crawler, published or not --
matches reality.  Every crawler gets a range; ``published`` controls
whether the rest of the system is allowed to rely on it.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CrawlerRange", "CRAWLER_RANGES", "crawler_ip", "range_for", "ip_in_published_range"]


@dataclass(frozen=True)
class CrawlerRange:
    """The address block one crawler operates from.

    Attributes:
        token: Crawler user-agent token.
        network: CIDR block the crawler's requests originate from.
        published: Whether the operator documents this block publicly.
    """

    token: str
    network: str
    published: bool

    def contains(self, address: str) -> bool:
        """Whether *address* is inside this crawler's block."""
        try:
            return ipaddress.ip_address(address) in ipaddress.ip_network(self.network)
        except ValueError:
            return False

    def address(self) -> str:
        """The block's first host address."""
        return str(ipaddress.ip_network(self.network).network_address + 1)


#: One /24 per crawler out of 100.64.0.0/10 (CGNAT space -- guaranteed
#: not to collide with the TEST-NET blocks used for ordinary clients).
_RANGE_SPECS = [
    # (token, third_octet, published)
    ("Amazonbot", 1, True),
    ("AI2Bot", 2, False),
    ("anthropic-ai", 3, False),
    ("Applebot", 4, True),
    ("Bytespider", 5, False),
    ("CCBot", 6, True),
    ("ChatGPT-User", 7, True),
    ("Claude-Web", 8, False),
    ("ClaudeBot", 9, False),
    ("cohere-ai", 10, False),
    ("Diffbot", 11, False),
    ("FacebookBot", 12, True),
    ("GPTBot", 13, True),
    ("Kangaroo Bot", 14, False),
    ("Meta-ExternalAgent", 15, True),
    ("Meta-ExternalFetcher", 16, True),
    ("OAI-SearchBot", 17, True),
    ("omgili", 18, False),
    ("PerplexityBot", 19, False),
    ("Timpibot", 20, False),
    ("YouBot", 21, False),
    ("Googlebot", 22, True),
    ("Bingbot", 23, True),
    ("DuckAssistbot", 24, True),
    ("ICC Crawler", 25, True),
]

CRAWLER_RANGES: Dict[str, CrawlerRange] = {
    token.lower(): CrawlerRange(token, f"100.64.{octet}.0/24", published)
    for token, octet, published in _RANGE_SPECS
}


def range_for(token: str) -> Optional[CrawlerRange]:
    """The address block for crawler *token*, or None when unassigned."""
    return CRAWLER_RANGES.get(token.lower())


def crawler_ip(token: str) -> str:
    """A deterministic source IP for crawler *token*.

    Crawlers without an assigned block fall back to a shared scratch
    range so they still have stable, distinct addresses.
    """
    block = range_for(token)
    if block is not None:
        return block.address()
    digest = sum(ord(c) for c in token.lower()) % 250
    return f"100.127.{digest}.1"


def ip_in_published_range(token: str, address: str) -> bool:
    """Whether *address* is in the *published* range for *token*.

    Returns False when the crawler publishes no range -- verification is
    impossible, which is exactly why Cloudflare cannot verify e.g.
    ClaudeBot and why sites fall back to UA-based blocking for Anthropic
    (Section 6.1).
    """
    block = range_for(token)
    if block is None or not block.published:
        return False
    return block.contains(address)
