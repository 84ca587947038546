"""Simulated DNS, as used for hosting-provider attribution.

Section 4.4 attributes artist websites to hosting providers via DNS: a
site is hosted on provider P when it is a subdomain of P's domain
(``example.carbonmade.com``) or when its DNS record points at P's
infrastructure (an A record in P's address space or a CNAME into P's
infra domain).  This module provides the zone storage, a resolver that
follows CNAME chains, and the attribution predicate.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["DnsZone", "Resolution", "ProviderInfra"]


@dataclass(frozen=True)
class Resolution:
    """Result of resolving one hostname.

    Attributes:
        host: The queried hostname.
        cname_chain: CNAME targets followed, in order (possibly empty).
        address: The terminal A record, or None when resolution failed.
    """

    host: str
    cname_chain: Tuple[str, ...]
    address: Optional[str]


@dataclass(frozen=True)
class ProviderInfra:
    """A hosting provider's DNS footprint.

    Attributes:
        name: Provider name (e.g. ``"Squarespace"``).
        apex_domains: Domains under which customer sites may live as
            subdomains (e.g. ``carbonmade.com`` for
            ``jane.carbonmade.com``).
        infra_domains: Domains CNAME targets land in (e.g.
            ``ext-cust.squarespace.com``).
        ip_networks: CIDR blocks for the provider's front-end A records.
    """

    name: str
    apex_domains: Tuple[str, ...] = ()
    infra_domains: Tuple[str, ...] = ()
    ip_networks: Tuple[str, ...] = ()

    def owns_subdomain(self, host: str) -> bool:
        """Whether *host* is a (proper) subdomain of an apex domain."""
        host = host.lower().rstrip(".")
        return any(
            host.endswith("." + apex.lower()) for apex in self.apex_domains
        )

    def owns_host(self, host: str) -> bool:
        """Whether *host* lies in an infra domain (or equals one)."""
        host = host.lower().rstrip(".")
        for domain in self.infra_domains:
            domain = domain.lower()
            if host == domain or host.endswith("." + domain):
                return True
        return False

    def owns_address(self, address: str) -> bool:
        """Whether *address* falls in the provider's CIDR blocks."""
        try:
            ip = ipaddress.ip_address(address)
        except ValueError:
            return False
        return any(
            ip in ipaddress.ip_network(block) for block in self.ip_networks
        )


class DnsZone:
    """A flat zone: A and CNAME records plus resolution and attribution.

    >>> zone = DnsZone()
    >>> zone.add_cname("art.example.com", "ext-cust.squarespace.com")
    >>> zone.add_a("ext-cust.squarespace.com", "198.185.159.145")
    >>> zone.resolve("art.example.com").address
    '198.185.159.145'
    """

    MAX_CHAIN = 8

    def __init__(self) -> None:
        self._a: Dict[str, str] = {}
        self._cname: Dict[str, str] = {}

    def add_a(self, host: str, address: str) -> None:
        """Add an A record (validates the address)."""
        ipaddress.ip_address(address)
        self._a[host.lower()] = address

    def add_cname(self, host: str, target: str) -> None:
        """Add a CNAME record."""
        self._cname[host.lower()] = target.lower()

    def remove(self, host: str) -> None:
        """Remove all records for *host*."""
        self._a.pop(host.lower(), None)
        self._cname.pop(host.lower(), None)

    def resolve(self, host: str) -> Resolution:
        """Resolve *host*, following up to :attr:`MAX_CHAIN` CNAMEs."""
        host = host.lower().rstrip(".")
        chain: List[str] = []
        current = host
        for _ in range(self.MAX_CHAIN):
            if current in self._cname:
                current = self._cname[current]
                chain.append(current)
                continue
            break
        return Resolution(
            host=host, cname_chain=tuple(chain), address=self._a.get(current)
        )

    def attribute(
        self, host: str, providers: Sequence[ProviderInfra]
    ) -> Optional[str]:
        """Which provider hosts *host*, per the Section 4.4 methodology.

        Checks, in order: subdomain of a provider apex; CNAME chain
        terminating in provider infra; terminal A record in a provider
        network.  Returns the provider name or None.
        """
        host = host.lower().rstrip(".")
        for provider in providers:
            if provider.owns_subdomain(host):
                return provider.name
        resolution = self.resolve(host)
        for provider in providers:
            for hop in resolution.cname_chain:
                if provider.owns_host(hop):
                    return provider.name
        if resolution.address is not None:
            for provider in providers:
                if provider.owns_address(resolution.address):
                    return provider.name
        return None
