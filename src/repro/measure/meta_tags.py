"""Section 2.2's NoAI meta-tag scan.

DeviantArt's ``noai`` / ``noimageai`` meta tags are an HTML-level
content-control signal.  The paper checks the Tranco top 10k (October
2024) and finds only 17 sites with ``noai`` and 16 with ``noimageai``.
This module scans rendered homepages for the tags over HTTP.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Sequence

from ..agents.useragent import DEFAULT_BROWSER_UA
from ..net.errors import NetError
from ..net.http import Headers, Request
from ..net.transport import Network

__all__ = ["MetaTagScan", "extract_robots_meta", "scan_meta_tags"]

_META_RE = re.compile(
    r'<meta\s+name="robots"\s+content="([^"]*)"', re.IGNORECASE
)


def extract_robots_meta(html: str) -> List[str]:
    """Directives in ``<meta name="robots">`` tags, lowercased.

    >>> extract_robots_meta('<meta name="robots" content="noai, noimageai">')
    ['noai', 'noimageai']
    """
    directives: List[str] = []
    for content in _META_RE.findall(html):
        for part in content.split(","):
            part = part.strip().lower()
            if part:
                directives.append(part)
    return directives


@dataclass
class MetaTagScan:
    """Results of a NoAI tag sweep.

    Attributes:
        n_scanned: Sites whose homepage was retrieved.
        noai_hosts: Sites with a ``noai`` directive.
        noimageai_hosts: Sites with a ``noimageai`` directive.
        unreachable: Sites whose homepage could not be fetched.
    """

    n_scanned: int = 0
    noai_hosts: List[str] = field(default_factory=list)
    noimageai_hosts: List[str] = field(default_factory=list)
    unreachable: List[str] = field(default_factory=list)

    @property
    def n_noai(self) -> int:
        return len(self.noai_hosts)

    @property
    def n_noimageai(self) -> int:
        return len(self.noimageai_hosts)


def scan_meta_tags(network: Network, hosts: Sequence[str]) -> MetaTagScan:
    """Fetch each host's homepage as a browser and look for NoAI meta
    tags."""
    scan = MetaTagScan()
    for host in hosts:
        try:
            response = network.request(
                Request(
                    host=host,
                    path="/",
                    headers=Headers({"User-Agent": DEFAULT_BROWSER_UA}),
                )
            )
        except NetError:
            scan.unreachable.append(host)
            continue
        if response.status != 200:
            scan.unreachable.append(host)
            continue
        scan.n_scanned += 1
        directives = extract_robots_meta(response.text)
        if "noai" in directives:
            scan.noai_hosts.append(host)
        if "noimageai" in directives:
            scan.noimageai_hosts.append(host)
    return scan
