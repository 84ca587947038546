"""Common-Crawl-style snapshotting of robots.txt across a population.

The longitudinal analysis (Section 3) consumes, per snapshot and per
site, either the robots.txt content or the fact that the crawl errored
(e.g. an actively-blocking site returning 403 to the CC user agent).
This module reproduces that data-collection layer:

* the fifteen snapshot specifications of Table 3 (Appendix B.1),
* a snapshot crawler that visits each site once per snapshot, re-visits
  the sites whose fetch errored, and does **not** follow redirects (CC's
  behavior; the analysis layer applies the "www."-variant fallback
  instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..net import chaos
from ..net.errors import NetError
from ..net.http import Headers, Request
from ..net.transport import Network

__all__ = [
    "SnapshotSpec",
    "SiteRecord",
    "Snapshot",
    "SnapshotCrawler",
    "SNAPSHOT_SPECS",
]

#: CCBot's real user agent string.
CCBOT_UA = "CCBot/2.0 (https://commoncrawl.org/faq/)"

#: Months are encoded as an integer index: October 2022 is month 0,
#: November 2022 is month 1, ..., October 2024 is month 24.
MONTH0 = "2022-10"


def month_label(index: int) -> str:
    """Human-readable ``YYYY-MM`` for a month index (Oct 2022 = 0).

    >>> month_label(0)
    '2022-10'
    >>> month_label(14)
    '2023-12'
    """
    year = 2022 + (9 + index) // 12
    month = (9 + index) % 12 + 1
    return f"{year}-{month:02d}"


@dataclass(frozen=True)
class SnapshotSpec:
    """One Common Crawl snapshot (a Table 3 row).

    Attributes:
        snapshot_id: CC-style identifier, e.g. ``"2023-40"``.
        label: The months covered, e.g. ``"Nov/Dec 2023"``.
        month_index: The *most recent* month covered, as an index from
            October 2022; Figure 2 plots snapshots at this month.
    """

    snapshot_id: str
    label: str
    month_index: int


#: The fifteen snapshots of Table 3.  Month indices place each snapshot
#: at the most recent month it covers (the paper's plotting convention).
SNAPSHOT_SPECS = [
    SnapshotSpec("2022-05", "Sep/Oct 2022", 0),
    SnapshotSpec("2022-21", "Nov/Dec 2022", 2),
    SnapshotSpec("2022-40", "Jan/Feb 2023", 4),
    SnapshotSpec("2023-06", "Mar/Apr 2023", 6),
    SnapshotSpec("2023-14", "May/Jun 2023", 8),
    SnapshotSpec("2023-23", "Sep/Oct 2023", 12),
    SnapshotSpec("2023-40", "Nov/Dec 2023", 14),
    SnapshotSpec("2023-50", "Feb/Mar 2024", 17),
    SnapshotSpec("2024-10", "Apr 2024", 18),
    SnapshotSpec("2024-18", "May 2024", 19),
    SnapshotSpec("2024-22", "Jun 2024", 20),
    SnapshotSpec("2024-26", "Jul 2024", 21),
    SnapshotSpec("2024-33", "Aug 2024", 22),
    SnapshotSpec("2024-38", "Sep 2024", 23),
    SnapshotSpec("2024-42", "Oct 2024", 24),
]


@dataclass(frozen=True)
class SiteRecord:
    """The snapshot's record for one site.

    Attributes:
        domain: The site queried.
        status: Final HTTP status (0 on transport error).
        robots_txt: Content when status is 200, else None.
        error: Transport error text, if any.
    """

    domain: str
    status: int
    robots_txt: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether a robots.txt was successfully retrieved."""
        return self.status == 200 and self.robots_txt is not None

    @property
    def missing(self) -> bool:
        """Whether the site affirmatively has no robots.txt (404)."""
        return self.status == 404


@dataclass
class Snapshot:
    """One spec's crawl: a record per site the crawler fetched."""

    spec: SnapshotSpec
    records: Dict[str, SiteRecord] = field(default_factory=dict)


#: Passes over the still-errored sites after a snapshot's first pass.
RETRY_PASSES = 2


class SnapshotCrawler:
    """Crawl robots.txt for a site list, Common Crawl style.

    The crawler identifies as CCBot, fetches each site once, and never
    follows redirects.

    After the first pass, up to :data:`RETRY_PASSES` more passes
    re-visit only the sites whose fetch errored -- transient transport
    failures (the bulk of CC's per-site errors, Appendix B.1) heal
    instead of knocking sites out of the longitudinal analysis set.
    The passes cost nothing on a clean crawl and are disabled globally
    by :func:`repro.net.chaos.retries_disabled`.
    """

    def __init__(self, network: Network):
        self.network = network

    def crawl_site(self, domain: str) -> SiteRecord:
        """Fetch one site's robots.txt."""
        request = Request(
            host=domain,
            path="/robots.txt",
            headers=Headers({"User-Agent": CCBOT_UA}),
            client_ip="100.64.6.14",
        )
        try:
            response = self.network.request(request)
        except NetError as exc:
            return SiteRecord(domain=domain, status=0, error=str(exc))
        if response.status == 200:
            return SiteRecord(domain=domain, status=200, robots_txt=response.text)
        return SiteRecord(domain=domain, status=response.status)

    def snapshot(self, spec: SnapshotSpec, domains: Iterable[str]) -> Snapshot:
        """Crawl *domains*, heal transient errors, assemble a snapshot.

        Builds the first pass, then (retries enabled) makes up to
        :data:`RETRY_PASSES` passes over the still-errored sites.
        """
        snap = Snapshot(spec=spec)
        for domain in domains:
            snap.records[domain] = self.crawl_site(domain)
        errored = [d for d, r in snap.records.items() if r.error is not None]
        if errored and chaos.retries_enabled():
            for _ in range(RETRY_PASSES):
                if not errored:
                    break
                still: List[str] = []
                for domain in errored:
                    # The retry outcome replaces the errored record
                    # either way: healed, or the latest failure mode.
                    record = self.crawl_site(domain)
                    snap.records[domain] = record
                    if record.error is not None:
                        still.append(domain)
                errored = still
        return snap
