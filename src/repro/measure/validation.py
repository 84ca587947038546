"""Cross-validation of snapshot data (Section 3.1's validation step).

The paper validated Common Crawl's robots.txt records two ways: against
the temporally closest Internet Archive capture (no disagreements) and
against its own fresh crawl of the top sites (<1% disagreement,
attributed to sites changing robots.txt between the two crawls).

This module reproduces that methodology: a *validation crawler* crawls
the same sites as a snapshot, but its visit may land after the site's
next robots.txt change (the timing skew the paper describes -- "the day
we performed our crawl could be up to multiple weeks later").  The
report separates agreement, disagreement explained by an intervening
change, and unexplained disagreement (which would indicate a data bug
-- the reproduction asserts there is none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..crawlers.commoncrawl import Snapshot, SnapshotCrawler
from ..net.transport import Network
from ..util import seeded_rng
from ..web.population import WebPopulation

__all__ = ["ValidationReport", "cross_validate_snapshot"]

#: Probability that a site's validation visit lands a month late.
P_LAGGED = 0.2


@dataclass
class ValidationReport:
    """Outcome of one cross-validation pass.

    Attributes:
        n_compared: Sites with a retrievable robots.txt in both crawls.
        n_agree: Identical content in both.
        n_timing_disagreements: Content differs, and the site's
            schedule shows a robots.txt change between the two crawl
            times (the benign explanation).
        unexplained: Domains whose contents differ with *no* intervening
            change -- should always be empty.
        lagged_domains: Domains whose validation crawl landed late.
    """

    n_compared: int = 0
    n_agree: int = 0
    n_timing_disagreements: int = 0
    unexplained: List[str] = field(default_factory=list)
    lagged_domains: List[str] = field(default_factory=list)

    @property
    def agreement_rate(self) -> float:
        """Fraction of compared sites with identical content."""
        if not self.n_compared:
            return 1.0
        return self.n_agree / self.n_compared


def cross_validate_snapshot(
    population: WebPopulation, snapshot: Snapshot, seed: int = 42
) -> ValidationReport:
    """Re-crawl a snapshot's sites and compare robots.txt contents.

    Every site with a retrievable record is validated, like the paper's
    top-10k own-crawl.  With probability :data:`P_LAGGED` a site's
    validation visit lands a month after the snapshot month (the "up to
    multiple weeks later" skew); *seed* draws which.
    """
    rng = seeded_rng(seed, "validation", snapshot.spec.snapshot_id)
    month = snapshot.spec.month_index

    candidates = [
        domain
        for domain, record in snapshot.records.items()
        if record.ok
    ]

    # Build one network per crawl time, materialized lazily.
    networks = {}

    def network_for(when: int) -> Network:
        if when not in networks:
            network = Network()
            sites = [population.by_domain[d] for d in candidates if d in population.by_domain]
            population.materialize(network, month=when, sites=sites)
            networks[when] = network
        return networks[when]

    report = ValidationReport()
    for domain in candidates:
        site = population.by_domain.get(domain)
        if site is None:
            continue
        lagged = rng.random() < P_LAGGED
        when = month + 1 if lagged else month
        if lagged:
            report.lagged_domains.append(domain)
        crawler = SnapshotCrawler(network_for(when))
        fresh = crawler.crawl_site(domain)
        if not fresh.ok:
            continue
        original = snapshot.records[domain].robots_txt
        report.n_compared += 1
        if fresh.robots_txt == original:
            report.n_agree += 1
            continue
        changed_between = any(
            month < change <= when for change in site.change_months()
        ) or any(month < m <= when for m in site.missing_months)
        if changed_between:
            report.n_timing_disagreements += 1
        else:
            report.unexplained.append(domain)
    return report
