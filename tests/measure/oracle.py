"""A per-domain reference for the Section 3 statistics.

Deliberately naive: no grouping by body, no memoisation, no shard
views.  Every (domain, snapshot) cell is looked up with :func:`body_of`
(Appendix B.1's "www." fallback, stated here from the paper) and judged
by :func:`repro.core.classify.classify` alone, so the aggregation engine
in :mod:`repro.measure.longitudinal` is checked against the definitions
rather than against another optimised implementation.

Each function reads only a :class:`Corpus` of raw crawl cells -- per
spec and stable domain, the HTTP status and the robots body -- built by
the oracle's own full crawl (:func:`crawl`) or read from a source's
shard columns (:func:`from_columns`); never anything the engine derived
(its shard analysis, body-ref tallies or verdict cache).
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.classify import RestrictionLevel, classify
from repro.core.policy import RobotsPolicy
from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, SnapshotCrawler, SnapshotSpec
from repro.measure.longitudinal import FIGURE3_AGENTS
from repro.net.transport import Network

from ..archive_cells import Cell, archive_cells, shards_of


@dataclass
class Corpus:
    """Raw crawl cells.

    Attributes:
        specs: The snapshot specs, in time order.
        domains: The stable domains, in rank order.
        top5k: The stable domains in the Top-5K tier.
        cells: Per domain, one ``(status, body)`` cell per spec.
    """

    specs: List[SnapshotSpec]
    domains: List[str]
    top5k: Set[str]
    cells: Dict[str, List[Cell]]


def crawl(population, specs: Sequence[SnapshotSpec] = tuple(SNAPSHOT_SPECS)) -> Corpus:
    """A full crawl: every stable site, every spec, a fresh network each."""
    domains = [site.domain for site in population.stable]
    cells: Dict[str, List[Cell]] = {domain: [] for domain in domains}
    for spec in specs:
        network = Network()
        population.materialize(network, month=spec.month_index)
        records = SnapshotCrawler(network).snapshot(spec, domains).records
        for domain in domains:
            cells[domain].append((records[domain].status, records[domain].robots_txt))
    top5k = {site.domain for site in population.stable if site.tier == "top5k"}
    return Corpus(list(specs), domains, top5k, cells)


def from_columns(source) -> Corpus:
    """The cells an archive's shards or a series' shard hold."""
    cells = archive_cells(source)
    shards = shards_of(source)
    top5k = {
        domain
        for shard in shards
        for domain, tier in zip(shard.domains, shard.tiers)
        if tier
    }
    return Corpus(list(shards[0].specs), list(cells), top5k, cells)


def _ok(cell):
    return cell[0] == 200 and cell[1] is not None


def _usable(cell):
    return cell is not None and (_ok(cell) or cell[0] == 404)


def cell_of(corpus, spec_index, domain):
    """*domain*'s cell in one spec, or its "www." variant's when only the
    variant's is usable (fetched or an affirmative 404)."""
    def cell(name):
        cells = corpus.cells.get(name)
        return None if cells is None else cells[spec_index]

    own = cell(domain)
    if _usable(own):
        return own
    alt = cell(domain[4:] if domain.startswith("www.") else "www." + domain)
    return alt if _usable(alt) else own


def body_of(corpus, spec_index, domain):
    """The robots.txt one domain serves in one spec, or None."""
    found = cell_of(corpus, spec_index, domain)
    return found[1] if found is not None and _ok(found) else None


def fully_disallows_any(policy, agents, require_explicit=True):
    """Figure 2's per-site statistic: some agent is fully disallowed."""
    return any(
        classify(policy, agent, require_explicit=require_explicit).level
        is RestrictionLevel.FULL
        for agent in agents
    )


def _policy(corpus, spec_index, domain):
    """The parsed robots.txt one domain serves in one spec, or None."""
    body = body_of(corpus, spec_index, domain)
    return None if body is None else RobotsPolicy(body)


def _pct(hits, total):
    return 100.0 * hits / total if total else 0.0


def analysis_domains(corpus):
    """Stable domains with a fetched robots.txt in every snapshot."""
    return [
        domain
        for domain in corpus.domains
        if all(
            body_of(corpus, spec_index, domain) is not None
            for spec_index in range(len(corpus.specs))
        )
    ]


def full_disallow_trend(corpus, agents=tuple(AI_USER_AGENT_TOKENS), require_explicit=True):
    domains = analysis_domains(corpus)
    n_top = sum(domain in corpus.top5k for domain in domains)
    rows = []
    for spec_index, spec in enumerate(corpus.specs):
        hits = {True: 0, False: 0}
        for domain in domains:
            if fully_disallows_any(
                _policy(corpus, spec_index, domain), agents,
                require_explicit=require_explicit,
            ):
                hits[domain in corpus.top5k] += 1
        rows.append((
            spec.snapshot_id,
            _pct(hits[True], n_top),
            _pct(hits[False], len(domains) - n_top),
        ))
    return rows


def per_agent_trend(corpus, agents=tuple(FIGURE3_AGENTS)):
    domains = analysis_domains(corpus)
    out = {agent: [] for agent in agents}
    for spec_index, spec in enumerate(corpus.specs):
        policies = [_policy(corpus, spec_index, domain) for domain in domains]
        for agent in agents:
            hits = sum(
                classify(policy, agent).level.disallows for policy in policies
            )
            out[agent].append((spec.snapshot_id, _pct(hits, len(domains))))
    return out


def allow_and_removal_trend(
    corpus, agents=tuple(AI_USER_AGENT_TOKENS), removal_agent="GPTBot"
):
    """``(explicit_allow_counts, removals_per_period, removal_domains)``,
    the last as ``(domain, snapshot_id)`` pairs in first-removal order."""
    domains = analysis_domains(corpus)
    allow_counts, removal_counts, removal_domains = [], [], {}
    previous = None
    for spec_index, spec in enumerate(corpus.specs):
        sid = spec.snapshot_id
        policies = [_policy(corpus, spec_index, domain) for domain in domains]
        allow_counts.append((sid, sum(
            any(classify(policy, agent).explicit_allow for agent in agents)
            for policy in policies
        )))
        restricted = [
            classify(policy, removal_agent).level is RestrictionLevel.FULL
            for policy in policies
        ]
        removed = 0
        if previous is not None:
            for domain, before, now in zip(domains, previous, restricted):
                if before and not now:
                    removed += 1
                    removal_domains.setdefault(domain, sid)
        removal_counts.append((sid, removed))
        previous = restricted
    return allow_counts, removal_counts, list(removal_domains.items())


def first_allow_table(corpus, agent="GPTBot"):
    domains = analysis_domains(corpus)
    rows, seen = [], set()
    for spec_index, spec in enumerate(corpus.specs):
        for domain in domains:
            if domain not in seen and classify(
                _policy(corpus, spec_index, domain), agent
            ).explicit_allow:
                rows.append((domain, spec.snapshot_id))
                seen.add(domain)
    return rows


def snapshot_coverage_table(corpus):
    rows = []
    for spec_index, spec in enumerate(corpus.specs):
        cells = [cell_of(corpus, spec_index, domain) for domain in corpus.domains]
        rows.append((
            spec.snapshot_id,
            spec.label,
            sum(_usable(cell) for cell in cells),
            sum(cell is not None and _ok(cell) for cell in cells),
        ))
    return rows
