"""Section 3: longitudinal robots.txt analysis over snapshots.

Pipeline: take a web population, run the Common-Crawl-style snapshotter
over the 15 snapshot specs in order, into one shard of columns (a
status and a body-ref column per spec, each distinct body once), keep
the Stable-with-robots set (the paper's "Stable Top 100K": ranked
every month *and* a robots.txt in every snapshot), then compute the
statistics behind Figures 2-4 and Tables 3-4:

* per-snapshot % of sites fully disallowing >= 1 AI user agent, split
  by Top-5K tier (Figure 2),
* per-snapshot per-agent % partially-or-fully disallowing (Figure 3),
* explicit-allow counts and restriction removals per period, plus the
  domains explicitly allowing GPTBot with their first-allow snapshot
  (Figure 4 and Table 4, one sweep),
* snapshot coverage statistics (Table 3).

One engine, two sources.  Every statistic is computed shard by shard
over the :class:`~repro.web.archive.ShardReader` surface: an
:class:`~repro.web.archive.ArchiveSet` supplies its on-disk shards, and
an in-memory :class:`SnapshotSeries` is one shard, the
:class:`~repro.web.archive.ShardWriter` its crawl filled and an
archive commit would write.  A *sweep* is one pass over a source's
shards: :class:`ShardAnalysis` resolves each shard's records and applies
the analysis-set rule, and every figure is then a tally over ``(body
ref, count)`` that reads each distinct body's
:class:`~repro.core.classify.VerdictRow` from the source's one
content-addressed :class:`~repro.measure.cache.PolicyCache`
(``source.cache``), keyed by the body's SHA-256 (the shard's
``body_digest``, which an archive reads from ``bodies.sha``).  Each
figure sweeps its source once; a caller persists rows by attaching a
store to ``source.cache``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..columnar import prepare_shard_set
from ..core.classify import RestrictionLevel, VerdictRow
from ..fanout import fan_out
from ..crawlers.commoncrawl import SNAPSHOT_SPECS, SnapshotCrawler, SnapshotSpec
from ..net import chaos
from ..net.logstore import log_stream
from ..net.transport import Network
from ..obs.metrics import metrics_enabled, shared_registry
from ..obs.trace import span
from ..web.archive import ArchiveSet, ShardReader, ShardWriter
from ..web.population import WebPopulation
from ..web.sharding import partition_domains, record_shard_balance, shard_count_for
from .cache import PolicyCache

__all__ = [
    "SnapshotSeries",
    "ShardAnalysis",
    "collect_snapshots",
    "collect_shard_archives",
    "analysis_domains",
    "full_disallow_trend",
    "per_agent_trend",
    "allow_and_removal_trend",
    "snapshot_coverage_table",
]

#: Agents plotted individually in Figure 3.
FIGURE3_AGENTS = [
    "GPTBot",
    "CCBot",
    "ChatGPT-User",
    "anthropic-ai",
    "Google-Extended",
    "Bytespider",
    "ClaudeBot",
    "PerplexityBot",
]

#: Either source the aggregations accept.
Source = Union["SnapshotSeries", ArchiveSet]


@dataclass
class SnapshotSeries:
    """A population's crawled snapshot series: one in-memory shard.

    Attributes:
        shard: The crawl's columns over the stable set, in rank order:
            per spec a status and a body-ref column, and each distinct
            body once (:class:`~repro.web.archive.ShardWriter`).
        cache: The verdict rows of this series' bodies, shared by every
            aggregation over it.
        analysis: The shard resolved by :class:`ShardAnalysis` (built
            once, at construction).
        analysis_domains: Stable domains with a robots.txt in *every*
            snapshot -- the paper's Stable Top 100K analogue.
    """

    shard: ShardWriter
    cache: PolicyCache = field(default_factory=PolicyCache, repr=False, compare=False)
    analysis: "ShardAnalysis" = field(init=False, repr=False, compare=False)
    analysis_domains: List[str] = field(init=False)

    def __post_init__(self) -> None:
        self.analysis = ShardAnalysis(self.shard)
        self.analysis_domains = analysis_domains(self)

    @property
    def specs(self) -> List[SnapshotSpec]:
        return self.shard.specs

    @property
    def stable_domains(self) -> List[str]:
        return self.shard.domains


def _site_fetch_plan(
    sites: List["SimSite"], specs: Sequence[SnapshotSpec], use_delta: bool
) -> List[List["SimSite"]]:
    """Per-spec subsets of *sites* a crawl must actually fetch.

    Without *use_delta* every spec fetches every site.  With it, the
    first spec fetches every site and every later spec only the sites
    whose *served* robots state differs from the previous spec's month
    (see :meth:`~repro.web.site.SimSite.robots_changed_between`).
    Every other site keeps its previous record in the shard's columns
    (:meth:`~repro.web.archive.ShardWriter.add_snapshot`): a site's
    handler depends on the month only through its robots text, and
    serving is response-stateless, so refetching would reproduce the
    same record byte for byte.  Blocking/proxy configuration is
    month-invariant in this world model (it is not keyed by month
    anywhere), so robots state is the only time-varying fetch input.

    The plan depends only on the sites' evolution schedules -- not on
    any fetched data.  It is a pure per-site filter, so partitioning
    sites into shards and planning per shard yields exactly the global
    plan, partitioned.
    """
    if not use_delta:
        return [list(sites) for _ in specs]
    plan: List[List[SimSite]] = []
    previous: Optional[SnapshotSpec] = None
    for spec in specs:
        if previous is None:
            plan.append(list(sites))
        else:
            plan.append(
                [
                    site
                    for site in sites
                    if site.robots_changed_between(
                        previous.month_index, spec.month_index
                    )
                ]
            )
        previous = spec
    return plan


def _use_delta(specs: Sequence[SnapshotSpec]) -> bool:
    """Whether delta collection is sound for this crawl: more than one
    spec and no armed chaos plan."""
    # Chaos faults are month- and host-windowed at the *transport*
    # layer, invisible to the evolution model the delta plan reads, so
    # carried-forward records could mask injected errors.  Never delta
    # under an armed plan.
    return len(specs) > 1 and chaos.active_plan() is None


def _crawl_shard(
    population: WebPopulation,
    sites: Sequence["SimSite"],
    specs: Sequence[SnapshotSpec],
    use_delta: bool,
    stream_of: Callable[[SnapshotSpec], str],
) -> ShardWriter:
    """Crawl *specs* in order over *sites* into one shard's columns.

    Per spec, a fresh :class:`Network` materializes the spec's fetch
    subset at the spec's month and the CCBot client fetches their
    robots.txt; the shard carries every other row forward.  The crawl's
    wide events go to the stream ``stream_of(spec)`` names.  The span
    carries both clocks: wall time plus the simulated month the
    snapshot pertains to (the logical clock).  It is named after the
    spec, so its id names the same work under any schedule.
    """
    shard = ShardWriter(
        [site.domain for site in sites],
        [site.rank for site in sites],
        [site.tier for site in sites],
    )
    for spec, fetch_sites in zip(specs, _site_fetch_plan(sites, specs, use_delta)):
        with log_stream(stream_of(spec)), span(
            f"collect_snapshot:{spec.snapshot_id}",
            logical=spec.month_index,
            snapshot=spec.snapshot_id,
            n_domains=len(fetch_sites),
        ):
            network = Network()
            population.materialize(network, month=spec.month_index, sites=fetch_sites)
            snapshot = SnapshotCrawler(network).snapshot(
                spec, [site.domain for site in fetch_sites]
            )
            network.publish_request_histogram()
        if metrics_enabled():
            # In a full crawl every site counts as refetched, so the
            # series doubles as a live view of how much work delta
            # collection avoids month over month.  Per-shard counts sum
            # into the same per-month points, so sharded totals match
            # unsharded ones.
            shared_registry().add(
                "delta.sites_refetched", spec.month_index, len(fetch_sites)
            )
        shard.add_snapshot(spec, snapshot.records)
    return shard


def collect_snapshots(
    population: WebPopulation,
    specs: Sequence[SnapshotSpec] = tuple(SNAPSHOT_SPECS),
) -> SnapshotSeries:
    """Run the snapshot crawler over the population's stable set.

    Each spec, in order, materializes the population at the spec's
    month and crawls the stable sites' robots.txt with the CCBot client
    into the series' one shard.

    Collection is diff-aware whenever that is sound -- more than one
    spec and no armed chaos plan: a later spec refetches only the sites
    whose robots state changed since the previous spec and carries
    every other record forward (bit-identical output, O(changed) work;
    see :func:`_site_fetch_plan`).  An armed
    :class:`~repro.net.chaos.FaultPlan` forces a full crawl, because
    injected faults break the purity argument that makes carry-forward
    safe.

    For the shard-partitioned crawl, see :func:`collect_shard_archives`.
    """
    specs = list(specs)
    use_delta = _use_delta(specs)
    with span("collect_snapshots", n_specs=len(specs), delta=use_delta):
        # One wide-event stream per spec: its label, not the schedule,
        # decides where the spec's records land in the log archive.
        shard = _crawl_shard(
            population,
            population.stable,
            specs,
            use_delta,
            lambda spec: f"collect:{spec.snapshot_id}",
        )
    return SnapshotSeries(shard)


def collect_shard_archives(
    population: WebPopulation,
    root: Union[str, Path],
    specs: Sequence[SnapshotSpec] = tuple(SNAPSHOT_SPECS),
    shards: int = 0,
    workers: Optional[int] = None,
    config_digest: str = "",
) -> Path:
    """Crawl the population straight into a columnar shard archive.

    Sites are partitioned by :func:`repro.web.sharding.shard_of`; each
    unit of :func:`repro.fanout.fan_out` crawls *every* spec for one
    shard (``shards=0`` sizes the shard count automatically) into a
    :class:`~repro.web.archive.ShardWriter` and commits it under
    *root*.  Records never accumulate in the parent, so peak memory is
    O(largest shard) regardless of population size.  Every record is a
    pure function of ``(site, month)`` -- chaos faults included, they
    key on ``(rule, host)`` counters -- so any shards x workers
    combination, in line or forked, archives the records an unsharded
    :func:`collect_snapshots` crawls.  The aggregations in this module
    then consume the archive shard by shard.

    A previous archive under *root* is retired before any shard is
    written (:func:`~repro.columnar.prepare_shard_set`), so an
    interrupted crawl leaves an archive that refuses to open.

    Returns *root*; open the result with
    :class:`repro.web.archive.ArchiveSet`.
    """
    root = Path(root)
    specs = list(specs)
    sites = list(population.stable)
    n_workers = max(1, workers or 1)
    n_shards = shard_count_for(len(sites), shards if shards > 0 else None)
    parts = partition_domains(
        sites, n_shards, key=(site.domain for site in sites)
    )
    record_shard_balance(parts, stage="collect")
    prepare_shard_set(root, n_shards)
    use_delta = _use_delta(specs)

    def collect_shard(index: int) -> None:
        shard_sites = parts[index]
        label = f"{index:04d}"
        # One span per shard scopes its per-spec children to the
        # shard, so a span id names the same work under any schedule.
        # One wide-event stream per shard: the shard crawls all specs
        # sequentially in one worker, so it is single-writer.
        with span(f"collect_shard:{label}", shard=index, n_domains=len(shard_sites)):
            shard = _crawl_shard(
                population,
                shard_sites,
                specs,
                use_delta,
                lambda spec: f"collect-shard:{label}",
            )
            shard.commit(root, index, n_shards, config_digest)

    with span(
        "collect_snapshots",
        n_specs=len(specs),
        workers=n_workers,
        delta=use_delta,
        shards=n_shards,
    ):
        fan_out(collect_shard, n_shards, n_workers)
    return root


class ShardAnalysis:
    """One shard's records resolved the way the analysis layer sees them.

    Applies the "www."-variant record fallback (Appendix B.1) to every
    ``(spec, domain)`` cell -- variants co-shard by construction
    (:func:`repro.web.sharding.shard_of` normalizes the host), so
    resolution never leaves the shard -- then splits the shard's rows
    into the analysis set (a usable robots.txt in every spec, the
    stable-with-robots rule) and the rest.  This is the only place the
    analysis-set rule lives.

    Attributes:
        reader: The underlying :class:`ShardReader` or the series'
            :class:`ShardWriter`.
        analysis_rows: Shard-local row indices in the analysis set.
        eff_bodies: Per spec, an ``i32`` array of the effective body
            reference per analysis row (resolution applied; always
            ``>= 0`` for analysis rows).
        ok_counts: Per spec, resolved rows with a fetched robots.txt.
        present_counts: Per spec, resolved rows that are ok *or*
            affirmatively missing (404) -- Table 3's "sites" column.
    """

    def __init__(self, reader: Union[ShardReader, ShardWriter]):
        self.reader = reader
        n = reader.n_domains
        specs = reader.specs
        variant = self._variant_rows(reader)
        per_spec_eff: List[List[int]] = []
        self.ok_counts: List[int] = []
        self.present_counts: List[int] = []
        analysis_mask = [True] * n
        for spec_index in range(len(specs)):
            statuses = reader.statuses(spec_index)
            body_refs = reader.body_refs(spec_index)

            def usable(row: int) -> bool:
                status = statuses[row]
                return (status == 200 and body_refs[row] >= 0) or status == 404

            effective: List[int] = []
            ok_count = 0
            present = 0
            for row in range(n):
                resolved = row
                if not usable(row):
                    alt = variant[row]
                    if alt >= 0 and usable(alt):
                        resolved = alt
                effective.append(
                    body_refs[resolved] if statuses[resolved] == 200 else -1
                )
                if statuses[resolved] == 200 and body_refs[resolved] >= 0:
                    ok_count += 1
                    present += 1
                elif statuses[resolved] == 404:
                    present += 1
                    analysis_mask[row] = False
                else:
                    analysis_mask[row] = False
            per_spec_eff.append(effective)
            self.ok_counts.append(ok_count)
            self.present_counts.append(present)
        self.analysis_rows: List[int] = [
            row for row in range(n) if analysis_mask[row]
        ]
        self.eff_bodies: List[array] = [
            array("i", [effective[row] for row in self.analysis_rows])
            for effective in per_spec_eff
        ]

    @staticmethod
    def _variant_rows(reader: Union[ShardReader, ShardWriter]) -> List[int]:
        """Per row, the shard-local row of its "www." variant (-1: none)."""
        index = reader.domain_index()
        variant: List[int] = []
        for domain in reader.domains:
            if domain.startswith("www."):
                alt = index.get(domain[4:], -1)
            else:
                alt = index.get("www." + domain, -1)
            variant.append(alt)
        return variant

    def body_counts(self, spec_index: int) -> Dict[int, int]:
        """``{body ref: analysis domains serving it}`` for one spec."""
        counts: Dict[int, int] = {}
        for ref in self.eff_bodies[spec_index]:
            counts[ref] = counts.get(ref, 0) + 1
        return counts


def _shards(
    source: Source,
) -> Iterator[Tuple[ShardAnalysis, Callable[[int], VerdictRow]]]:
    """One sweep: each shard of *source* with its body ref -> verdict
    row lookup.

    Rows come from ``source.cache``, which every sweep over the source
    shares, and from whatever store the caller attached to it.  A series
    is one shard, analysed once at construction.  An archive yields its
    shards in order, and the reader's decoded bodies go after each
    shard, so resident memory stays O(shard) plus one row per distinct
    body.
    """
    if isinstance(source, SnapshotSeries):
        yield source.analysis, _row_lookup(source.analysis.reader, source.cache)
        return
    for reader in source.readers:
        yield ShardAnalysis(reader), _row_lookup(reader, source.cache)
        reader.drop_body_cache()


def _row_lookup(
    reader: Union[ShardReader, ShardWriter], cache: PolicyCache
) -> Callable[[int], VerdictRow]:
    return lambda ref: cache.row(reader.body_text(ref), reader.body_digest(ref))


def analysis_domains(source: Source) -> List[str]:
    """The analysis set (the stable-with-robots rule applied by
    :class:`ShardAnalysis`) in global rank order."""
    found: List[Tuple[int, str]] = []
    for view, _ in _shards(source):
        reader = view.reader
        found.extend(
            (reader.ranks[row], reader.domains[row]) for row in view.analysis_rows
        )
    found.sort()
    return [domain for _, domain in found]


@dataclass
class FullDisallowTrend:
    """Figure 2's rows and the analysis set they are over.

    Attributes:
        rows: ``(snapshot_id, pct_top5k, pct_other)`` in time order,
            percentages in [0, 100].
        n_analysis: Sites in the analysis set.
    """

    rows: List[Tuple[str, float, float]]
    n_analysis: int


def full_disallow_trend(
    source: Source, require_explicit: bool = True
) -> FullDisallowTrend:
    """Figure 2: % of sites fully disallowing >= 1 AI UA per snapshot,
    split by the source's Top-5K tier column."""
    specs = source.specs
    agents = tuple(AI_USER_AGENT_TOKENS)
    hits = [[0, 0] for _ in specs]
    sizes = [0, 0]
    with span("measure.full_disallow_trend", n_agents=len(agents)):
        for view, row_of in _shards(source):
            reader = view.reader
            tier_of = [0 if reader.tiers[row] else 1 for row in view.analysis_rows]
            for row_tier in tier_of:
                sizes[row_tier] += 1
            verdict: Dict[int, bool] = {}
            for spec_index in range(len(specs)):
                shard_hits = [0, 0]
                for ref, row_tier in zip(view.eff_bodies[spec_index], tier_of):
                    flag = verdict.get(ref)
                    if flag is None:
                        flag = verdict[ref] = row_of(ref).fully_disallows_any(
                            agents, require_explicit
                        )
                    if flag:
                        shard_hits[row_tier] += 1
                hits[spec_index][0] += shard_hits[0]
                hits[spec_index][1] += shard_hits[1]
                if metrics_enabled():
                    month = specs[spec_index].month_index
                    registry = shared_registry()
                    registry.add(
                        "measure.sites_full_disallow", month, shard_hits[0],
                        tier="top5k",
                    )
                    registry.add(
                        "measure.sites_full_disallow", month, shard_hits[1],
                        tier="other",
                    )
    n_top, n_other = sizes
    rows = [
        (
            spec.snapshot_id,
            100.0 * hits[spec_index][0] / n_top if n_top else 0.0,
            100.0 * hits[spec_index][1] / n_other if n_other else 0.0,
        )
        for spec_index, spec in enumerate(specs)
    ]
    return FullDisallowTrend(rows, n_top + n_other)


def per_agent_trend(source: Source) -> Dict[str, List[Tuple[str, float]]]:
    """Figure 3: per-agent % of sites partially or fully disallowing.

    Returns, per :data:`FIGURE3_AGENTS` agent, rows ``(snapshot_id,
    pct)`` over the analysis set.
    """
    specs = source.specs
    hits = {agent: [0] * len(specs) for agent in FIGURE3_AGENTS}
    n_analysis = 0
    for view, row_of in _shards(source):
        n_analysis += len(view.analysis_rows)
        verdict: Dict[Tuple[int, str], bool] = {}
        for spec_index in range(len(specs)):
            counts = view.body_counts(spec_index)
            for agent in FIGURE3_AGENTS:
                agent_hits = 0
                for ref, count in counts.items():
                    key = (ref, agent)
                    flag = verdict.get(key)
                    if flag is None:
                        flag = verdict[key] = (
                            row_of(ref).classification(agent).level.disallows
                        )
                    if flag:
                        agent_hits += count
                hits[agent][spec_index] += agent_hits
                if metrics_enabled():
                    shared_registry().add(
                        "measure.sites_disallowing",
                        specs[spec_index].month_index,
                        agent_hits,
                        agent=agent,
                    )
    return {
        agent: [
            (
                spec.snapshot_id,
                100.0 * hits[agent][spec_index] / n_analysis if n_analysis else 0.0,
            )
            for spec_index, spec in enumerate(specs)
        ]
        for agent in FIGURE3_AGENTS
    }


@dataclass
class AllowRemovalTrend:
    """Figure 4's two series, its per-domain detail, and Table 4.

    Attributes:
        explicit_allow_counts: ``(snapshot_id, count)`` of sites
            explicitly allowing >= 1 AI agent.
        removals_per_period: ``(snapshot_id, count)`` of sites that had
            an explicit full restriction on GPTBot in the previous
            snapshot and no restriction in this one.
        removal_domains: Domains that removed restrictions, with the
            snapshot where the removal was first observed.
        first_allows: Table 4: ``(domain, snapshot_id)`` of each domain
            explicitly allowing GPTBot, with the first snapshot where
            the allow was observed (snapshot-outer, rank-inner order).
        n_analysis: Sites in the analysis set.
    """

    explicit_allow_counts: List[Tuple[str, int]] = field(default_factory=list)
    removals_per_period: List[Tuple[str, int]] = field(default_factory=list)
    removal_domains: Dict[str, str] = field(default_factory=dict)
    first_allows: List[Tuple[str, str]] = field(default_factory=list)
    n_analysis: int = 0


def allow_and_removal_trend(source: Source) -> AllowRemovalTrend:
    """Figure 4 and Table 4 in one sweep: explicit allows over time,
    removals per period, removal domains in first-observed order, and
    each GPTBot allower's first-allow snapshot."""
    specs = source.specs
    agents = tuple(AI_USER_AGENT_TOKENS)
    allow_counts = [0] * len(specs)
    removal_counts = [0] * len(specs)
    #: ``(first spec index, global rank, domain)`` per removal and per
    #: first GPTBot allow.
    removal_events: List[Tuple[int, int, str]] = []
    allow_events: List[Tuple[int, int, str]] = []
    n_analysis = 0
    for view, row_of in _shards(source):
        reader = view.reader
        n_analysis += len(view.analysis_rows)
        #: Per body ref: (allows any AI agent, fully restricts GPTBot,
        #: explicitly allows GPTBot).
        verdicts: Dict[int, Tuple[bool, bool, bool]] = {}

        def verdict(ref: int) -> Tuple[bool, bool, bool]:
            flags = verdicts.get(ref)
            if flags is None:
                row = row_of(ref)
                gptbot = row.classification("GPTBot")
                flags = verdicts[ref] = (
                    row.allows_any(agents),
                    gptbot.level is RestrictionLevel.FULL,
                    gptbot.explicit_allow,
                )
            return flags

        previous: Optional[List[Tuple[bool, bool, bool]]] = None
        first_removal: Dict[int, int] = {}
        first_allow: Dict[int, int] = {}
        for spec_index in range(len(specs)):
            for ref, count in view.body_counts(spec_index).items():
                if verdict(ref)[0]:
                    allow_counts[spec_index] += count
            now = [verdict(ref) for ref in view.eff_bodies[spec_index]]
            for position, row in enumerate(view.analysis_rows):
                _, restricted, allows_gptbot = now[position]
                if previous is not None and previous[position][1] and not restricted:
                    removal_counts[spec_index] += 1
                    first_removal.setdefault(row, spec_index)
                if allows_gptbot:
                    first_allow.setdefault(row, spec_index)
            previous = now
        removal_events.extend(
            (spec_index, reader.ranks[row], reader.domains[row])
            for row, spec_index in first_removal.items()
        )
        allow_events.extend(
            (spec_index, reader.ranks[row], reader.domains[row])
            for row, spec_index in first_allow.items()
        )
    trend = AllowRemovalTrend(n_analysis=n_analysis)
    for spec_index, spec in enumerate(specs):
        trend.explicit_allow_counts.append((spec.snapshot_id, allow_counts[spec_index]))
        trend.removals_per_period.append((spec.snapshot_id, removal_counts[spec_index]))
    # Both lists render snapshot-outer / rank-inner; sorting the
    # shard-local events on (spec, rank) gives that order.
    removal_events.sort()
    for spec_index, _, domain in removal_events:
        trend.removal_domains.setdefault(domain, specs[spec_index].snapshot_id)
    allow_events.sort()
    trend.first_allows = [
        (domain, specs[spec_index].snapshot_id) for spec_index, _, domain in allow_events
    ]
    return trend


def snapshot_coverage_table(source: Source) -> List[Tuple[str, str, int, int]]:
    """Table 3: per snapshot, sites present and sites with robots.txt.

    Returns rows ``(snapshot_id, label, n_sites, n_with_robots)``.
    """
    specs = source.specs
    n_sites = [0] * len(specs)
    n_robots = [0] * len(specs)
    for view, _ in _shards(source):
        for spec_index in range(len(specs)):
            n_sites[spec_index] += view.present_counts[spec_index]
            n_robots[spec_index] += view.ok_counts[spec_index]
    return [
        (spec.snapshot_id, spec.label, n_sites[spec_index], n_robots[spec_index])
        for spec_index, spec in enumerate(specs)
    ]
