"""A per-domain reference for the Section 3 statistics.

Deliberately naive: no grouping by body, no memoisation, no shard
views.  Every (domain, snapshot) cell is looked up with :func:`record_of`
(Appendix B.1's "www." fallback, stated here from the paper) and judged
by :func:`repro.core.classify.classify` alone, so the aggregation engine
in :mod:`repro.measure.longitudinal` is checked against the definitions
rather than against another optimised implementation.

Each function reads only a series' raw crawl data -- ``snapshots``,
``stable_domains`` and ``tiers`` -- never anything the engine derived.
"""

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.classify import RestrictionLevel, classify
from repro.core.policy import RobotsPolicy
from repro.measure.longitudinal import FIGURE3_AGENTS


def _usable(record):
    return record is not None and (record.ok or record.missing)


def record_of(snapshot, domain):
    """*domain*'s record in *snapshot*, or its "www." variant's when
    only the variant's is usable (fetched or an affirmative 404)."""
    own = snapshot.records.get(domain)
    if _usable(own):
        return own
    variant = domain[4:] if domain.startswith("www.") else "www." + domain
    alt = snapshot.records.get(variant)
    return alt if _usable(alt) else own


def fully_disallows_any(policy, agents, require_explicit=True):
    """Figure 2's per-site statistic: some agent is fully disallowed."""
    return any(
        classify(policy, agent, require_explicit=require_explicit).level
        is RestrictionLevel.FULL
        for agent in agents
    )


def _policy(snapshot, domain):
    """The parsed robots.txt one domain serves in one snapshot, or None."""
    record = record_of(snapshot, domain)
    if record is None or not record.ok:
        return None
    return RobotsPolicy(record.robots_txt)


def _pct(hits, total):
    return 100.0 * hits / total if total else 0.0


def analysis_domains(series):
    """Stable domains with a fetched robots.txt in every snapshot."""
    return [
        domain
        for domain in series.stable_domains
        if all(_policy(snapshot, domain) is not None for snapshot in series.snapshots)
    ]


def full_disallow_trend(series, agents=tuple(AI_USER_AGENT_TOKENS), require_explicit=True):
    domains = analysis_domains(series)
    top5k = {
        domain
        for domain, tier in zip(series.stable_domains, series.tiers)
        if tier == "top5k"
    }
    n_top = sum(domain in top5k for domain in domains)
    rows = []
    for snapshot in series.snapshots:
        hits = {True: 0, False: 0}
        for domain in domains:
            if fully_disallows_any(
                _policy(snapshot, domain), agents, require_explicit=require_explicit
            ):
                hits[domain in top5k] += 1
        rows.append((
            snapshot.spec.snapshot_id,
            _pct(hits[True], n_top),
            _pct(hits[False], len(domains) - n_top),
        ))
    return rows


def per_agent_trend(series, agents=tuple(FIGURE3_AGENTS)):
    domains = analysis_domains(series)
    out = {agent: [] for agent in agents}
    for snapshot in series.snapshots:
        policies = [_policy(snapshot, domain) for domain in domains]
        for agent in agents:
            hits = sum(
                classify(policy, agent).level.disallows for policy in policies
            )
            out[agent].append((snapshot.spec.snapshot_id, _pct(hits, len(domains))))
    return out


def allow_and_removal_trend(
    series, agents=tuple(AI_USER_AGENT_TOKENS), removal_agent="GPTBot"
):
    """``(explicit_allow_counts, removals_per_period, removal_domains)``,
    the last as ``(domain, snapshot_id)`` pairs in first-removal order."""
    domains = analysis_domains(series)
    allow_counts, removal_counts, removal_domains = [], [], {}
    previous = None
    for snapshot in series.snapshots:
        sid = snapshot.spec.snapshot_id
        policies = [_policy(snapshot, domain) for domain in domains]
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


def first_allow_table(series, agent="GPTBot"):
    domains = analysis_domains(series)
    rows, seen = [], set()
    for snapshot in series.snapshots:
        for domain in domains:
            if domain not in seen and classify(
                _policy(snapshot, domain), agent
            ).explicit_allow:
                rows.append((domain, snapshot.spec.snapshot_id))
                seen.add(domain)
    return rows


def snapshot_coverage_table(series):
    rows = []
    for snapshot in series.snapshots:
        records = [record_of(snapshot, domain) for domain in series.stable_domains]
        rows.append((
            snapshot.spec.snapshot_id,
            snapshot.spec.label,
            sum(r is not None and (r.ok or r.missing) for r in records),
            sum(r is not None and r.ok for r in records),
        ))
    return rows
