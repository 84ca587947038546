"""Per-(agent, host) traffic features from the wide-event log store.

The behavioral bot-detection plane (ROADMAP item 3, after
``TrafficPatternClassifier``-style real-world pipelines) consumes
exactly these inputs: inter-request timing, path entropy, robots-
before-content discipline, error ratios, and User-Agent churn, all per
(agent label, host) pair.  :func:`traffic_features` computes them from
one pair's request events -- integer arithmetic until the final
rounding -- for both consumers: :func:`extract_features` over a
committed :class:`~repro.net.logstore.LogStore`, in global-seq order,
and the online :class:`~repro.proxy.behavioral.BehavioralWindow`.
:func:`write_features` exports the store's features as a
schema-versioned ``FEATURES.json`` that is byte-identical across
scheduling modes (the log store already is).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple, Union

from ..columnar import atomic_write
from .metrics import metrics_enabled, shared_registry

if TYPE_CHECKING:  # annotation-only: keeps the proxy->obs import acyclic
    from ..net.logstore import LogStore

__all__ = [
    "FEATURES_SCHEMA_VERSION",
    "extract_features",
    "traffic_features",
    "write_features",
]

FEATURES_SCHEMA_VERSION = 1

#: Decimal places kept on float features; enough precision for any
#: classifier, few enough digits for stable, readable JSON.
_ROUND = 6


def _percentile(sorted_values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending list (deterministic)."""
    if not sorted_values:
        return 0
    rank = math.ceil(fraction * len(sorted_values))
    return sorted_values[max(rank - 1, 0)]


def _entropy_bits(counts: Dict[str, int]) -> float:
    """Shannon entropy (bits) of a discrete distribution."""
    total = sum(counts.values())
    if total <= 1:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def traffic_features(events: Iterable[tuple]) -> Dict[str, object]:
    """The seven FEATURES.json values of one (agent, host) pair.

    Each event is ``(ticks, path, user_agent, is_error, is_robots,
    after_robots)``: simulated-millisecond ticks, the request path and
    raw User-Agent, whether it was answered >= 400, whether it fetched
    robots.txt, and whether the pair had fetched robots.txt before this
    content request.  Features:

    * ``requests`` -- event count.
    * ``gap_mean_ticks`` / ``gap_p95_ticks`` -- mean and nearest-rank
      p95 of inter-request gaps, the differences of the *sorted* ticks
      (0.0/0 with fewer than two events).
    * ``path_entropy_bits`` -- Shannon entropy of the request-path
      distribution (high for broad crawls, low for focused scraping).
    * ``robots_before_content`` -- fraction of content (non-robots)
      requests made after the pair had fetched robots.txt: the
      per-host compliance discipline Section 5 infers from raw logs.
    * ``error_ratio`` -- fraction of requests answered >= 400.
    * ``ua_churn`` -- distinct raw User-Agent strings (> 1 means the
      agent rotated UAs against this host).
    """
    ticks: List[int] = []
    paths: Dict[str, int] = {}
    uas = set()
    errors = 0
    content = 0
    content_after = 0
    for tick, path, ua, is_error, is_robots, after_robots in events:
        ticks.append(tick)
        paths[path] = paths.get(path, 0) + 1
        uas.add(ua)
        if is_error:
            errors += 1
        if not is_robots:
            content += 1
            if after_robots:
                content_after += 1
    n = len(ticks)
    ticks.sort()
    gaps = sorted(ticks[i] - ticks[i - 1] for i in range(1, n))
    return {
        "requests": n,
        "gap_mean_ticks": round(sum(gaps) / len(gaps), _ROUND) if gaps else 0.0,
        "gap_p95_ticks": _percentile(gaps, 0.95),
        "path_entropy_bits": round(_entropy_bits(paths), _ROUND),
        "robots_before_content": (
            round(content_after / content, _ROUND) if content else 0.0
        ),
        "error_ratio": round(errors / n, _ROUND) if n else 0.0,
        "ua_churn": len(uas),
    }


def extract_features(store: LogStore) -> Dict[str, Dict[str, Dict[str, object]]]:
    """:func:`traffic_features` per ``{agent: {host: {...}}}``, keys sorted.

    A tick running backwards between a pair's consecutive records is a
    clock regression (records from different streams interleaving on
    the global seq), not a real inter-arrival gap; the gap statistics
    are measured on the sorted timeline regardless, and regressions are
    counted into the process-wide ``features.tick_regressions`` counter.
    """
    pairs: Dict[Tuple[str, str], List[tuple]] = {}
    robots_seen = set()
    regressions = 0
    for record in store.records():
        key = (record.agent, record.host)
        events = pairs.get(key)
        if events is None:
            events = pairs[key] = []
        elif record.ticks < events[-1][0]:
            regressions += 1
        if record.robots_fetch:
            robots_seen.add(key)
        events.append((
            record.ticks,
            record.path,
            record.user_agent,
            record.status >= 400,
            record.robots_fetch,
            not record.robots_fetch and key in robots_seen,
        ))
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for agent, host in sorted(pairs):
        out.setdefault(agent, {})[host] = traffic_features(pairs[(agent, host)])
    if regressions and metrics_enabled():
        shared_registry().counter("features.tick_regressions").inc(regressions)
    return out


def write_features(store: LogStore, path: Union[str, Path]) -> Path:
    """Extract features and write the schema-versioned JSON artifact."""
    path = Path(path)
    payload = {
        "schema_version": FEATURES_SCHEMA_VERSION,
        "config_digest": store.config_digest,
        "n_records": store.n_records,
        "features": extract_features(store),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
