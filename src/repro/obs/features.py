"""Per-(agent, host) traffic features from the wide-event log store.

The behavioral bot-detection plane (ROADMAP item 3, after
``TrafficPatternClassifier``-style real-world pipelines) consumes
exactly these inputs: inter-request timing, path entropy, robots-
before-content discipline, error ratios, and User-Agent churn, all per
(agent label, host) pair.  This module derives them deterministically
from a committed :class:`~repro.net.logstore.LogStore` -- integer
arithmetic until the final rounding, records consumed in global-seq
order -- and exports them as a schema-versioned ``FEATURES.json`` that
is byte-identical across scheduling modes (the log store already is).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from ..columnar import atomic_write
from .metrics import metrics_enabled, shared_registry

if TYPE_CHECKING:  # annotation-only: keeps the proxy->obs import acyclic
    from ..net.logstore import LogStore

__all__ = [
    "FEATURES_SCHEMA_VERSION",
    "extract_features",
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


def extract_features(store: LogStore) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Traffic features per ``{agent: {host: {...}}}``, keys sorted.

    Features per (agent, host) pair:

    * ``requests`` -- total request count.
    * ``gap_mean_ticks`` / ``gap_p95_ticks`` -- mean and nearest-rank
      p95 of inter-request gaps on the simulated millisecond clock.
      Gaps are differences of the pair's *sorted* ticks (0.0/0 when the
      pair made fewer than two requests); ticks arriving out of order
      across stream boundaries are counted into the process-wide
      ``features.tick_regressions`` counter instead of being folded
      into the gap statistics.
    * ``path_entropy_bits`` -- Shannon entropy of the request-path
      distribution (high for broad crawls, low for focused scraping).
    * ``robots_before_content`` -- fraction of content (non-robots)
      requests that came after the pair had fetched robots.txt at
      least once: the per-host compliance discipline Section 5 infers
      from raw logs.
    * ``error_ratio`` -- fraction of requests answered >= 400.
    * ``ua_churn`` -- distinct raw User-Agent strings (> 1 means the
      agent rotated UAs against this host).
    """
    state: Dict[Tuple[str, str], Dict[str, object]] = {}
    for record in store.records():
        pair = state.get((record.agent, record.host))
        if pair is None:
            pair = {
                "requests": 0,
                "ticks": [],
                "paths": {},
                "uas": set(),
                "errors": 0,
                "robots_seen": False,
                "content": 0,
                "content_after_robots": 0,
            }
            state[(record.agent, record.host)] = pair
        pair["requests"] += 1
        pair["ticks"].append(record.ticks)
        pair["paths"][record.path] = pair["paths"].get(record.path, 0) + 1
        pair["uas"].add(record.user_agent)
        if record.status >= 400:
            pair["errors"] += 1
        if record.robots_fetch:
            pair["robots_seen"] = True
        else:
            pair["content"] += 1
            if pair["robots_seen"]:
                pair["content_after_robots"] += 1

    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    regressions = 0
    for (agent, host) in sorted(state):
        pair = state[(agent, host)]
        ticks: List[int] = pair["ticks"]
        # A tick running backwards between consecutive requests is a
        # clock regression (records from different streams interleaving
        # on the global seq), not a real inter-arrival gap.  Taking the
        # absolute value would silently fold it into the gap stats;
        # instead count it, then difference the sorted ticks so gaps
        # are always measured on the ordered timeline.
        regressions += sum(
            1 for i in range(1, len(ticks)) if ticks[i] < ticks[i - 1]
        )
        ordered = sorted(ticks)
        gaps = sorted(
            ordered[i] - ordered[i - 1] for i in range(1, len(ordered))
        )
        content = pair["content"]
        out.setdefault(agent, {})[host] = {
            "requests": pair["requests"],
            "gap_mean_ticks": round(sum(gaps) / len(gaps), _ROUND) if gaps else 0.0,
            "gap_p95_ticks": _percentile(gaps, 0.95),
            "path_entropy_bits": round(_entropy_bits(pair["paths"]), _ROUND),
            "robots_before_content": (
                round(pair["content_after_robots"] / content, _ROUND)
                if content
                else 0.0
            ),
            "error_ratio": round(pair["errors"] / pair["requests"], _ROUND),
            "ua_churn": len(pair["uas"]),
        }
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
