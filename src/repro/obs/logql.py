"""Deterministic query/aggregation engine over a committed log store.

``repro logs`` is the operator console for the request-plane wide
events: filter raw records, roll them up by any label dimension, rank
top-k paths/agents/hosts, and render per-agent monthly timelines.
Everything here is a pure function of the archive bytes -- records
iterate in global-sequence order, ties break lexicographically, and
floats never enter the aggregation -- so identical stores always
produce identical output (the property the CLI tests pin).
``group_by(store, repro.obs.analyze.REQUEST_CELL)`` gives the request
cells ``repro dashboard`` renders for a directory that holds a log
store and no SERIES.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..net.logstore import LogRecord, LogStore

__all__ = [
    "DIMENSIONS",
    "LogFilter",
    "filter_records",
    "query",
    "group_by",
    "top_k",
    "timelines",
]

#: The record attributes ``group_by``/``top_k`` can group and rank by.
DIMENSIONS = ("agent", "category", "host", "month", "outcome", "path", "status")


@dataclass(frozen=True)
class LogFilter:
    """Record predicate: every set field must match exactly.

    ``month`` filters the simulated-month column; ``robots_only``
    keeps robots.txt fetches only.
    """

    agent: Optional[str] = None
    host: Optional[str] = None
    outcome: Optional[str] = None
    category: Optional[str] = None
    month: Optional[int] = None
    robots_only: bool = False

    def matches(self, record: LogRecord) -> bool:
        if self.agent is not None and record.agent != self.agent:
            return False
        if self.host is not None and record.host != self.host:
            return False
        if self.outcome is not None and record.outcome != self.outcome:
            return False
        if self.category is not None and record.category != self.category:
            return False
        if self.month is not None and record.month != self.month:
            return False
        if self.robots_only and not record.robots_fetch:
            return False
        return True


def filter_records(
    store: LogStore, where: Optional[LogFilter] = None
) -> Iterator[LogRecord]:
    """Matching records in global-sequence order."""
    if where is None:
        return store.records()
    return (record for record in store.records() if where.matches(record))


def query(
    store: LogStore,
    where: Optional[LogFilter] = None,
    limit: Optional[int] = None,
) -> List[LogRecord]:
    """Matching records, optionally truncated to the first *limit*."""
    out: List[LogRecord] = []
    for record in filter_records(store, where):
        out.append(record)
        if limit is not None and len(out) >= limit:
            break
    return out


def _dimension_value(record: LogRecord, dimension: str):
    if dimension not in DIMENSIONS:
        raise KeyError(
            f"unknown dimension {dimension!r} (known: {', '.join(DIMENSIONS)})"
        )
    return getattr(record, dimension)


def group_by(store: LogStore, dimensions: Tuple[str, ...]) -> Dict[tuple, int]:
    """Request counts grouped by one or more dimensions, sorted by key."""
    counts: Dict[tuple, int] = {}
    for record in store.records():
        key = tuple(_dimension_value(record, d) for d in dimensions)
        counts[key] = counts.get(key, 0) + 1
    # Each key position holds one dimension's native type (int for
    # month/status, str otherwise), so tuples compare position-wise
    # without coercion -- stringifying here would order month 10 before
    # month 2.
    return dict(sorted(counts.items()))


def top_k(
    store: LogStore,
    dimension: str,
    k: int = 10,
    where: Optional[LogFilter] = None,
) -> List[Tuple[object, int]]:
    """The *k* most-requested values of *dimension*.

    Ties break ascending on the native value (numerically for the int
    dimensions, lexicographically for strings), so the ranking is
    deterministic regardless of intern order -- a ``str()`` tie-break
    would rank month 10 ahead of month 2.
    """
    counts: Dict[object, int] = {}
    for record in filter_records(store, where):
        value = _dimension_value(record, dimension)
        counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: max(k, 0)]


def timelines(
    store: LogStore,
    where: Optional[LogFilter] = None,
) -> Dict[str, Dict[int, int]]:
    """Per-agent monthly request counts: ``{agent: {month: n}}``.

    Agents sort lexicographically, months ascend: the matrix ``repro
    logs DIR timeline`` renders.
    """
    out: Dict[str, Dict[int, int]] = {}
    for record in filter_records(store, where):
        months = out.setdefault(record.agent, {})
        months[record.month] = months.get(record.month, 0) + 1
    return {
        agent: dict(sorted(months.items()))
        for agent, months in sorted(out.items())
    }
