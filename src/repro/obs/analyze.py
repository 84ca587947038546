"""Offline analysis of exported telemetry artifacts.

A run with ``telemetry_dir`` set leaves three artifacts behind --
``METRICS.json`` (counter/gauge/histogram totals), ``SERIES.json``
(labeled time series on the simulated-month clock) and ``TRACE.jsonl``
(the span records).  This module turns those files back into answers an
operator actually asks:

* *Where did the wall-clock go?* -- :func:`critical_path` walks the
  span DAG from the slowest root down its slowest children, naming the
  chain a faster machine would have to shorten.
* *Were the workers busy?* -- :func:`worker_utilization` rebuilds the
  concurrency timeline of ``experiment:*`` spans.
* *What does each experiment spend time on itself?* --
  :func:`self_time_tree` and :func:`folded_stacks` (flamegraph-style
  ``a;b;c <microseconds>`` lines).
* *Did this run regress against that one?* -- :func:`diff_runs`
  compares two telemetry directories structurally: experiment-span
  slowdowns plus counter/series drift beyond a relative threshold.
* *What did each agent see, month by month?* -- :func:`request_cells`
  folds ``sim.requests`` series into ``(agent, month, outcome,
  category)`` request counts, the cells a log store groups into too,
  and :func:`dashboard_matrix` rolls them into the agent-by-month view
  ``repro dashboard`` renders.

Every reader finds instruments the same way: :func:`select` picks the
rendered keys of one instrument name whose labels include the given
ones.  Every loader raises :class:`TelemetryError` with a one-line
message on missing or corrupt inputs; ``repro`` prints it as one
stderr line and exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .metrics import METRICS_SCHEMA_VERSION, SERIES_SCHEMA_VERSION, parse_key
from .trace import TRACE_SCHEMA_VERSION

__all__ = [
    "TelemetryError",
    "load_metrics",
    "load_series",
    "load_trace",
    "select",
    "critical_path",
    "worker_utilization",
    "self_time_tree",
    "folded_stacks",
    "RunDiff",
    "diff_runs",
    "REQUEST_CELL",
    "request_cells",
    "known_categories",
    "dashboard_matrix",
]


class TelemetryError(Exception):
    """A telemetry artifact is missing, corrupt, or unrecognized."""


# -- loaders -------------------------------------------------------------------


def _load_json(path: Path, artifact: str, schema_version: int) -> Dict[str, object]:
    if not path.is_file():
        raise TelemetryError(f"missing telemetry artifact: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        raise TelemetryError(f"corrupt {artifact}: {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise TelemetryError(f"corrupt {artifact}: {path}: expected a JSON object")
    found = payload.get("schema_version")
    if found != schema_version:
        raise TelemetryError(
            f"unsupported {artifact} schema_version {found!r} in {path}"
            f" (expected {schema_version})"
        )
    return payload


def load_metrics(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a ``METRICS.json`` payload, validating its schema."""
    return _load_json(Path(path), "METRICS.json", METRICS_SCHEMA_VERSION)


def load_series(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a ``SERIES.json`` payload, validating its schema."""
    payload = _load_json(Path(path), "SERIES.json", SERIES_SCHEMA_VERSION)
    if not isinstance(payload.get("series"), dict):
        raise TelemetryError(
            f"corrupt SERIES.json: {path}: missing 'series' object"
        )
    return payload


def load_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a ``TRACE.jsonl`` file into its span records."""
    path = Path(path)
    if not path.is_file():
        raise TelemetryError(f"missing telemetry artifact: {path}")
    records: List[Dict[str, object]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TelemetryError(f"corrupt TRACE.jsonl: {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise TelemetryError(
                f"corrupt TRACE.jsonl: {path}: line {lineno}: {exc}"
            ) from exc
        if not isinstance(record, dict) or "span_id" not in record:
            raise TelemetryError(
                f"corrupt TRACE.jsonl: {path}: line {lineno}: not a span record"
            )
        if record.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise TelemetryError(
                f"unsupported TRACE.jsonl schema_version"
                f" {record.get('schema_version')!r} in {path}: line {lineno}"
            )
        records.append(record)
    return records


# -- span-tree analysis --------------------------------------------------------


def _children_index(
    records: List[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], Dict[str, List[Dict[str, object]]]]:
    """Split records into roots and a parent-id -> children index."""
    ids = {record["span_id"] for record in records}
    roots: List[Dict[str, object]] = []
    children: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        parent = record.get("parent_id") or ""
        if parent and parent in ids:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    return roots, children


def _duration(record: Dict[str, object]) -> float:
    return float(record.get("duration_seconds", 0.0))


def critical_path(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The slowest root-to-leaf chain through the span DAG.

    Starts at the longest-duration root and repeatedly descends into
    the longest-duration child.  Ties break on span name so the path
    is deterministic across runs.
    """
    roots, children = _children_index(records)
    if not roots:
        return []
    path: List[Dict[str, object]] = []
    node = max(roots, key=lambda r: (_duration(r), str(r.get("name", ""))))
    while node is not None:
        path.append(node)
        kids = children.get(node["span_id"], [])
        node = (
            max(kids, key=lambda r: (_duration(r), str(r.get("name", ""))))
            if kids
            else None
        )
    return path


def worker_utilization(records: List[Dict[str, object]]) -> List[Dict[str, float]]:
    """Concurrency timeline of the ``experiment:`` spans.

    Returns intervals ``{"start": s, "end": e, "active": n}`` with
    offsets in seconds from the earliest matching span's start and
    ``active`` the number of spans in flight over that interval.
    """
    spans = [
        record
        for record in records
        if str(record.get("name", "")).startswith("experiment:")
    ]
    if not spans:
        return []
    origin = min(float(s["start_unix"]) for s in spans)
    events: List[Tuple[float, int]] = []
    for record in spans:
        start = float(record["start_unix"]) - origin
        events.append((start, +1))
        events.append((start + _duration(record), -1))
    events.sort()
    timeline: List[Dict[str, float]] = []
    active = 0
    last = 0.0
    for offset, step in events:
        if active and offset > last:
            timeline.append({"start": last, "end": offset, "active": active})
        active += step
        last = offset
    return timeline


def self_time_tree(
    records: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Nested ``{name, duration, self, children}`` trees, one per root.

    ``self`` is the span's duration minus its direct children's
    durations (clamped at zero -- overlapping forked children can
    exceed their parent's wall clock).
    """
    roots, children = _children_index(records)

    def build(record: Dict[str, object]) -> Dict[str, object]:
        kids = children.get(record["span_id"], [])
        built = [build(kid) for kid in kids]
        duration = _duration(record)
        child_total = sum(_duration(kid) for kid in kids)
        return {
            "name": record.get("name", ""),
            "duration_seconds": duration,
            "self_seconds": max(0.0, duration - child_total),
            "children": built,
        }

    return [build(root) for root in roots]


def folded_stacks(records: List[Dict[str, object]]) -> List[str]:
    """Flamegraph-style folded stack lines (self time in microseconds).

    Each span contributes ``root;...;name <int microseconds>`` of
    *self* time; feed the lines to any flamegraph renderer.  Lines are
    sorted for determinism.
    """
    lines: List[str] = []

    def walk(node: Dict[str, object], prefix: str) -> None:
        path = f"{prefix};{node['name']}" if prefix else str(node["name"])
        micros = int(round(node["self_seconds"] * 1e6))
        lines.append(f"{path} {micros}")
        for child in node["children"]:
            walk(child, path)

    for tree in self_time_tree(records):
        walk(tree, "")
    return sorted(lines)


# -- structural run diff -------------------------------------------------------


@dataclass
class RunDiff:
    """Structural comparison of two telemetry directories.

    Attributes:
        timing_regressions: Experiment spans slower in B beyond the
            threshold: ``(name, seconds_a, seconds_b)``.
        timing_improvements: Experiment spans faster in B beyond the
            threshold (informational).
        counter_drift: Counters whose totals moved beyond the
            threshold: ``(key, value_a, value_b)``.
        series_drift: Series whose totals moved beyond the threshold.
        added: Counter/series keys present only in B (informational).
        removed: Counter/series keys present only in A.
        threshold: The relative-change threshold applied.
    """

    timing_regressions: List[Tuple[str, float, float]] = field(default_factory=list)
    timing_improvements: List[Tuple[str, float, float]] = field(default_factory=list)
    counter_drift: List[Tuple[str, float, float]] = field(default_factory=list)
    series_drift: List[Tuple[str, float, float]] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    threshold: float = 0.25

    @property
    def has_regressions(self) -> bool:
        """True when the diff should fail a CI gate."""
        return bool(
            self.timing_regressions
            or self.counter_drift
            or self.series_drift
            or self.removed
        )


def _experiment_seconds(records: List[Dict[str, object]]) -> Dict[str, float]:
    seconds: Dict[str, float] = {}
    for record in records:
        name = str(record.get("name", ""))
        if name.startswith("experiment:"):
            seconds[name] = seconds.get(name, 0.0) + _duration(record)
    return seconds


def _series_totals(payload: Dict[str, object]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for key, entry in payload.get("series", {}).items():
        totals[key] = float(entry.get("total", 0.0))
    return totals


def _drifted(value_a: float, value_b: float, threshold: float) -> bool:
    if value_a == value_b:
        return False
    base = max(abs(value_a), abs(value_b))
    return abs(value_b - value_a) / base > threshold


def diff_runs(
    dir_a: Union[str, Path],
    dir_b: Union[str, Path],
    threshold: float = 0.25,
) -> RunDiff:
    """Structurally compare telemetry directory *dir_b* against *dir_a*.

    *dir_a* is the baseline.  Experiment spans slower in B by more
    than *threshold* (relative) are regressions; counters and series
    whose totals drift beyond *threshold*, and keys that disappeared,
    also fail the gate.  Gauges are process-local observations and are
    deliberately ignored.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    metrics_a = load_metrics(dir_a / "METRICS.json")
    metrics_b = load_metrics(dir_b / "METRICS.json")
    series_a = _series_totals(load_series(dir_a / "SERIES.json"))
    series_b = _series_totals(load_series(dir_b / "SERIES.json"))
    trace_a = load_trace(dir_a / "TRACE.jsonl")
    trace_b = load_trace(dir_b / "TRACE.jsonl")

    diff = RunDiff(threshold=threshold)

    seconds_a = _experiment_seconds(trace_a)
    seconds_b = _experiment_seconds(trace_b)
    for name in sorted(seconds_a.keys() & seconds_b.keys()):
        before, after = seconds_a[name], seconds_b[name]
        if after > before and _drifted(before, after, threshold):
            diff.timing_regressions.append((name, before, after))
        elif before > after and _drifted(before, after, threshold):
            diff.timing_improvements.append((name, before, after))

    counters_a = metrics_a.get("counters", {})
    counters_b = metrics_b.get("counters", {})
    for key in sorted(counters_a.keys() & counters_b.keys()):
        if _drifted(float(counters_a[key]), float(counters_b[key]), threshold):
            diff.counter_drift.append(
                (key, float(counters_a[key]), float(counters_b[key]))
            )
    for key in sorted(series_a.keys() & series_b.keys()):
        if _drifted(series_a[key], series_b[key], threshold):
            diff.series_drift.append((key, series_a[key], series_b[key]))

    keys_a = set(counters_a) | set(series_a)
    keys_b = set(counters_b) | set(series_b)
    diff.added = sorted(keys_b - keys_a)
    diff.removed = sorted(keys_a - keys_b)
    return diff


# -- label selection and the request fold --------------------------------------


def select(
    entries: Mapping[str, object],
    name: str,
    labels: Iterable[Tuple[str, str]] = (),
) -> Dict[str, Dict[str, str]]:
    """The keys in *entries* of instrument *name* whose labels include *labels*.

    *entries* is an export section keyed by rendered key (METRICS.json
    ``counters`` or ``gauges``, SERIES.json ``series``); *labels* match
    as a subset, so ``(("outcome", "blocked_403"),)`` selects every
    label set with that outcome.  Each selected key maps to its parsed
    labels, in *entries*' order.
    """
    wanted = tuple(labels)
    selected: Dict[str, Dict[str, str]] = {}
    for rendered in entries:
        entry_name, entry_labels = parse_key(rendered)
        if entry_name == name and all(entry_labels.get(k) == v for k, v in wanted):
            selected[rendered] = entry_labels
    return selected


#: The dimensions of one request cell.  Every simulated request is one
#: :meth:`~repro.net.accesslog.AccessLog.append`, which feeds both the
#: ``sim.requests`` series and the log store, so :func:`request_cells`
#: of a run's SERIES.json equals ``repro.obs.logql.group_by(store,
#: REQUEST_CELL)`` of the same run's log store.
REQUEST_CELL = ("agent", "month", "outcome", "category")

#: ``(agent, month, outcome, category)`` -> request count.
Cells = Dict[Tuple[str, int, str, Optional[str]], int]


def request_cells(series_payload: Optional[Dict[str, object]]) -> Cells:
    """Fold ``sim.requests`` series into :data:`REQUEST_CELL` counts.

    A series without an ``agent`` label counts as ``other``; one
    without a ``site_category`` label has category None, which no
    category filter selects.
    """
    entries = (series_payload or {}).get("series", {})
    cells: Cells = {}
    for rendered, labels in select(entries, "sim.requests").items():
        entry = entries[rendered]
        agent = labels.get("agent", "other")
        outcome = labels.get("outcome", "")
        category = labels.get("site_category")
        for month, value in zip(entry.get("months", []), entry.get("values", [])):
            cell = (agent, int(month), outcome, category)
            cells[cell] = cells.get(cell, 0) + int(value)
    return cells


def known_categories(cells: Cells) -> List[str]:
    """Every site category the request cells saw, sorted.

    The vocabulary the dashboard's ``--category`` filter validates
    against: asking for a cohort outside this set is an operator typo,
    not an empty matrix.
    """
    return sorted({category for _, _, _, category in cells if category is not None})


def dashboard_matrix(
    cells: Cells, category: Optional[str] = None
) -> Dict[str, Dict[int, Dict[str, int]]]:
    """Roll request cells up into an agent-by-month matrix.

    Returns ``{agent: {month: {"requests", "blocked", "challenged"}}}``,
    the matrix ``repro dashboard`` renders.  *category* restricts the
    rollup to that site cohort.
    """
    matrix: Dict[str, Dict[int, Dict[str, int]]] = {}
    for (agent, month, outcome, cell_category), count in cells.items():
        if category is not None and cell_category != category:
            continue
        cell = matrix.setdefault(agent, {}).setdefault(
            month, {"requests": 0, "blocked": 0, "challenged": 0}
        )
        cell["requests"] += count
        if outcome == "blocked_403":
            cell["blocked"] += count
        elif outcome == "challenged":
            cell["challenged"] += count
    return matrix
