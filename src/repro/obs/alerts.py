"""Declarative SLO/alerting over exported telemetry payloads.

The paper's longitudinal signals -- robots adoption drifting month over
month, crawlers getting blocked, full-disallow rates creeping up -- are
exactly what a production measurement service must *watch*, not just
export.  :func:`evaluate` checks **declarative rules** (TOML or JSON)
against the exported payload shapes (``METRICS.json`` counters,
``SERIES.json`` month-series), optionally compared to a baseline run,
and returns one :class:`AlertEvent` per rule that fires.

Rule kinds:

``burn_rate``
    Slide a ``window``-month window over a series; fire when the
    worst window's sum (or its ratio against a ``total_labels``
    denominator on the same series) exceeds ``threshold``.  The
    canonical rule: blocked-request burn on
    ``sim.requests{outcome=blocked_403}`` against all outcomes.
``drift``
    Compare a selector's total against the same selector in a
    **baseline** run; fire when the relative change exceeds
    ``threshold``.  Canonical: ``web.robots_changes`` or
    ``measure.sites_full_disallow`` moving between runs.
``cardinality``
    Fire when a series name has collapsed into its reserved
    ``{overflow=true}`` bucket, or materialized more than
    ``max_series`` label sets.
``error_budget``
    Fire when ``counter / total_counter`` exceeds ``threshold``.
``threshold``
    Fire when a selector's total is ``above`` (default) or ``below``
    a fixed ``threshold``.
``log_volume``
    Fire on raw traffic rather than a chosen series: sum the run's
    request cells (:func:`repro.obs.analyze.request_cells`, the
    per-request counts the log store also holds) per agent and month,
    and fire when any (agent, month) count is ``above``/``below``
    ``threshold``.  An optional ``labels = {agent = "GPTBot"}`` table
    restricts the sweep to one agent.

Selectors name one instrument family (``series = "sim.requests"`` or
``counter = "net.errors"``) plus an optional ``labels`` table matched
as a *subset* (:func:`repro.obs.analyze.select`) --
``{outcome = "blocked_403"}`` sums every label set with that outcome.
The CLI surface is ``repro alerts --rules FILE [--baseline DIR]``:
exit 1 when anything fires, 0 clean, 2 on operator error -- CI-gate
semantics, like ``repro stats --diff``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

try:  # Python 3.11+ stdlib; gated so older interpreters still import
    import tomllib
except ImportError:  # pragma: no cover - 3.11 is the supported floor
    tomllib = None  # type: ignore[assignment]

from .analyze import request_cells, select
from .metrics import OVERFLOW_LABELS

__all__ = [
    "RULE_KINDS",
    "AlertError",
    "AlertRule",
    "AlertEvent",
    "load_rules",
    "evaluate",
]

#: Every rule kind :func:`evaluate` understands.
RULE_KINDS = frozenset(
    {"burn_rate", "drift", "cardinality", "error_budget", "threshold",
     "log_volume"}
)

_OVERFLOW_RENDERED = dict(OVERFLOW_LABELS)

Payload = Optional[Dict[str, object]]


class AlertError(Exception):
    """A rules file or evaluation input is unusable (operator error)."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; see the module docstring for semantics."""

    name: str
    kind: str
    severity: str = "warn"
    description: str = ""
    series: Optional[str] = None
    counter: Optional[str] = None
    labels: Tuple[Tuple[str, str], ...] = ()
    total_labels: Optional[Tuple[Tuple[str, str], ...]] = None
    total_counter: Optional[str] = None
    window: int = 3
    threshold: float = 0.0
    comparison: str = "above"
    max_series: Optional[int] = None

    @property
    def selector(self) -> str:
        """The instrument family this rule watches."""
        return self.series if self.series is not None else (self.counter or "")

    def breached(self, value: float) -> bool:
        """Whether *value* is past ``threshold`` in the rule's ``comparison``."""
        if self.comparison == "above":
            return value > self.threshold
        return value < self.threshold


@dataclass(frozen=True)
class AlertEvent:
    """A rule firing: what fired, the measured value, and its context."""

    rule: str
    kind: str
    severity: str
    message: str
    value: float
    threshold: float
    context: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rules loading
# ---------------------------------------------------------------------------

_RULE_FIELDS = {
    "name", "kind", "severity", "description", "series", "counter",
    "labels", "total_labels", "total_counter", "window", "threshold",
    "comparison", "max_series",
}


def _labels_tuple(raw: object, where: str) -> Tuple[Tuple[str, str], ...]:
    if not isinstance(raw, Mapping):
        raise AlertError(f"{where}: labels must be a table of label -> value")
    return tuple(sorted((str(k), str(v)) for k, v in raw.items()))


def _rule_from_mapping(raw: object, index: int) -> AlertRule:
    where = f"rule #{index + 1}"
    if not isinstance(raw, Mapping):
        raise AlertError(f"{where}: expected a table, got {type(raw).__name__}")
    unknown = set(raw) - _RULE_FIELDS
    if unknown:
        raise AlertError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise AlertError(f"{where}: every rule needs a string 'name'")
    where = f"rule {name!r}"
    kind = raw.get("kind")
    if kind not in RULE_KINDS:
        raise AlertError(
            f"{where}: unknown kind {kind!r} (expected one of "
            f"{', '.join(sorted(RULE_KINDS))})"
        )
    series = raw.get("series")
    counter = raw.get("counter")
    if series is not None and counter is not None:
        raise AlertError(f"{where}: give 'series' or 'counter', not both")
    if kind in ("burn_rate", "cardinality") and series is None:
        raise AlertError(f"{where}: kind {kind!r} needs a 'series' selector")
    if kind == "error_budget" and counter is None:
        raise AlertError(f"{where}: kind 'error_budget' needs a 'counter' selector")
    if kind in ("drift", "threshold") and series is None and counter is None:
        raise AlertError(f"{where}: kind {kind!r} needs a 'series' or 'counter'")
    if kind == "log_volume" and (series is not None or counter is not None):
        raise AlertError(
            f"{where}: kind 'log_volume' reads the request cells of "
            "SERIES.json's sim.requests series, not a 'series'/'counter' selector"
        )
    comparison = raw.get("comparison", "above")
    if comparison not in ("above", "below"):
        raise AlertError(f"{where}: comparison must be 'above' or 'below'")
    window = raw.get("window", 3)
    if not isinstance(window, int) or window < 1:
        raise AlertError(f"{where}: window must be a positive integer")
    try:
        threshold = float(raw.get("threshold", 0.0))
    except (TypeError, ValueError):
        raise AlertError(f"{where}: threshold must be a number") from None
    max_series = raw.get("max_series")
    if max_series is not None and (not isinstance(max_series, int) or max_series < 1):
        raise AlertError(f"{where}: max_series must be a positive integer")
    total_labels = raw.get("total_labels")
    return AlertRule(
        name=name,
        kind=kind,
        severity=str(raw.get("severity", "warn")),
        description=str(raw.get("description", "")),
        series=series,
        counter=counter,
        labels=_labels_tuple(raw.get("labels", {}), where),
        total_labels=(
            None if total_labels is None else _labels_tuple(total_labels, where)
        ),
        total_counter=raw.get("total_counter"),
        window=window,
        threshold=threshold,
        comparison=comparison,
        max_series=max_series,
    )


def load_rules(path: Union[str, Path]) -> List[AlertRule]:
    """Parse a TOML (``[[rule]]``) or JSON (``{"rules": [...]}``) file."""
    path = Path(path)
    if not path.is_file():
        raise AlertError(f"missing rules file: {path}")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if tomllib is None:  # pragma: no cover
            raise AlertError("TOML rules need Python >= 3.11; use JSON instead")
        try:
            payload = tomllib.loads(path.read_text(encoding="utf-8"))
        except (tomllib.TOMLDecodeError, OSError) as exc:
            raise AlertError(f"corrupt rules file {path}: {exc}") from exc
    elif suffix == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise AlertError(f"corrupt rules file {path}: {exc}") from exc
    else:
        raise AlertError(
            f"unrecognized rules format {path.suffix!r} (expected .toml or .json)"
        )
    if not isinstance(payload, Mapping):
        raise AlertError(f"corrupt rules file {path}: expected a top-level table")
    raw_rules = payload.get("rule", payload.get("rules"))
    if not isinstance(raw_rules, list) or not raw_rules:
        raise AlertError(
            f"rules file {path} defines no rules "
            "(use [[rule]] tables in TOML or a 'rules' array in JSON)"
        )
    rules = [_rule_from_mapping(raw, index) for index, raw in enumerate(raw_rules)]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise AlertError(f"duplicate rule name {duplicate!r}")
    return rules


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(
    rules: List[AlertRule],
    metrics: Payload,
    series: Payload,
    baseline_metrics: Payload = None,
    baseline_series: Payload = None,
) -> List[AlertEvent]:
    """Every firing across *rules*, in rule order.

    *metrics* and *series* are a run's METRICS.json and SERIES.json
    payloads; ``drift`` rules compare them against the baseline
    payloads and raise :class:`AlertError` when there are none.
    """
    fired: List[AlertEvent] = []
    for rule in rules:
        if rule.kind == "burn_rate":
            event = _burn_rate(rule, series)
        elif rule.kind == "drift":
            event = _drift(rule, metrics, series, baseline_metrics, baseline_series)
        elif rule.kind == "cardinality":
            event = _cardinality(rule, series)
        elif rule.kind == "error_budget":
            event = _error_budget(rule, metrics)
        elif rule.kind == "log_volume":
            event = _log_volume(rule, series)
        else:
            event = _threshold(rule, metrics, series)
        if event is not None:
            fired.append(event)
    return fired


def _fire(rule: AlertRule, message: str, value: float, threshold: float,
          **context: object) -> AlertEvent:
    return AlertEvent(rule.name, rule.kind, rule.severity, message, value,
                      threshold, context)


def _series_points(
    series: Payload, name: str, wanted: Tuple[Tuple[str, str], ...]
) -> Dict[int, float]:
    """Month -> summed amount across every matching label set."""
    entries = (series or {}).get("series", {})
    points: Dict[int, float] = {}
    for rendered in select(entries, name, wanted):
        entry = entries[rendered]
        for month, value in zip(entry["months"], entry["values"]):
            points[int(month)] = points.get(int(month), 0) + value
    return points


def _counter_total(
    metrics: Payload, name: str, wanted: Tuple[Tuple[str, str], ...]
) -> float:
    counters = (metrics or {}).get("counters", {})
    return sum((counters[key] for key in select(counters, name, wanted)), 0.0)


def _selector_total(rule: AlertRule, metrics: Payload, series: Payload) -> float:
    if rule.series is not None:
        return sum(_series_points(series, rule.series, rule.labels).values())
    return _counter_total(metrics, rule.counter or "", rule.labels)


def _log_volume(rule: AlertRule, series: Payload) -> Optional[AlertEvent]:
    wanted_agent = dict(rule.labels).get("agent")
    volume: Dict[Tuple[str, int], int] = {}
    for (agent, month, _, _), count in request_cells(series).items():
        if wanted_agent is None or agent == wanted_agent:
            volume[agent, month] = volume.get((agent, month), 0) + count
    breached = [
        (count, agent, month)
        for (agent, month), count in sorted(volume.items())
        if rule.breached(count)
    ]
    if not breached:
        return None
    # The first cell in (agent, month) order among the most extreme.
    pick = max if rule.comparison == "above" else min
    count, agent, month = pick(breached, key=lambda cell: cell[0])
    return _fire(
        rule,
        f"log volume for {agent} in month {month} is {count} "
        f"requests ({rule.comparison} {rule.threshold:.4g})",
        float(count), rule.threshold, agent=agent, month=month,
    )


def _burn_rate(rule: AlertRule, series: Payload) -> Optional[AlertEvent]:
    bad = _series_points(series, rule.series or "", rule.labels)
    if not bad:
        return None
    ratio_mode = rule.total_labels is not None
    total = (
        _series_points(series, rule.series or "", rule.total_labels or ())
        if ratio_mode
        else {}
    )
    months = sorted(set(bad) | set(total))
    lo, hi = months[0], months[-1]
    worst: Optional[Tuple[float, int]] = None  # (value, window start)
    for start in range(lo, hi - rule.window + 2):
        window = range(start, start + rule.window)
        num = sum(bad.get(month, 0) for month in window)
        if ratio_mode:
            den = sum(total.get(month, 0) for month in window)
            if den <= 0:
                continue
            value = num / den
        else:
            value = num
        if worst is None or value > worst[0]:
            worst = (value, start)
    if worst is None or worst[0] <= rule.threshold:
        return None
    unit = "burn rate" if ratio_mode else "events"
    return _fire(
        rule,
        f"{rule.selector} {unit} {worst[0]:.4g} over months "
        f"[{worst[1]}..{worst[1] + rule.window - 1}] exceeds "
        f"{rule.threshold:.4g}",
        worst[0], rule.threshold, window_start=worst[1], window=rule.window,
    )


def _drift(
    rule: AlertRule,
    metrics: Payload,
    series: Payload,
    baseline_metrics: Payload,
    baseline_series: Payload,
) -> Optional[AlertEvent]:
    if baseline_metrics is None and baseline_series is None:
        raise AlertError(
            f"rule {rule.name!r}: drift needs a baseline run (--baseline DIR)"
        )
    current = _selector_total(rule, metrics, series)
    baseline = _selector_total(rule, baseline_metrics, baseline_series)
    if baseline == 0:
        if current == 0:
            return None
        change = float("inf")
    else:
        change = abs(current - baseline) / baseline
    if change <= rule.threshold:
        return None
    return _fire(
        rule,
        f"{rule.selector} drifted {baseline:.4g} -> {current:.4g} "
        f"({change:+.1%} vs threshold {rule.threshold:.1%})"
        if change != float("inf")
        else f"{rule.selector} appeared: baseline 0 -> {current:.4g}",
        change, rule.threshold, baseline=baseline, current=current,
    )


def _cardinality(rule: AlertRule, series: Payload) -> Optional[AlertEvent]:
    label_sets = select((series or {}).get("series", {}), rule.series or "")
    count = len(label_sets)
    if any(labels == _OVERFLOW_RENDERED for labels in label_sets.values()):
        return _fire(
            rule,
            f"{rule.selector} collapsed into its {{overflow=true}} "
            "bucket: label cardinality exceeded the registry cap",
            float(count), float(rule.max_series or 0),
            label_sets=count, overflow=True,
        )
    if rule.max_series is not None and count > rule.max_series:
        return _fire(
            rule,
            f"{rule.selector} materialized {count} label sets "
            f"(limit {rule.max_series})",
            float(count), float(rule.max_series),
            label_sets=count, overflow=False,
        )
    return None


def _error_budget(rule: AlertRule, metrics: Payload) -> Optional[AlertEvent]:
    bad = _counter_total(metrics, rule.counter or "", rule.labels)
    total_name = rule.total_counter or rule.counter or ""
    total = _counter_total(metrics, total_name, rule.total_labels or ())
    if total <= 0:
        return None
    ratio = bad / total
    if ratio <= rule.threshold:
        return None
    return _fire(
        rule,
        f"{rule.selector}/{total_name} = {ratio:.4g} burns past the "
        f"{rule.threshold:.4g} error budget",
        ratio, rule.threshold, bad=bad, total=total,
    )


def _threshold(
    rule: AlertRule, metrics: Payload, series: Payload
) -> Optional[AlertEvent]:
    value = _selector_total(rule, metrics, series)
    if not rule.breached(value):
        return None
    return _fire(
        rule,
        f"{rule.selector} total {value:.4g} is {rule.comparison} "
        f"{rule.threshold:.4g}",
        value, rule.threshold, comparison=rule.comparison,
    )
