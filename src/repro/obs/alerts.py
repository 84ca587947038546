"""Declarative SLO/alerting over exported telemetry payloads.

The paper's longitudinal signals -- robots adoption drifting month over
month, crawlers getting blocked, full-disallow rates creeping up -- are
exactly what a production measurement service must *watch*, not just
export.  This module evaluates **declarative rules** (TOML or JSON)
against the exported payload shapes (``METRICS.json`` counters,
``SERIES.json`` month-series), optionally compared to a baseline run,
and fires structured :class:`AlertEvent` records.

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
    Fire on raw traffic rather than derived series: evaluate per-agent
    monthly request counts from a committed log store (``repro alerts
    --log-store DIR``) and fire when any (agent, month) count is
    ``above``/``below`` ``threshold``.  An optional
    ``labels = {agent = "GPTBot"}`` table restricts the sweep to one
    agent.

Selectors name one instrument family (``series = "sim.requests"`` or
``counter = "net.errors"``) plus an optional ``labels`` table matched
as a *subset* -- ``{outcome = "blocked_403"}`` sums every label set
with that outcome.  The CLI surface is ``repro alerts --rules FILE
[--baseline DIR]``: exit 1 when anything fires, 0 clean, 2 on operator
error -- CI-gate semantics, like ``repro stats --diff``.
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

from .analyze import parse_key
from .series import OVERFLOW_LABELS

__all__ = [
    "ALERTS_SCHEMA_VERSION",
    "RULE_KINDS",
    "AlertError",
    "AlertRule",
    "AlertEvent",
    "load_rules",
    "AlertEngine",
]

#: Schema version stamped into serialized alert events.
ALERTS_SCHEMA_VERSION = 1

#: Every rule kind the engine understands.
RULE_KINDS = frozenset(
    {"burn_rate", "drift", "cardinality", "error_budget", "threshold",
     "log_volume"}
)

_OVERFLOW_RENDERED = dict(OVERFLOW_LABELS)


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


@dataclass(frozen=True)
class AlertEvent:
    """A rule firing: structured, JSON-able, bus-publishable."""

    rule: str
    kind: str
    severity: str
    message: str
    value: float
    threshold: float
    context: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """Serialize for the event bus / JSONL stream."""
        return {
            "schema_version": ALERTS_SCHEMA_VERSION,
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "context": dict(self.context),
        }


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
            f"{where}: kind 'log_volume' reads the log store, "
            "not a 'series'/'counter' selector"
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
# selector matching over payload shapes
# ---------------------------------------------------------------------------

def _labels_match(
    labels: Dict[str, str], wanted: Tuple[Tuple[str, str], ...]
) -> bool:
    return all(labels.get(k) == v for k, v in wanted)


def _series_points(
    series_payload: Optional[Dict[str, object]],
    name: str,
    wanted: Tuple[Tuple[str, str], ...],
) -> Dict[int, float]:
    """Month -> summed amount across every matching label set."""
    points: Dict[int, float] = {}
    entries = (series_payload or {}).get("series", {})
    for rendered, entry in entries.items():
        entry_name, labels = parse_key(rendered)
        if entry_name != name or not _labels_match(labels, wanted):
            continue
        for month, value in zip(entry["months"], entry["values"]):
            points[int(month)] = points.get(int(month), 0) + value
    return points


def _counter_total(
    metrics_payload: Optional[Dict[str, object]],
    name: str,
    wanted: Tuple[Tuple[str, str], ...],
) -> float:
    total = 0.0
    for rendered, value in (metrics_payload or {}).get("counters", {}).items():
        entry_name, labels = parse_key(rendered)
        if entry_name == name and _labels_match(labels, wanted):
            total += value
    return total


def _selector_total(
    rule: AlertRule,
    metrics_payload: Optional[Dict[str, object]],
    series_payload: Optional[Dict[str, object]],
) -> float:
    if rule.series is not None:
        return sum(_series_points(series_payload, rule.series, rule.labels).values())
    return _counter_total(metrics_payload, rule.counter or "", rule.labels)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class AlertEngine:
    """Evaluate a rule set against telemetry payloads.

    Baseline payloads (for ``drift`` rules) bind at construction, so
    the same engine instance can evaluate repeatedly without
    re-reading the baseline.
    """

    def __init__(
        self,
        rules: List[AlertRule],
        baseline_metrics: Optional[Dict[str, object]] = None,
        baseline_series: Optional[Dict[str, object]] = None,
    ):
        self.rules = list(rules)
        self._baseline_metrics = baseline_metrics
        self._baseline_series = baseline_series

    def evaluate(
        self,
        metrics: Optional[Dict[str, object]] = None,
        series: Optional[Dict[str, object]] = None,
        log_timelines: Optional[Dict[str, Dict[int, int]]] = None,
    ) -> List[AlertEvent]:
        """Every firing across the rule set, in rule order.

        *log_timelines* is the ``{agent: {month: count}}`` shape
        :func:`repro.obs.logql.timelines` produces; required only when
        the rule set contains ``log_volume`` rules.
        """
        fired: List[AlertEvent] = []
        for rule in self.rules:
            event = self._evaluate_rule(rule, metrics, series, log_timelines)
            if event is not None:
                fired.append(event)
        return fired

    # -- per-kind evaluation -------------------------------------------------

    def _evaluate_rule(
        self,
        rule: AlertRule,
        metrics: Optional[Dict[str, object]],
        series: Optional[Dict[str, object]],
        log_timelines: Optional[Dict[str, Dict[int, int]]] = None,
    ) -> Optional[AlertEvent]:
        if rule.kind == "burn_rate":
            return self._eval_burn_rate(rule, series)
        if rule.kind == "drift":
            return self._eval_drift(rule, metrics, series)
        if rule.kind == "cardinality":
            return self._eval_cardinality(rule, series)
        if rule.kind == "error_budget":
            return self._eval_error_budget(rule, metrics)
        if rule.kind == "log_volume":
            return self._eval_log_volume(rule, log_timelines)
        return self._eval_threshold(rule, metrics, series)

    def _eval_log_volume(
        self,
        rule: AlertRule,
        log_timelines: Optional[Dict[str, Dict[int, int]]],
    ) -> Optional[AlertEvent]:
        if log_timelines is None:
            raise AlertError(
                f"rule {rule.name!r}: log_volume needs a log store "
                "(--log-store DIR)"
            )
        wanted_agent = dict(rule.labels).get("agent")
        worst: Optional[Tuple[int, str, int]] = None  # (count, agent, month)
        for agent in sorted(log_timelines):
            if wanted_agent is not None and agent != wanted_agent:
                continue
            for month, count in sorted(log_timelines[agent].items()):
                breached = (
                    count > rule.threshold
                    if rule.comparison == "above"
                    else count < rule.threshold
                )
                if not breached:
                    continue
                extremer = (
                    worst is None
                    or (count > worst[0] if rule.comparison == "above"
                        else count < worst[0])
                )
                if extremer:
                    worst = (count, agent, month)
        if worst is None:
            return None
        count, agent, month = worst
        return AlertEvent(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            message=(
                f"log volume for {agent} in month {month} is {count} "
                f"requests ({rule.comparison} {rule.threshold:.4g})"
            ),
            value=float(count),
            threshold=rule.threshold,
            context={"agent": agent, "month": month},
        )

    def _eval_burn_rate(
        self, rule: AlertRule, series: Optional[Dict[str, object]]
    ) -> Optional[AlertEvent]:
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
        return AlertEvent(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            message=(
                f"{rule.selector} {unit} {worst[0]:.4g} over months "
                f"[{worst[1]}..{worst[1] + rule.window - 1}] exceeds "
                f"{rule.threshold:.4g}"
            ),
            value=worst[0],
            threshold=rule.threshold,
            context={"window_start": worst[1], "window": rule.window},
        )

    def _eval_drift(
        self,
        rule: AlertRule,
        metrics: Optional[Dict[str, object]],
        series: Optional[Dict[str, object]],
    ) -> Optional[AlertEvent]:
        if self._baseline_metrics is None and self._baseline_series is None:
            raise AlertError(
                f"rule {rule.name!r}: drift needs a baseline run (--baseline DIR)"
            )
        current = _selector_total(rule, metrics, series)
        baseline = _selector_total(
            rule, self._baseline_metrics, self._baseline_series
        )
        if baseline == 0:
            if current == 0:
                return None
            change = float("inf")
        else:
            change = abs(current - baseline) / baseline
        if change <= rule.threshold:
            return None
        return AlertEvent(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            message=(
                f"{rule.selector} drifted {baseline:.4g} -> {current:.4g} "
                f"({change:+.1%} vs threshold {rule.threshold:.1%})"
                if change != float("inf")
                else f"{rule.selector} appeared: baseline 0 -> {current:.4g}"
            ),
            value=change,
            threshold=rule.threshold,
            context={"baseline": baseline, "current": current},
        )

    def _eval_cardinality(
        self, rule: AlertRule, series: Optional[Dict[str, object]]
    ) -> Optional[AlertEvent]:
        count = 0
        overflowed = False
        for rendered in (series or {}).get("series", {}):
            name, labels = parse_key(rendered)
            if name != (rule.series or ""):
                continue
            count += 1
            if labels == _OVERFLOW_RENDERED:
                overflowed = True
        if overflowed:
            return AlertEvent(
                rule=rule.name,
                kind=rule.kind,
                severity=rule.severity,
                message=(
                    f"{rule.selector} collapsed into its {{overflow=true}} "
                    "bucket: label cardinality exceeded the registry cap"
                ),
                value=float(count),
                threshold=float(rule.max_series or 0),
                context={"label_sets": count, "overflow": True},
            )
        if rule.max_series is not None and count > rule.max_series:
            return AlertEvent(
                rule=rule.name,
                kind=rule.kind,
                severity=rule.severity,
                message=(
                    f"{rule.selector} materialized {count} label sets "
                    f"(limit {rule.max_series})"
                ),
                value=float(count),
                threshold=float(rule.max_series),
                context={"label_sets": count, "overflow": False},
            )
        return None

    def _eval_error_budget(
        self, rule: AlertRule, metrics: Optional[Dict[str, object]]
    ) -> Optional[AlertEvent]:
        bad = _counter_total(metrics, rule.counter or "", rule.labels)
        total_name = rule.total_counter or rule.counter or ""
        total = _counter_total(metrics, total_name, rule.total_labels or ())
        if total <= 0:
            return None
        ratio = bad / total
        if ratio <= rule.threshold:
            return None
        return AlertEvent(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            message=(
                f"{rule.selector}/{total_name} = {ratio:.4g} burns past the "
                f"{rule.threshold:.4g} error budget"
            ),
            value=ratio,
            threshold=rule.threshold,
            context={"bad": bad, "total": total},
        )

    def _eval_threshold(
        self,
        rule: AlertRule,
        metrics: Optional[Dict[str, object]],
        series: Optional[Dict[str, object]],
    ) -> Optional[AlertEvent]:
        value = _selector_total(rule, metrics, series)
        breached = (
            value > rule.threshold
            if rule.comparison == "above"
            else value < rule.threshold
        )
        if not breached:
            return None
        return AlertEvent(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            message=(
                f"{rule.selector} total {value:.4g} is {rule.comparison} "
                f"{rule.threshold:.4g}"
            ),
            value=value,
            threshold=rule.threshold,
            context={"comparison": rule.comparison},
        )
