"""Process-wide metrics: counters, gauges, histograms and month series.

The reproduction pipeline's credibility rests on measurement provenance:
knowing how many fetches each crawler made, how often the policy caches
answered from memory, and how request volume distributed over sites
and simulated months.  :class:`MetricsRegistry` gives those numbers one
mergeable, dependency-free home.

Four instrument kinds, all keyed by ``(name, sorted labels)``:

* :class:`Counter` -- a monotonically increasing integer.  Counters are
  **deterministic**: for a fixed workload their totals are identical
  whether :func:`repro.fanout.fan_out` runs in line or on forked
  workers, which ``tests/report/test_orchestrator.py`` enforces for the
  experiment battery.
* :class:`Gauge` -- a point-in-time float.  Gauges are *process-local
  observations* (cache occupancy, hit counts of shared caches) and are
  explicitly excluded from cross-mode identity guarantees.
* :class:`Histogram` -- fixed upper-bound buckets plus sum/count.
  Bucket counts add under merge, so histograms keep the determinism
  guarantee counters have.
* :class:`Series` -- month index -> accumulated amount on the
  simulated-month clock spans carry (the operator's "how many GPTBot
  requests hit my site in month 18?").  Amounts are integer event
  counts, so per-month sums are exact under merge; label sets beyond
  :data:`MAX_SERIES_PER_NAME` per name share one ``{overflow=true}``
  series.

Worker support: :meth:`MetricsRegistry.snapshot` produces a picklable
value tree, :func:`snapshot_delta` subtracts a "before" snapshot from an
"after" one, and :meth:`MetricsRegistry.merge` folds a snapshot (e.g.
one a fork-pool unit of :func:`repro.fanout.fan_out` shipped back)
into the parent registry.

Export: :meth:`MetricsRegistry.to_json` is ``METRICS.json`` (counters,
gauges, histograms) and :meth:`MetricsRegistry.series_json` is
``SERIES.json`` (:func:`repro.obs.series.export_series`).

Overhead: every mutation checks a module-global enabled flag first, so
``set_metrics_enabled(False)`` reduces each instrument call to a bool
test (benchmarked in ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..columnar import atomic_write

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "MAX_SERIES_PER_NAME",
    "OVERFLOW_LABELS",
    "METRICS_SCHEMA_VERSION",
    "SERIES_SCHEMA_VERSION",
    "metrics_enabled",
    "metrics_disabled",
    "set_metrics_enabled",
    "shared_registry",
    "snapshot_delta",
    "render_key",
    "parse_key",
    "export_metrics",
]

#: Schema version stamped into exported METRICS.json payloads.
METRICS_SCHEMA_VERSION = 1

#: Schema version stamped into exported SERIES.json payloads.
SERIES_SCHEMA_VERSION = 1

#: Per-name series cardinality ceiling; far above anything the bounded
#: label vocabularies (agent tokens, site categories, outcomes) produce.
MAX_SERIES_PER_NAME = 1024

#: Reserved label set that absorbs series beyond the cardinality cap.
OVERFLOW_LABELS: Tuple[Tuple[str, str], ...] = (("overflow", "true"),)

#: Default histogram upper bounds (a generic 1-2-5 ladder for counts);
#: the final implicit bucket is +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

_ENABLED = True

#: ``(name, (("label", "value"), ...))`` -- the canonical instrument key.
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metrics_enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _ENABLED


def set_metrics_enabled(enabled: bool) -> None:
    """Globally enable/disable metric recording (reads still work)."""
    global _ENABLED
    _ENABLED = bool(enabled)


class _MetricsDisabled:
    """Context manager: every instrument off inside the block."""

    __slots__ = ("_was",)

    def __enter__(self) -> "_MetricsDisabled":
        global _ENABLED
        self._was = _ENABLED
        _ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> bool:
        set_metrics_enabled(self._was)
        return False


def metrics_disabled() -> _MetricsDisabled:
    """``with metrics_disabled(): ...`` -- silence recording, then restore.

    The flag is restored to whatever it was on entry, so nesting and
    use inside already-disabled regions are safe.
    """
    return _MetricsDisabled()


def _make_key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def render_key(key: InstrumentKey) -> str:
    """Render an instrument key as ``name{label=value,...}``."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def parse_key(rendered: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`render_key`.

    ``"sim.requests{agent=GPTBot,outcome=served}"`` becomes
    ``("sim.requests", {"agent": "GPTBot", "outcome": "served"})``.
    """
    if not rendered.endswith("}") or "{" not in rendered:
        return rendered, {}
    name, _, raw = rendered[:-1].partition("{")
    labels: Dict[str, str] = {}
    for pair in raw.split(","):
        key, _, value = pair.partition("=")
        if key:
            labels[key] = value
    return name, labels


class Counter:
    """A monotonically increasing labeled counter.

    Handles are cheap to hold: hot call sites fetch one from the
    registry once and call :meth:`inc` directly, paying a bool check
    plus one add per increment.
    """

    __slots__ = ("key", "_value")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (no-op while metrics are disabled)."""
        if _ENABLED:
            self._value += amount

    def _merge(self, amount: int) -> None:
        self._value += amount

    def _reset(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        """Current total."""
        return self._value


class Gauge:
    """A point-in-time float measurement (process-local by contract).

    It also counts its writes, so :func:`snapshot_delta` can tell a
    gauge set since a snapshot from one left at its value.
    """

    __slots__ = ("key", "_value", "_writes")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._value = 0.0
        self._writes = 0

    def set(self, value: float) -> None:
        """Record the current value (no-op while metrics are disabled)."""
        if _ENABLED:
            self._merge(value)

    def _merge(self, value: float) -> None:
        self._value = float(value)
        self._writes += 1

    def _reset(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """Last recorded value."""
        return self._value


class Histogram:
    """A fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Bucket layout is fixed at
    creation, so histograms from different workers merge by elementwise
    addition.
    """

    __slots__ = ("key", "bounds", "_counts", "_sum", "_count")

    def __init__(self, key: InstrumentKey, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (no-op while metrics are disabled)."""
        if not _ENABLED:
            return
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    def _merge(self, payload: Dict[str, object]) -> None:
        if tuple(payload["bounds"]) != self.bounds:
            raise ValueError(f"histogram bucket mismatch for {render_key(self.key)}")
        for index, amount in enumerate(payload["counts"]):
            self._counts[index] += amount
        self._sum += payload["sum"]
        self._count += payload["count"]

    def _reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def counts(self) -> List[int]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        return list(self._counts)

    def to_payload(self) -> Dict[str, object]:
        """A picklable/JSON-able value snapshot of this histogram."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }


class Series:
    """One labeled month series: month index -> accumulated amount.

    Handles are cheap to hold; hot call sites fetch one from the
    registry once and call :meth:`add` directly, paying a bool check
    plus one dict update per event.
    """

    __slots__ = ("key", "_points")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._points: Dict[int, float] = {}

    def add(self, month: int, amount: float = 1) -> None:
        """Add *amount* at *month* (no-op while metrics are disabled).

        Zero amounts record nothing: a month with no events is absent
        from the series, not an explicit zero.  (Were zeros
        materialized, an in-line run would carry them while a fork
        worker's :func:`snapshot_delta` drops them, breaking the
        byte-identical SERIES.json contract.)
        """
        if not _ENABLED or amount == 0:
            return
        self._points[month] = self._points.get(month, 0) + amount

    def _merge(self, points: Dict[int, float]) -> None:
        for month, amount in points.items():
            self._points[month] = self._points.get(month, 0) + amount

    def _reset(self) -> None:
        self._points = {}

    @property
    def total(self) -> float:
        """Sum over all months."""
        return sum(self._points.values())

    def points(self) -> Dict[int, float]:
        """A detached month -> amount copy, in ascending month order."""
        return dict(sorted(self._points.items()))


class MetricsRegistry:
    """The home of every instrument in a process.

    >>> registry = MetricsRegistry()
    >>> registry.inc("fetches", agent="GPTBot")
    >>> registry.counter_value("fetches", agent="GPTBot")
    1
    >>> registry.add("sim.requests", month=3, agent="GPTBot")
    >>> registry.series("sim.requests", agent="GPTBot").points()
    {3: 1}
    """

    def __init__(self) -> None:
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}
        self._series: Dict[InstrumentKey, Series] = {}
        self._series_per_name: Dict[str, int] = {}

    # -- instrument access ----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter for ``(name, labels)``."""
        key = _make_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge for ``(name, labels)``."""
        key = _make_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram for ``(name, labels)``.

        *buckets* only applies on first creation; later callers get the
        existing instrument regardless of the bounds they pass.
        """
        key = _make_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key, bounds=buckets)
        return instrument

    def series(self, name: str, **labels: object) -> Series:
        """Get or create the month series for ``(name, labels)``.

        Beyond :data:`MAX_SERIES_PER_NAME` distinct label sets for one
        *name*, new label sets all resolve to the shared
        ``{overflow=true}`` series for that name.
        """
        key = _make_key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            used = self._series_per_name.get(name, 0)
            if labels and used >= MAX_SERIES_PER_NAME:
                key = (name, OVERFLOW_LABELS)
                instrument = self._series.get(key)
                if instrument is not None:
                    return instrument
            instrument = self._series[key] = Series(key)
            self._series_per_name[name] = used + 1
        return instrument

    # -- one-shot conveniences ------------------------------------------------

    def inc(self, name: str, **labels: object) -> None:
        """Increment a counter by one, by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.counter(name, **labels).inc()

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Observe into a histogram by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.histogram(name, **labels).observe(value)

    def add(self, name: str, month: int, amount: float = 1, **labels: object) -> None:
        """Add to a month series by name (creates it on first use)."""
        if not _ENABLED:
            return
        self.series(name, **labels).add(month, amount)

    def counter_value(self, name: str, **labels: object) -> int:
        """Current counter total (0 when the counter does not exist)."""
        instrument = self._counters.get(_make_key(name, labels))
        return instrument.value if instrument is not None else 0

    def counter_totals(self, prefix: str = "") -> Dict[str, int]:
        """Rendered key -> total for every counter named under *prefix*.

        The reporting surface for families of labeled counters (e.g.
        all ``net.errors{kind=...}`` children, or everything a chaos
        campaign recorded under ``chaos.``), sorted by rendered key so
        output is stable.
        """
        return {
            render_key(key): instrument.value
            for key, instrument in sorted(self._counters.items())
            if key[0].startswith(prefix)
        }

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[InstrumentKey, object]]:
        """A picklable value snapshot: plain dicts keyed by instrument key.

        The returned tree is detached from the registry (safe to ship
        across processes) and is the input format :meth:`merge` and
        :func:`snapshot_delta` consume.
        """
        gauges = self._gauges
        return {
            "counters": {key: c.value for key, c in self._counters.items()},
            "gauges": {key: g.value for key, g in gauges.items()},
            "gauge_writes": {key: g._writes for key, g in gauges.items()},
            "histograms": {key: h.to_payload() for key, h in self._histograms.items()},
            # Empty series are left out: only months with events ship.
            "series": {key: s.points() for key, s in self._series.items() if s._points},
        }

    def merge(
        self,
        other: Union["MetricsRegistry", Dict[str, Dict[InstrumentKey, object]]],
    ) -> None:
        """Fold *other* (a registry or a snapshot) into this registry.

        Counters, histograms and per-month series amounts add; gauges
        take the incoming value (last write wins).  Counters, gauges
        and histograms unseen locally are created, even at zero, so an
        instrument a fork worker created but never touched exists in
        the parent as it would after an in-line run.  Merging works
        even while metrics are disabled -- it ships already-recorded
        data rather than recording new data.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for (name, labels), value in snapshot.get("counters", {}).items():
            self.counter(name, **dict(labels))._merge(value)
        for (name, labels), value in snapshot.get("gauges", {}).items():
            self.gauge(name, **dict(labels))._merge(value)
        for (name, labels), payload in snapshot.get("histograms", {}).items():
            self.histogram(
                name, buckets=payload["bounds"], **dict(labels)
            )._merge(payload)
        for (name, labels), points in snapshot.get("series", {}).items():
            if points:
                self.series(name, **dict(labels))._merge(points)

    def reset(self) -> None:
        """Zero every instrument **in place**.

        Long-lived handles held by hot call sites stay valid -- they
        simply start counting from zero again.
        """
        for instruments in (self._counters, self._gauges, self._histograms, self._series):
            for instrument in instruments.values():
                instrument._reset()

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """The METRICS.json payload: schema-versioned, sorted string keys.

        Month series are not in it; :meth:`series_json` renders them.
        """
        snapshot = self.snapshot()
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {
                render_key(key): value
                for key, value in sorted(snapshot["counters"].items())
            },
            "gauges": {
                render_key(key): value
                for key, value in sorted(snapshot["gauges"].items())
            },
            "histograms": {
                render_key(key): payload
                for key, payload in sorted(snapshot["histograms"].items())
            },
        }

    def series_json(self) -> Dict[str, object]:
        """The SERIES.json payload: every non-empty month series.

        Months and values are parallel arrays in ascending month order
        (a JSON object keyed by month would sort ``"10" < "2"``), and
        the outer mapping uses rendered string keys, so dumping with
        ``sort_keys=True`` is byte-deterministic.
        """
        rendered: Dict[str, object] = {}
        for key, points in sorted(self.snapshot()["series"].items()):
            months = sorted(points)
            rendered[render_key(key)] = {
                "months": months,
                "values": [points[month] for month in months],
                "total": sum(points[month] for month in months),
            }
        return {"schema_version": SERIES_SCHEMA_VERSION, "series": rendered}


def snapshot_delta(
    after: Dict[str, Dict[InstrumentKey, object]],
    before: Dict[str, Dict[InstrumentKey, object]],
) -> Dict[str, Dict[InstrumentKey, object]]:
    """``after - before`` for two snapshots of the same registry.

    Counters and histogram counts subtract elementwise; a gauge keeps
    its *after* value when it was set since *before*.  A zero result is
    dropped for an instrument that already existed in *before*, and kept
    for one created since, so the delta also carries instruments created
    but never touched.  Series amounts subtract per month, and zero
    months and empty series are dropped.  This is how a forked worker
    ships only the activity it performed, excluding whatever the parent
    had already recorded at fork time, and how a run exports only what
    it recorded.
    """
    prior_counters = before.get("counters", {})
    counters: Dict[InstrumentKey, int] = {}
    for key, value in after.get("counters", {}).items():
        diff = value - prior_counters.get(key, 0)
        if diff or key not in prior_counters:
            counters[key] = diff
    histograms: Dict[InstrumentKey, object] = {}
    for key, payload in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None:
            histograms[key] = payload
            continue
        counts = [a - b for a, b in zip(payload["counts"], prior["counts"])]
        count = payload["count"] - prior["count"]
        if count:
            histograms[key] = {
                "bounds": payload["bounds"],
                "counts": counts,
                "sum": payload["sum"] - prior["sum"],
                "count": count,
            }
    series: Dict[InstrumentKey, Dict[int, float]] = {}
    prior_series = before.get("series", {})
    for key, points in after.get("series", {}).items():
        prior = prior_series.get(key, {})
        diff = {
            month: amount - prior.get(month, 0)
            for month, amount in points.items()
            if amount != prior.get(month, 0)
        }
        if diff:
            series[key] = diff
    prior_writes = before.get("gauge_writes", {})
    writes = after.get("gauge_writes", {})
    gauges = {
        key: value
        for key, value in after.get("gauges", {}).items()
        if key not in prior_writes or writes.get(key) != prior_writes[key]
    }
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "series": series,
    }


def export_metrics(path, registry: Optional["MetricsRegistry"] = None) -> None:
    """Write *registry* (default: the shared one) as JSON to *path*."""
    registry = registry if registry is not None else shared_registry()
    atomic_write(path, json.dumps(registry.to_json(), indent=2, sort_keys=False) + "\n")


_SHARED_REGISTRY = MetricsRegistry()


def shared_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer reports to."""
    return _SHARED_REGISTRY
