"""Labeled time series on the simulated-month logical clock.

The paper's operator-side question -- "how many GPTBot requests hit my
site in month 18, and how many were blocked?" -- is a *time-series*
question, not a totals question.  :class:`SeriesRegistry` answers it
natively: each :class:`Series` is keyed on ``(name, frozen label set)``
exactly like the instruments in :mod:`repro.obs.metrics`, but its value
is a mapping from the simulated-month index (the same logical clock
spans carry) to an accumulated amount.

Contract, mirroring the metrics layer:

* **Disabled fast path.**  :meth:`Series.add` checks the *metrics*
  module's one global bool first; ``set_metrics_enabled(False)``
  silences series and counters together, and the residual cost is one
  bool test (gated by ``benchmarks/bench_obs_overhead.py``).
* **Determinism.**  Series amounts on the instrumented paths are
  integer event counts, so per-month sums are exact and identical for
  serial / thread / fork scheduling -- ``tests/report/test_orchestrator.py``
  demands byte-identical ``SERIES.json`` across all three modes.
* **Worker shipping.**  :meth:`SeriesRegistry.snapshot` /
  :func:`snapshot_delta` / :meth:`SeriesRegistry.merge` compose exactly
  like the counter protocol: :func:`repro.fanout.fan_out` snapshots
  before each fork-pool unit, ships the delta, and the parent merges
  by per-month addition.
* **Bounded cardinality.**  A registry refuses to materialize more than
  ``max_series_per_name`` labeled children per series name; overflowing
  label sets collapse into one reserved ``{overflow=true}`` bucket so a
  runaway label (e.g. raw user-agent strings) cannot exhaust memory.
  Instrumented call sites additionally normalize user agents through a
  fixed vocabulary (see :func:`repro.net.accesslog.agent_label`), so in
  practice the cap never triggers.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional, Tuple, Union

from ..columnar import atomic_write
from . import metrics as _metrics
from .metrics import InstrumentKey, _make_key, render_key

__all__ = [
    "Series",
    "SeriesRegistry",
    "SERIES_SCHEMA_VERSION",
    "DEFAULT_MAX_SERIES_PER_NAME",
    "OVERFLOW_LABELS",
    "shared_series",
    "snapshot_delta",
    "export_series",
]

#: Schema version stamped into exported SERIES.json payloads.
SERIES_SCHEMA_VERSION = 1

#: Per-name cardinality ceiling; far above anything the bounded label
#: vocabularies (agent tokens, site categories, outcomes) can produce.
DEFAULT_MAX_SERIES_PER_NAME = 1024

#: Reserved label set that absorbs series beyond the cardinality cap.
OVERFLOW_LABELS: Tuple[Tuple[str, str], ...] = (("overflow", "true"),)

#: ``{key: {month: amount}}`` -- the picklable snapshot tree.
SeriesSnapshot = Dict[InstrumentKey, Dict[int, float]]


class Series:
    """One labeled time series: month index -> accumulated amount.

    Handles are cheap to hold; hot call sites fetch one from the
    registry once and call :meth:`add` directly, paying a bool check
    plus one lock per event.
    """

    __slots__ = ("key", "_lock", "_points")

    def __init__(self, key: InstrumentKey):
        self.key = key
        self._lock = threading.Lock()
        self._points: Dict[int, float] = {}

    def add(self, month: int, amount: float = 1) -> None:
        """Add *amount* at *month* (no-op while metrics are disabled).

        Zero amounts record nothing: a month with no events is absent
        from the series, not an explicit zero.  (Were zeros
        materialized, serial runs would carry them while fork workers'
        :func:`snapshot_delta` shipping would drop them, breaking the
        byte-identical SERIES.json contract.)
        """
        if not _metrics._ENABLED or amount == 0:
            return
        with self._lock:
            self._points[month] = self._points.get(month, 0) + amount

    def _merge(self, points: Dict[int, float]) -> None:
        with self._lock:
            for month, amount in points.items():
                self._points[month] = self._points.get(month, 0) + amount

    def _reset(self) -> None:
        with self._lock:
            self._points = {}

    @property
    def total(self) -> float:
        """Sum over all months."""
        with self._lock:
            return sum(self._points.values())

    def points(self) -> Dict[int, float]:
        """A detached month -> amount copy, in ascending month order."""
        with self._lock:
            return dict(sorted(self._points.items()))


class SeriesRegistry:
    """A thread-safe home for every time series in a process.

    >>> registry = SeriesRegistry()
    >>> registry.add("sim.requests", month=3, agent="GPTBot")
    >>> registry.series("sim.requests", agent="GPTBot").points()
    {3: 1}
    """

    def __init__(self, max_series_per_name: int = DEFAULT_MAX_SERIES_PER_NAME):
        self._lock = threading.RLock()
        self._series: Dict[InstrumentKey, Series] = {}
        self._per_name: Dict[str, int] = {}
        self._max_per_name = max_series_per_name

    # -- series access --------------------------------------------------------

    def series(self, name: str, **labels: object) -> Series:
        """Get or create the series for ``(name, labels)``.

        Beyond ``max_series_per_name`` distinct label sets for one
        *name*, new label sets all resolve to the shared
        ``{overflow=true}`` bucket for that name.
        """
        key = _make_key(name, labels)
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                if labels and self._per_name.get(name, 0) >= self._max_per_name:
                    key = (name, OVERFLOW_LABELS)
                    instrument = self._series.get(key)
                    if instrument is not None:
                        return instrument
                instrument = Series(key)
                self._series[key] = instrument
                self._per_name[name] = self._per_name.get(name, 0) + 1
            return instrument

    def add(self, name: str, month: int, amount: float = 1, **labels: object) -> None:
        """Add to a series by name (creates it on first use)."""
        if not _metrics._ENABLED:
            return
        self.series(name, **labels).add(month, amount)

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> SeriesSnapshot:
        """A picklable ``{key: {month: amount}}`` tree, detached."""
        with self._lock:
            instruments = dict(self._series)
        return {
            key: instrument.points()
            for key, instrument in instruments.items()
            if instrument._points
        }

    def merge(
        self, other: Union["SeriesRegistry", SeriesSnapshot]
    ) -> None:
        """Fold *other* (a registry or snapshot) into this registry.

        Per-month amounts add; series unseen locally are created.  Like
        counter merging, this works while metrics are disabled -- it
        ships already-recorded data rather than recording new data.
        """
        snapshot = other.snapshot() if isinstance(other, SeriesRegistry) else other
        for (name, labels), points in snapshot.items():
            if points:
                self.series(name, **dict(labels))._merge(points)

    def reset(self) -> None:
        """Zero every series **in place**; held handles stay valid."""
        with self._lock:
            instruments = list(self._series.values())
        for instrument in instruments:
            instrument._reset()

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A schema-versioned, JSON-able rendering.

        Months and values are parallel arrays in ascending month order
        (a JSON object keyed by month would sort ``"10" < "2"``), and
        the outer mapping uses rendered string keys, so dumping with
        ``sort_keys=True`` is byte-deterministic.
        """
        rendered: Dict[str, object] = {}
        for key, points in sorted(self.snapshot().items()):
            months = sorted(points)
            rendered[render_key(key)] = {
                "months": months,
                "values": [points[month] for month in months],
                "total": sum(points[month] for month in months),
            }
        return {"schema_version": SERIES_SCHEMA_VERSION, "series": rendered}


def snapshot_delta(after: SeriesSnapshot, before: SeriesSnapshot) -> SeriesSnapshot:
    """``after - before`` for two snapshots of the same registry.

    Per-month amounts subtract (zero months and empty series are
    dropped), so a forked worker ships only the activity it performed.
    """
    delta: SeriesSnapshot = {}
    for key, points in after.items():
        prior = before.get(key, {})
        diff = {
            month: amount - prior.get(month, 0)
            for month, amount in points.items()
            if amount != prior.get(month, 0)
        }
        if diff:
            delta[key] = diff
    return delta


def export_series(path, registry: Optional["SeriesRegistry"] = None) -> None:
    """Write *registry* (default: the shared one) as JSON to *path*."""
    registry = registry if registry is not None else shared_series()
    atomic_write(path, json.dumps(registry.to_json(), indent=2, sort_keys=True) + "\n")


_SHARED_SERIES = SeriesRegistry()


def shared_series() -> SeriesRegistry:
    """The process-wide series registry instrumented layers report to."""
    return _SHARED_SERIES
