"""One fan-out for every parallel stage: serial, thread pool or fork pool.

:func:`fan_out` runs ``n`` units of work -- the experiments of a
battery, the shards of an archive crawl, the specs of a snapshot
collection -- and returns their results in unit order, so scheduling
can never reorder what a caller assembles.

Four process-local buffers record what a unit did: the metrics
registry, the series registry, the tracer's span records and the
installed wide-event sink's streams.  Serial and thread units write
straight into the shared instances and capture nothing.  A fork child
owns copies of all four, so before each unit it takes a mark on every
buffer, and after the unit it ships the deltas home with the result
(:func:`~repro.obs.metrics.snapshot_delta`,
:func:`~repro.obs.series.snapshot_delta`,
:meth:`~repro.obs.trace.Tracer.records_since`,
:meth:`~repro.net.logstore.LogSink.delta`).  Once the pool has closed,
the parent merges the deltas in unit order, so counters, series, span
trees and log streams come out as a serial run writes them.

The unit callable never crosses the pipe: it sits in a module global
while the pool forks, so children inherit the world it closes over
(populations, bundles, stores) and only the unit index is pickled.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, TypeVar

from .net.accesslog import active_log_sink
from .obs.metrics import shared_registry, snapshot_delta
from .obs.series import shared_series
from .obs.series import snapshot_delta as series_delta
from .obs.trace import adopt_current_span, current_span, shared_tracer

__all__ = ["MODES", "fan_out", "resolve_mode"]

#: Every execution mode a caller may ask for.
MODES = ("auto", "serial", "thread", "process")

T = TypeVar("T")

#: The unit a fork pool runs; set only while that pool is open.
_UNIT: Optional[Callable[[int], object]] = None


def resolve_mode(mode: str, workers: int) -> str:
    """The mode ("serial", "thread" or "process") *mode* means here.

    One worker always runs serially.  "auto" picks processes only with
    real cores and a fork start method (children must inherit the
    world, not re-pickle it), threads otherwise.

    Raises:
        ValueError: *mode* is not one of :data:`MODES`.
    """
    if mode not in MODES:
        raise ValueError(
            f"unknown execution mode {mode!r}; expected one of: {', '.join(MODES)}"
        )
    if workers <= 1:
        return "serial"
    if mode != "auto":
        return mode
    if (os.cpu_count() or 1) > 1 and "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


def fan_out(
    unit: Callable[[int], T], n: int, workers: Optional[int], mode: str
) -> List[T]:
    """``[unit(0), ..., unit(n - 1)]``, run per *mode* on *workers* workers.

    *workers* ``None`` means one; *mode* is resolved by
    :func:`resolve_mode`.  A unit's exception reaches the caller in
    every mode.  In process mode the results must pickle.
    """
    n_workers = min(max(1, workers or 1), n)
    resolved = resolve_mode(mode, n_workers)
    if resolved == "serial":
        return [unit(index) for index in range(n)]
    if resolved == "thread":
        # Pool threads start with an empty span context; adopting the
        # caller's span keeps the trace tree identical to serial.
        with ThreadPoolExecutor(
            max_workers=n_workers,
            initializer=adopt_current_span,
            initargs=(current_span(),),
        ) as pool:
            return list(pool.map(unit, range(n)))
    global _UNIT
    _UNIT = unit
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            shipped = list(pool.map(_run_shipped, range(n)))
    finally:
        _UNIT = None
    registry = shared_registry()
    series = shared_series()
    tracer = shared_tracer()
    sink = active_log_sink()
    for _, (metrics, points, spans, events) in shipped:
        registry.merge(metrics)
        series.merge(points)
        tracer.absorb(spans)
        if sink is not None:
            sink.merge(events)
    return [result for result, _ in shipped]


def _run_shipped(index: int):
    """Fork-child entry: run unit *index* and ship what it recorded."""
    registry = shared_registry()
    series = shared_series()
    tracer = shared_tracer()
    sink = active_log_sink()
    metrics_before = registry.snapshot()
    series_before = series.snapshot()
    mark = tracer.record_count()
    # The child's sink still holds the parent's pre-fork events; the
    # marks bound the suffix this unit emits, which is all that ships.
    sink_marks = sink.marks() if sink is not None else {}
    result = _UNIT(index)
    return result, (
        snapshot_delta(registry.snapshot(), metrics_before),
        series_delta(series.snapshot(), series_before),
        tracer.records_since(mark),
        sink.delta(sink_marks) if sink is not None else {},
    )
