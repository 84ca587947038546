"""One fan-out for every parallel stage: in line or on a fork pool.

:func:`fan_out` runs ``n`` units of work -- the experiments of a
battery, the shards of an archive crawl -- and returns their results in
unit order, so scheduling can never reorder what a caller assembles.
:func:`batch_mode` is the one place that decides how a batch runs: on
forked workers when there is more than one worker, more than one CPU
and the fork start method (children must inherit the world, not
re-pickle it), otherwise in line on the calling thread.

Three process-local buffers record what a unit did: the metrics
registry (counters, gauges, histograms and month series), the tracer's
span records and the installed wide-event sink's streams.  In-line
units write straight into the shared instances and capture nothing.  A
fork child owns copies of all three, so before each unit it takes a
mark on every buffer, and after the unit it ships the deltas home with
the result (:func:`~repro.obs.metrics.snapshot_delta`,
:meth:`~repro.obs.trace.Tracer.records_since`,
:meth:`~repro.net.logstore.LogSink.delta`).  Once the pool has closed,
the parent merges the deltas in unit order, so counters, series, span
trees and log streams come out as an in-line run writes them.

The unit callable never crosses the pipe: it sits in a module global
while the pool forks, so children inherit the world it closes over
(populations, bundles, stores) and only the unit index is pickled.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, TypeVar

from .net.accesslog import active_log_sink
from .obs.metrics import shared_registry, snapshot_delta
from .obs.trace import shared_tracer

__all__ = ["batch_mode", "fan_out"]

T = TypeVar("T")

#: The unit a fork pool runs; set only while that pool is open.
_UNIT: Optional[Callable[[int], object]] = None


def batch_mode(workers: int) -> str:
    """How a batch on *workers* workers runs here: ``"process"`` (a
    fork pool) or ``"serial"`` (in line).

    Forks only with more than one worker, more than one CPU and the
    fork start method.
    """
    if (
        workers > 1
        and (os.cpu_count() or 1) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "process"
    return "serial"


def fan_out(unit: Callable[[int], T], n: int, workers: Optional[int]) -> List[T]:
    """``[unit(0), ..., unit(n - 1)]``, run on up to *workers* workers.

    *workers* ``None`` means one; :func:`batch_mode` decides whether
    the batch forks.  A unit's exception reaches the caller either way.
    Forked units' results must pickle.
    """
    n_workers = min(max(1, workers or 1), n)
    if batch_mode(n_workers) == "serial":
        return [unit(index) for index in range(n)]
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
    tracer = shared_tracer()
    sink = active_log_sink()
    for _, (metrics, spans, events) in shipped:
        registry.merge(metrics)
        tracer.absorb(spans)
        if sink is not None:
            sink.merge(events)
    return [result for result, _ in shipped]


def _run_shipped(index: int):
    """Fork-child entry: run unit *index* and ship what it recorded."""
    registry = shared_registry()
    tracer = shared_tracer()
    sink = active_log_sink()
    metrics_before = registry.snapshot()
    mark = tracer.record_count()
    # The child's sink still holds the parent's pre-fork events; the
    # marks bound the suffix this unit emits, which is all that ships.
    sink_marks = sink.marks() if sink is not None else {}
    result = _UNIT(index)
    return result, (
        snapshot_delta(registry.snapshot(), metrics_before),
        tracer.records_since(mark),
        sink.delta(sink_marks) if sink is not None else {},
    )
