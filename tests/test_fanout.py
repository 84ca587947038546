"""The one fan-out: serial, thread and fork units leave the same trace.

Every unit writes into all four process-local buffers the fan-out ships
home from a fork child -- a counter, a histogram, a series point, a
span with a unit-unique name and one wide event -- so the parent's
buffers after a thread or fork run must equal a serial run's.
"""

import multiprocessing

import pytest

from repro.fanout import fan_out, resolve_mode
from repro.net.accesslog import active_log_sink, set_log_sink
from repro.net.logstore import LogSink, log_stream
from repro.obs.metrics import shared_registry
from repro.obs.series import shared_series
from repro.obs.trace import set_tracing_enabled, shared_tracer, span

MODES = [
    "serial",
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="fork start method unavailable",
        ),
    ),
]

#: Timing fields differ run to run; everything else in a record must not.
_TIMING_FIELDS = ("start_unix", "duration_seconds")


def _unit(index: int) -> int:
    registry = shared_registry()
    registry.counter("fanout.units", parity=str(index % 2)).inc()
    registry.observe("fanout.index", index)
    shared_series().add("fanout.units", month=index % 3)
    with span(f"unit:{index}", logical=index), log_stream(f"unit:{index:02d}"):
        active_log_sink().emit(
            f"site{index}.example", "/robots.txt", "GPTBot/1.0", "GPTBot",
            "served", "robots", index, 200, index * 10, True,
        )
    return index * index


def _failing_unit(index: int) -> int:
    if index == 2:
        raise ValueError("unit 2 failed")
    return index


@pytest.fixture
def clean_buffers():
    """Fresh shared buffers, tracing on and a fresh installed sink."""
    registry, series, tracer = shared_registry(), shared_series(), shared_tracer()
    registry.reset()
    series.reset()
    tracer.reset()
    set_tracing_enabled(True)
    sink = LogSink()
    previous = set_log_sink(sink)
    yield sink
    set_log_sink(previous)
    set_tracing_enabled(False)
    registry.reset()
    series.reset()
    tracer.reset()


def _run(mode: str, sink: LogSink):
    """Fan out six units under a caller span; return every buffer."""
    with span("caller"):
        results = fan_out(_unit, 6, workers=3, mode=mode)
    snap = shared_registry().snapshot()
    spans = sorted(
        (
            {k: v for k, v in record.items() if k not in _TIMING_FIELDS}
            for record in shared_tracer().drain()
        ),
        key=lambda record: record["span_id"],
    )
    return {
        "results": results,
        "counters": {k: v for k, v in snap["counters"].items() if v},
        "histograms": {k: v for k, v in snap["histograms"].items() if v["count"]},
        "series": shared_series().snapshot(),
        "spans": spans,
        "streams": sorted(sink.marks()),
        "events": sink.ordered_events(),
    }


@pytest.mark.parametrize("mode", MODES)
def test_buffers_match_serial(clean_buffers, mode):
    serial = _run("serial", clean_buffers)
    shared_registry().reset()
    shared_series().reset()
    sink = LogSink()
    set_log_sink(sink)
    observed = _run(mode, sink)
    assert observed["results"] == [index * index for index in range(6)]
    assert len(observed["spans"]) == 7
    assert {s["parent_id"] for s in observed["spans"] if s["name"] != "caller"} == {
        s["span_id"] for s in observed["spans"] if s["name"] == "caller"
    }
    assert len(observed["events"]) == 6
    for buffer, expected in serial.items():
        assert observed[buffer] == expected, buffer


@pytest.mark.parametrize("mode", MODES)
def test_untouched_instruments_reach_the_parent(mode):
    """A counter and a histogram a unit creates but never records into
    exist in the parent afterwards, at zero, as after a serial run.
    The name carries the mode, so no earlier run created these keys."""
    name = f"fanout.untouched.{mode}"

    def unit(index: int) -> int:
        registry = shared_registry()
        registry.counter(name, unit=index)
        registry.histogram(f"{name}_seconds", unit=index)
        return index

    fan_out(unit, 4, workers=2, mode=mode)
    snap = shared_registry().snapshot()
    for index in range(4):
        labels = (("unit", str(index)),)
        assert snap["counters"][(name, labels)] == 0
        assert snap["histograms"][(f"{name}_seconds", labels)]["count"] == 0


@pytest.mark.parametrize("mode", MODES)
def test_unit_exception_reaches_caller(mode):
    with pytest.raises(ValueError, match="unit 2 failed"):
        fan_out(_failing_unit, 4, workers=2, mode=mode)


def test_unknown_mode_raises_at_any_worker_count():
    for workers in (1, 2):
        with pytest.raises(ValueError, match="auto, serial, thread, process"):
            fan_out(_unit, 2, workers=workers, mode="threads")
    with pytest.raises(ValueError):
        resolve_mode("bogus", 0)


def test_auto_resolves_to_a_pool_mode():
    assert resolve_mode("auto", 1) == "serial"
    assert resolve_mode("process", 1) == "serial"
    assert resolve_mode("auto", 2) in ("thread", "process")
    assert resolve_mode("serial", 4) == "serial"
