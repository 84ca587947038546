"""The one fan-out: in-line and forked units leave the same trace.

Every unit writes into all three process-local buffers the fan-out ships
home from a fork child -- a counter, a histogram and a month series in
the metrics registry, a span with a unit-unique name, and one wide
event -- so the parent's buffers after a forked run must equal an
in-line run's.
"""

import multiprocessing

import pytest

from repro.fanout import batch_mode, fan_out
from repro.net.accesslog import active_log_sink, set_log_sink
from repro.net.logstore import LogSink, log_stream
from repro.obs.metrics import shared_registry
from repro.obs.trace import set_tracing_enabled, shared_tracer, span

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

#: Worker counts: in line, and forked (under ``force_fork``) at two counts.
WORKERS = [
    pytest.param(1, id="serial"),
    pytest.param(3, id="process", marks=needs_fork),
    pytest.param(2, id="process-2", marks=needs_fork),
]

#: Timing fields differ run to run; everything else in a record must not.
_TIMING_FIELDS = ("start_unix", "duration_seconds")


def _unit(index: int) -> int:
    registry = shared_registry()
    registry.counter("fanout.units", parity=str(index % 2)).inc()
    registry.observe("fanout.index", index)
    registry.add("fanout.units", month=index % 3)
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
    registry, tracer = shared_registry(), shared_tracer()
    registry.reset()
    tracer.drain()
    set_tracing_enabled(True)
    sink = LogSink()
    previous = set_log_sink(sink)
    yield sink
    set_log_sink(previous)
    set_tracing_enabled(False)
    registry.reset()
    tracer.drain()


def _run(workers: int, sink: LogSink):
    """Fan out six units under a caller span; return every buffer."""
    with span("caller"):
        results = fan_out(_unit, 6, workers=workers)
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
        "series": snap["series"],
        "spans": spans,
        "streams": sorted(sink.marks()),
        "events": sink.ordered_events(),
    }


@pytest.mark.parametrize("workers", WORKERS)
def test_buffers_match_serial(clean_buffers, force_fork, workers):
    assert batch_mode(workers) == ("serial" if workers == 1 else "process")
    in_line = _run(1, clean_buffers)
    shared_registry().reset()
    sink = LogSink()
    set_log_sink(sink)
    observed = _run(workers, sink)
    assert observed["results"] == [index * index for index in range(6)]
    assert len(observed["spans"]) == 7
    assert {s["parent_id"] for s in observed["spans"] if s["name"] != "caller"} == {
        s["span_id"] for s in observed["spans"] if s["name"] == "caller"
    }
    assert len(observed["events"]) == 6
    assert observed["series"]
    for buffer, expected in in_line.items():
        assert observed[buffer] == expected, buffer


@pytest.mark.parametrize("workers", WORKERS)
def test_untouched_instruments_reach_the_parent(force_fork, workers):
    """A counter and a histogram a unit creates but never records into
    exist in the parent afterwards, at zero, as after an in-line run.
    The name carries the worker count, so no earlier run created these
    keys."""
    name = f"fanout.untouched.w{workers}"

    def unit(index: int) -> int:
        registry = shared_registry()
        registry.counter(name, unit=index)
        registry.histogram(f"{name}_seconds", unit=index)
        return index

    fan_out(unit, 4, workers=workers)
    snap = shared_registry().snapshot()
    for index in range(4):
        labels = (("unit", str(index)),)
        assert snap["counters"][(name, labels)] == 0
        assert snap["histograms"][(f"{name}_seconds", labels)]["count"] == 0


@pytest.mark.parametrize("workers", WORKERS)
def test_unit_exception_reaches_caller(force_fork, workers):
    with pytest.raises(ValueError, match="unit 2 failed"):
        fan_out(_failing_unit, 4, workers=workers)


def test_auto_resolves_to_a_pool_mode(monkeypatch):
    """The batch forks only with more than one worker, more than one
    CPU and the fork start method; otherwise it runs in line."""
    has_fork = "fork" in multiprocessing.get_all_start_methods()
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert batch_mode(0) == batch_mode(1) == "serial"
    assert batch_mode(2) == ("process" if has_fork else "serial")
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    assert batch_mode(4) == "serial"
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert batch_mode(4) == "serial"
