"""Tests for repro.obs.trace.

The load-bearing properties: span ids are a pure function of tree
position (two identical runs produce identical id trees), nesting is
tracked through the innermost live span, and the disabled path
allocates nothing.
"""

import json

import pytest

from repro.obs import trace
from repro.obs.trace import (
    NOOP_SPAN,
    TRACE_SCHEMA_VERSION,
    Tracer,
    set_tracing_enabled,
    shared_tracer,
    span,
    tracing_enabled,
    write_trace,
)


def current_span():
    """The innermost live span, as :func:`span` nests them."""
    return trace._CURRENT


@pytest.fixture()
def tracing():
    """Enable tracing on a clean shared tracer; restore the default."""
    tracer = shared_tracer()
    tracer.drain()
    set_tracing_enabled(True)
    yield tracer
    set_tracing_enabled(False)
    tracer.drain()


class TestNesting:
    def test_children_link_to_their_parent(self, tracing):
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = tracing.drain()
        by_name = {r["name"]: r for r in records}
        # Children finish (and record) before their parents.
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] == ""

    def test_context_restored_after_exit(self, tracing):
        with span("a"):
            pass
        assert current_span() is None


class TestDeterministicIds:
    def _run_tree(self, tracer):
        with span("build"):
            with span("step"):
                pass
            with span("step"):
                pass
        with span("run"):
            pass
        return tracer.drain()

    def test_identical_runs_produce_identical_id_trees(self, tracing):
        first = self._run_tree(tracing)
        second = self._run_tree(tracing)
        assert [r["span_id"] for r in first] == [r["span_id"] for r in second]
        assert [r["parent_id"] for r in first] == [r["parent_id"] for r in second]

    def test_same_named_siblings_get_distinct_ids(self, tracing):
        records = self._run_tree(tracing)
        steps = [r["span_id"] for r in records if r["name"] == "step"]
        assert len(steps) == 2 and steps[0] != steps[1]

    def test_ids_depend_on_position_not_timing(self, tracing):
        records = self._run_tree(tracing)
        again = self._run_tree(tracing)
        starts = [r["start_unix"] for r in records]
        # Wall clock differs between runs; ids do not.
        assert [r["span_id"] for r in records] == [r["span_id"] for r in again]
        assert all(isinstance(s, float) for s in starts)


class TestRecords:
    def test_record_fields(self, tracing):
        with span("collect", logical=7, snapshot="2023-06", n=3):
            pass
        (record,) = tracing.drain()
        assert record["schema_version"] == TRACE_SCHEMA_VERSION
        assert record["name"] == "collect"
        assert record["logical"] == 7
        assert record["status"] == "ok"
        assert record["duration_seconds"] >= 0
        assert record["attributes"] == {"snapshot": "2023-06", "n": 3}

    def test_error_status_and_attribute(self, tracing):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("nope")
        (record,) = tracing.drain()
        assert record["status"] == "error"
        assert record["attributes"]["error"] == "ValueError"

    def test_non_scalar_attributes_are_stringified(self, tracing):
        with span("s", items=[1, 2]):
            pass
        (record,) = tracing.drain()
        assert record["attributes"]["items"] == "[1, 2]"

    def test_records_since_and_absorb(self, tracing):
        with span("parent_work"):
            pass
        mark = tracing.record_count()
        with span("worker_work"):
            pass
        shipped = tracing.records_since(mark)
        assert [r["name"] for r in shipped] == ["worker_work"]
        other = Tracer()
        other.absorb(shipped)
        assert [r["name"] for r in other.drain()] == ["worker_work"]


class TestDisabled:
    def test_disabled_span_is_the_shared_noop(self):
        assert not tracing_enabled()
        handle = span("anything", logical=3, k="v")
        assert handle is NOOP_SPAN
        with handle as ctx:
            assert ctx is NOOP_SPAN
        assert shared_tracer().record_count() == 0

    def test_disabled_spans_do_not_touch_the_context(self):
        with span("outer"):
            assert current_span() is None


class TestWriteTrace:
    def test_jsonl_round_trip(self, tracing, tmp_path):
        with span("a", logical=1):
            with span("b"):
                pass
        records = tracing.drain()
        path = tmp_path / "TRACE.jsonl"
        write_trace(path, records)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["b", "a"]


class TestTracingEnabledContext:
    def test_forces_on_and_restores(self):
        assert not tracing_enabled()
        with tracing_enabled():
            assert tracing_enabled()
            with span("inside"):
                pass
        assert not tracing_enabled()
        assert shared_tracer().record_count() == 1

    def test_restores_prior_true_state(self):
        set_tracing_enabled(True)
        with tracing_enabled():
            assert tracing_enabled()
        assert tracing_enabled()
        set_tracing_enabled(False)

    def test_snapshot_semantics_as_predicate(self):
        was = tracing_enabled()
        set_tracing_enabled(True)
        # The handle captured the flag at call time...
        assert not was
        # ...and compares equal to plain bools, both ways.
        assert was == False  # noqa: E712 -- the comparison IS the test
        assert tracing_enabled() == True  # noqa: E712
        set_tracing_enabled(False)

    def test_restores_on_exception(self):
        import pytest

        with pytest.raises(RuntimeError):
            with tracing_enabled():
                raise RuntimeError("boom")
        assert not tracing_enabled()
