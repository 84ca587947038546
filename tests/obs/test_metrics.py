"""Tests for repro.obs.metrics.

The load-bearing properties: counter/histogram totals are exact and
mergeable (the fork-worker shipping protocol depends on
``snapshot`` / ``snapshot_delta`` / ``merge`` composing to the serial
totals), and the disabled path records nothing while leaving reads
and merges functional.
"""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    export_metrics,
    metrics_enabled,
    parse_key,
    render_key,
    set_metrics_enabled,
    snapshot_delta,
)


@pytest.fixture(autouse=True)
def metrics_on():
    """Every test starts (and leaves the process) with metrics enabled."""
    set_metrics_enabled(True)
    yield
    set_metrics_enabled(True)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("fetches", agent="GPTBot")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter_value("fetches", agent="GPTBot") == 5

    def test_labels_address_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.inc("fetches", agent="GPTBot")
        registry.counter("fetches", agent="CCBot").inc(2)
        assert registry.counter_value("fetches", agent="GPTBot") == 1
        assert registry.counter_value("fetches", agent="CCBot") == 2
        assert registry.counter_value("fetches") == 0

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("x", b="1", a="2")
        b = registry.counter("x", a="2", b="1")
        assert a is b

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0

    def test_handle_survives_reset(self):
        # reset() zeroes in place so long-lived hot-path handles keep
        # working; they must not be detached from the registry.
        registry = MetricsRegistry()
        handle = registry.counter("fetches")
        handle.inc(3)
        registry.reset()
        assert handle.value == 0
        handle.inc()
        assert registry.counter_value("fetches") == 1


class TestGauge:
    def test_set_and_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("cache.entries", 17)
        assert registry.gauge("cache.entries").value == 17.0

    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1)
        registry.set_gauge("g", 2)
        assert registry.gauge("g").value == 2.0


class TestHistogram:
    def test_bucket_semantics_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=(1, 10, 100))
        for value in (0, 1, 5, 10, 99, 1000):
            hist.observe(value)
        # bounds are inclusive: 1 -> bucket[<=1], 10 -> bucket[<=10],
        # 1000 -> the overflow bucket.
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.to_payload()["sum"] == 1115.0

    def test_default_bucket_ladder(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert hist.bounds == tuple(sorted(DEFAULT_BUCKETS))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestMergeAndShipping:
    def _work(self, registry, rounds):
        for _ in range(rounds):
            registry.inc("fetches", agent="GPTBot")
            registry.observe("latency", 3, site="a.example")
        registry.set_gauge("cache.entries", rounds)

    def test_merge_across_simulated_workers(self):
        # The fork-pool protocol: each worker snapshots before/after its
        # slice and ships the delta; the parent merges every delta.  The
        # result must equal one serial registry doing all the work.
        parent = MetricsRegistry()
        serial = MetricsRegistry()
        for rounds in (3, 5, 9):
            self._work(serial, rounds)
            worker = MetricsRegistry()
            self._work(worker, 1)  # pre-existing state the delta excludes
            before = worker.snapshot()
            self._work(worker, rounds)
            parent.merge(snapshot_delta(worker.snapshot(), before))
        assert parent.counter_value("fetches", agent="GPTBot") == 17
        serial_hist = serial.histogram("latency", site="a.example")
        merged_hist = parent.histogram("latency", site="a.example")
        assert merged_hist.counts == serial_hist.counts
        assert merged_hist.to_payload()["sum"] == serial_hist.to_payload()["sum"]
        # Gauges are last-write-wins, not summed.
        assert parent.gauge("cache.entries").value == 9.0

    def test_delta_drops_zero_rows(self):
        registry = MetricsRegistry()
        registry.inc("a")
        before = registry.snapshot()
        registry.inc("b")
        delta = snapshot_delta(registry.snapshot(), before)
        assert ("a", ()) not in delta["counters"]
        assert delta["counters"][("b", ())] == 1

    def test_merge_accepts_registry_and_works_while_disabled(self):
        source = MetricsRegistry()
        source.counter("n").inc(4)
        target = MetricsRegistry()
        set_metrics_enabled(False)
        try:
            # Shipping already-recorded data is not new recording.
            target.merge(source)
        finally:
            set_metrics_enabled(True)
        assert target.counter_value("n") == 4


class TestDisabled:
    def test_disabled_mutations_record_nothing(self):
        registry = MetricsRegistry()
        handle = registry.counter("c")
        set_metrics_enabled(False)
        try:
            assert not metrics_enabled()
            handle.inc()
            registry.inc("c")
            registry.set_gauge("g", 5)
            registry.observe("h", 1)
        finally:
            set_metrics_enabled(True)
        assert handle.value == 0
        assert registry.gauge("g").value == 0.0
        assert registry.histogram("h").count == 0


class TestExport:
    def test_render_key(self):
        assert render_key(("n", ())) == "n"
        assert render_key(("n", (("a", "1"), ("b", "x")))) == "n{a=1,b=x}"

    def test_every_committed_key_round_trips(self):
        """``parse_key`` inverts ``render_key`` on every exported key."""
        import json
        from pathlib import Path

        results = Path(__file__).resolve().parents[2] / "results"
        metrics = json.loads((results / "METRICS.json").read_text())
        series = json.loads((results / "SERIES.json").read_text())
        keys = [*metrics["counters"], *metrics["gauges"],
                *metrics["histograms"], *series["series"]]
        assert len(keys) > 100 and any("{" in key for key in keys)
        for key in keys:
            name, labels = parse_key(key)
            assert render_key((name, tuple(labels.items()))) == key

    def test_to_json_shape(self):
        registry = MetricsRegistry()
        registry.inc("fetches", agent="GPTBot")
        registry.set_gauge("entries", 2)
        registry.observe("sizes", 3, site="s")
        payload = registry.to_json()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert payload["counters"] == {"fetches{agent=GPTBot}": 1}
        assert payload["gauges"] == {"entries": 2.0}
        assert payload["histograms"]["sizes{site=s}"]["count"] == 1

    def test_export_metrics_writes_json(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.inc("n")
        path = tmp_path / "METRICS.json"
        export_metrics(path, registry)
        payload = json.loads(path.read_text())
        assert payload["counters"] == {"n": 1}


class TestMetricsDisabledContext:
    def test_silences_and_restores(self):
        from repro.obs.metrics import metrics_disabled

        registry = MetricsRegistry()
        with metrics_disabled():
            assert not metrics_enabled()
            registry.inc("n")
        assert metrics_enabled()
        assert registry.counter_value("n") == 0
        registry.inc("n")
        assert registry.counter_value("n") == 1

    def test_nests_and_restores_prior_state(self):
        from repro.obs.metrics import metrics_disabled

        set_metrics_enabled(False)
        with metrics_disabled():
            assert not metrics_enabled()
        assert not metrics_enabled()  # restores False, not True
        set_metrics_enabled(True)

    def test_restores_on_exception(self):
        from repro.obs.metrics import metrics_disabled

        with pytest.raises(RuntimeError):
            with metrics_disabled():
                raise RuntimeError("boom")
        assert metrics_enabled()
