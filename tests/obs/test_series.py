"""Tests for the month series of the metrics registry and their
SERIES.json export (repro.obs.series).

The load-bearing properties mirror the other instruments: per-month
sums are exact and mergeable (snapshot / snapshot_delta / merge compose
to the in-line totals, which the cross-mode SERIES.json identity test
depends on), the disabled path records nothing, cardinality is bounded,
and the JSON rendering is byte-deterministic and kept out of
METRICS.json.
"""

import json

from repro.obs import metrics
from repro.obs.metrics import (
    MAX_SERIES_PER_NAME,
    OVERFLOW_LABELS,
    SERIES_SCHEMA_VERSION,
    MetricsRegistry,
    metrics_disabled,
    set_metrics_enabled,
    shared_registry,
    snapshot_delta,
)
from repro.obs.series import export_series


class TestSeries:
    def test_add_and_value_at(self):
        registry = MetricsRegistry()
        series = registry.series("sim.requests", agent="GPTBot")
        series.add(3)
        series.add(3, 4)
        series.add(7, 2)
        assert series.points().get(3, 0) == 5
        assert series.points().get(7, 0) == 2
        assert series.points().get(0, 0) == 0
        assert series.total == 7

    def test_labels_address_distinct_series(self):
        registry = MetricsRegistry()
        registry.add("sim.requests", month=1, agent="GPTBot")
        registry.add("sim.requests", month=1, amount=2, agent="CCBot")
        assert registry.series("sim.requests", agent="GPTBot").points().get(1, 0) == 1
        assert registry.series("sim.requests", agent="CCBot").points().get(1, 0) == 2
        assert registry.series("sim.requests").points().get(1, 0) == 0

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.series("x", b="1", a="2")
        b = registry.series("x", a="2", b="1")
        assert a is b

    def test_points_ascending(self):
        registry = MetricsRegistry()
        series = registry.series("x")
        for month in (12, 0, 24, 3):
            series.add(month)
        assert list(series.points()) == [0, 3, 12, 24]

    def test_handle_survives_reset(self):
        registry = MetricsRegistry()
        series = registry.series("x", agent="GPTBot")
        series.add(1)
        registry.reset()
        assert series.total == 0
        series.add(2)
        assert registry.series("x", agent="GPTBot").points().get(2, 0) == 1

    def test_disabled_records_nothing(self):
        registry = MetricsRegistry()
        series = registry.series("x")
        set_metrics_enabled(False)
        series.add(1)
        registry.add("x", month=1)
        set_metrics_enabled(True)
        assert series.total == 0
        assert registry.snapshot()["series"] == {}

    def test_metrics_disabled_context_silences_series(self):
        registry = MetricsRegistry()
        with metrics_disabled():
            registry.add("x", month=1)
        registry.add("x", month=1)
        assert registry.series("x").points().get(1, 0) == 1


class TestShippingProtocol:
    def test_snapshot_delta_merge_composes_to_serial_totals(self):
        # The fork-worker protocol: parent records, worker snapshots at
        # entry, records more, ships the delta; parent merge must equal
        # having recorded everything serially.
        parent = MetricsRegistry()
        parent.add("x", month=1, agent="GPTBot")

        worker = MetricsRegistry()
        worker.merge(parent)  # fork inherits parent state
        before = worker.snapshot()
        worker.add("x", month=1, agent="GPTBot")
        worker.add("x", month=2, amount=3, agent="CCBot")
        delta = snapshot_delta(worker.snapshot(), before)

        parent.merge(delta)
        assert parent.series("x", agent="GPTBot").points().get(1, 0) == 2
        assert parent.series("x", agent="CCBot").points().get(2, 0) == 3

    def test_delta_drops_untouched_series_and_months(self):
        registry = MetricsRegistry()
        registry.add("x", month=1)
        registry.add("y", month=5)
        before = registry.snapshot()
        registry.add("x", month=2)
        delta = snapshot_delta(registry.snapshot(), before)
        assert delta["series"] == {("x", ()): {2: 1}}

    def test_merge_works_while_disabled(self):
        source = MetricsRegistry()
        source.add("x", month=3, amount=2)
        target = MetricsRegistry()
        with metrics_disabled():
            target.merge(source)
        assert target.series("x").points().get(3, 0) == 2


class TestCardinality:
    def test_overflow_collapses_into_reserved_bucket(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SERIES_PER_NAME", 3)
        registry = MetricsRegistry()
        for i in range(10):
            registry.add("x", month=0, agent=f"ua-{i}")
        assert len(registry.snapshot()["series"]) <= 4
        overflow = registry.series("x", **dict(OVERFLOW_LABELS))
        assert overflow.total == 7  # the 7 sets beyond the cap

    def test_default_cap_is_generous(self):
        assert MAX_SERIES_PER_NAME >= 1024


class TestExport:
    def test_to_json_months_ascending_and_totaled(self):
        registry = MetricsRegistry()
        registry.add("x", month=10, agent="GPTBot")
        registry.add("x", month=2, amount=4, agent="GPTBot")
        payload = registry.series_json()
        assert payload["schema_version"] == SERIES_SCHEMA_VERSION
        entry = payload["series"]["x{agent=GPTBot}"]
        # Parallel arrays, numerically ascending (JSON object keys
        # would sort "10" < "2").
        assert entry["months"] == [2, 10]
        assert entry["values"] == [4, 1]
        assert entry["total"] == 5

    def test_metrics_json_holds_no_series(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.add("x", month=1)
        payload = registry.to_json()
        assert set(payload) == {"schema_version", "counters", "gauges", "histograms"}
        assert "x" not in json.dumps(payload)

    def test_export_is_byte_deterministic(self, tmp_path):
        a = MetricsRegistry()
        a.add("x", month=1, agent="GPTBot")
        a.add("x", month=1, agent="CCBot")
        b = MetricsRegistry()
        b.add("x", month=1, agent="CCBot")
        b.add("x", month=1, agent="GPTBot")
        export_series(tmp_path / "a.json", a)
        export_series(tmp_path / "b.json", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_export_default_registry_is_shared(self, tmp_path):
        shared_registry().add("x", month=1)
        export_series(tmp_path / "SERIES.json")
        payload = json.loads((tmp_path / "SERIES.json").read_text())
        assert payload["series"]["x"]["total"] == 1
