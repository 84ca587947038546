"""Tests for repro.obs.analyze.

Covers the loader error contract (one-line TelemetryError for every
missing/corrupt artifact), the span-DAG analyses (critical path names
the slowest chain; folded stacks carry self time), and the structural
run diff that gates CI: a synthetic slowdown or metric change injected
into a copied telemetry directory must be detected.
"""

import json

import pytest

from repro.obs.analyze import (
    TelemetryError,
    critical_path,
    dashboard_matrix,
    diff_runs,
    folded_stacks,
    load_metrics,
    load_series,
    load_trace,
    request_cells,
    self_time_tree,
    worker_utilization,
)
from repro.obs.metrics import parse_key


def _span(span_id, parent_id, name, start, duration, **extra):
    record = {
        "schema_version": 1,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_unix": start,
        "duration_seconds": duration,
        "status": "ok",
    }
    record.update(extra)
    return record


#: A small but structurally real trace: a run root, a world build, and
#: two experiments of which figure2 is the slowest chain.
TRACE = [
    _span("r1", "", "run_all", 1000.0, 2.0),
    _span("w1", "r1", "world_build", 1000.0, 0.4),
    _span("e1", "r1", "experiment:figure2", 1000.4, 1.2),
    _span("e1c", "e1", "classify_sweep", 1000.5, 0.9),
    _span("e2", "r1", "experiment:sec62", 1001.0, 0.3),
]

METRICS = {
    "schema_version": 1,
    "counters": {"crawl.fetches{agent=GPTBot}": 100},
    "gauges": {"measure.policy_cache.hit_rate": 0.9},
    "histograms": {},
}

SERIES = {
    "schema_version": 1,
    "series": {
        "sim.requests{agent=GPTBot,outcome=served,site_category=news}": {
            "months": [0, 1],
            "values": [10, 20],
            "total": 30,
        },
        "sim.requests{agent=GPTBot,outcome=blocked_403,site_category=news}": {
            "months": [1],
            "values": [5],
            "total": 5,
        },
        "sim.requests{agent=CCBot,outcome=challenged,site_category=blog}": {
            "months": [2],
            "values": [7],
            "total": 7,
        },
    },
}


def write_telemetry(directory, metrics=METRICS, series=SERIES, trace=TRACE):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "METRICS.json").write_text(json.dumps(metrics))
    (directory / "SERIES.json").write_text(json.dumps(series))
    (directory / "TRACE.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in trace)
    )
    return directory


@pytest.fixture()
def telemetry_dir(tmp_path):
    return write_telemetry(tmp_path / "base")


class TestLoaders:
    def test_missing_artifacts(self, tmp_path):
        for loader, name in [
            (load_metrics, "METRICS.json"),
            (load_series, "SERIES.json"),
            (load_trace, "TRACE.jsonl"),
        ]:
            with pytest.raises(TelemetryError, match="missing telemetry artifact"):
                loader(tmp_path / name)

    def test_corrupt_json(self, tmp_path):
        for loader, name in [
            (load_metrics, "METRICS.json"),
            (load_series, "SERIES.json"),
        ]:
            path = tmp_path / name
            path.write_text("{not json")
            with pytest.raises(TelemetryError, match=f"corrupt {name}"):
                loader(path)

    def test_corrupt_trace_line(self, tmp_path):
        path = tmp_path / "TRACE.jsonl"
        path.write_text('{"schema_version": 1, "span_id": "a", "name": "x"}\nnot json\n')
        with pytest.raises(TelemetryError, match="line 2"):
            load_trace(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "METRICS.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(TelemetryError, match="schema_version"):
            load_metrics(path)

    def test_happy_path(self, telemetry_dir):
        assert load_metrics(telemetry_dir / "METRICS.json")["counters"]
        assert load_series(telemetry_dir / "SERIES.json")["series"]
        assert len(load_trace(telemetry_dir / "TRACE.jsonl")) == len(TRACE)

    def test_error_messages_are_one_line(self, tmp_path):
        (tmp_path / "SERIES.json").write_text("]]]")
        with pytest.raises(TelemetryError) as excinfo:
            load_series(tmp_path / "SERIES.json")
        assert "\n" not in str(excinfo.value)


class TestParseKey:
    def test_roundtrip(self):
        name, labels = parse_key("sim.requests{agent=GPTBot,outcome=served}")
        assert name == "sim.requests"
        assert labels == {"agent": "GPTBot", "outcome": "served"}

    def test_bare_name(self):
        assert parse_key("fleet.members") == ("fleet.members", {})


class TestCriticalPath:
    def test_names_slowest_experiment_chain(self):
        chain = [record["name"] for record in critical_path(TRACE)]
        assert chain == ["run_all", "experiment:figure2", "classify_sweep"]

    def test_empty_trace(self):
        assert critical_path([]) == []

    def test_deterministic_tie_break(self):
        records = [
            _span("a", "", "alpha", 0.0, 1.0),
            _span("b", "", "beta", 0.0, 1.0),
        ]
        assert critical_path(records)[0]["name"] == "beta"


class TestSelfTime:
    def test_self_is_duration_minus_children(self):
        trees = self_time_tree(TRACE)
        root = next(t for t in trees if t["name"] == "run_all")
        assert root["self_seconds"] == pytest.approx(2.0 - 0.4 - 1.2 - 0.3)
        figure2 = next(
            c for c in root["children"] if c["name"] == "experiment:figure2"
        )
        assert figure2["self_seconds"] == pytest.approx(1.2 - 0.9)

    def test_folded_stacks_paths_and_micros(self):
        lines = folded_stacks(TRACE)
        assert "run_all;experiment:figure2;classify_sweep 900000" in lines
        assert "run_all;experiment:figure2 300000" in lines
        assert lines == sorted(lines)


class TestUtilization:
    def test_overlapping_experiments_counted(self):
        timeline = worker_utilization(TRACE)
        # figure2 runs alone 1000.4-1001.0, overlaps sec62 1001.0-1001.3,
        # then... sec62 actually starts when figure2 still runs.
        peak = max(segment["active"] for segment in timeline)
        assert peak == 2
        total = sum(s["end"] - s["start"] for s in timeline)
        assert total == pytest.approx(1.2)  # union of the two spans

    def test_no_matching_spans(self):
        assert worker_utilization([_span("a", "", "world_build", 0.0, 1.0)]) == []


class TestDiffRuns:
    def test_identical_runs_are_clean(self, telemetry_dir, tmp_path):
        copy = write_telemetry(tmp_path / "copy")
        diff = diff_runs(telemetry_dir, copy)
        assert not diff.has_regressions
        assert diff.timing_regressions == []
        assert diff.counter_drift == []

    def test_synthetic_slowdown_detected(self, telemetry_dir, tmp_path):
        slow = [dict(record) for record in TRACE]
        for record in slow:
            if record["name"] == "experiment:figure2":
                record["duration_seconds"] = 3.0  # 2.5x slower
        candidate = write_telemetry(tmp_path / "slow", trace=slow)
        diff = diff_runs(telemetry_dir, candidate)
        assert diff.has_regressions
        names = [name for name, _, _ in diff.timing_regressions]
        assert names == ["experiment:figure2"]

    def test_speedup_is_not_a_regression(self, telemetry_dir, tmp_path):
        fast = [dict(record) for record in TRACE]
        for record in fast:
            if record["name"] == "experiment:figure2":
                record["duration_seconds"] = 0.1
        candidate = write_telemetry(tmp_path / "fast", trace=fast)
        diff = diff_runs(telemetry_dir, candidate)
        assert not diff.has_regressions
        assert diff.timing_improvements

    def test_counter_drift_detected(self, telemetry_dir, tmp_path):
        metrics = json.loads(json.dumps(METRICS))
        metrics["counters"]["crawl.fetches{agent=GPTBot}"] = 200
        candidate = write_telemetry(tmp_path / "drift", metrics=metrics)
        diff = diff_runs(telemetry_dir, candidate)
        assert diff.has_regressions
        assert diff.counter_drift[0][0] == "crawl.fetches{agent=GPTBot}"

    def test_series_drift_detected(self, telemetry_dir, tmp_path):
        series = json.loads(json.dumps(SERIES))
        key = "sim.requests{agent=GPTBot,outcome=served,site_category=news}"
        series["series"][key]["total"] = 300
        candidate = write_telemetry(tmp_path / "sdrift", series=series)
        diff = diff_runs(telemetry_dir, candidate)
        assert diff.has_regressions
        assert diff.series_drift[0][0] == key

    def test_removed_key_is_regression_added_is_not(self, telemetry_dir, tmp_path):
        metrics = json.loads(json.dumps(METRICS))
        del metrics["counters"]["crawl.fetches{agent=GPTBot}"]
        metrics["counters"]["crawl.new{agent=CCBot}"] = 1
        candidate = write_telemetry(tmp_path / "keys", metrics=metrics)
        diff = diff_runs(telemetry_dir, candidate)
        assert diff.removed == ["crawl.fetches{agent=GPTBot}"]
        assert diff.added == ["crawl.new{agent=CCBot}"]
        assert diff.has_regressions

    def test_gauges_ignored(self, telemetry_dir, tmp_path):
        metrics = json.loads(json.dumps(METRICS))
        metrics["gauges"]["measure.policy_cache.hit_rate"] = 0.1
        candidate = write_telemetry(tmp_path / "gauges", metrics=metrics)
        assert not diff_runs(telemetry_dir, candidate).has_regressions

    def test_threshold_respected(self, telemetry_dir, tmp_path):
        metrics = json.loads(json.dumps(METRICS))
        metrics["counters"]["crawl.fetches{agent=GPTBot}"] = 110  # +10%
        candidate = write_telemetry(tmp_path / "small", metrics=metrics)
        assert not diff_runs(telemetry_dir, candidate, threshold=0.25).has_regressions
        assert diff_runs(telemetry_dir, candidate, threshold=0.05).has_regressions


class TestDashboardMatrix:
    def test_rollup_shape_and_outcome_buckets(self):
        matrix = dashboard_matrix(request_cells(SERIES))
        assert matrix["GPTBot"][1] == {"requests": 25, "blocked": 5, "challenged": 0}
        assert matrix["GPTBot"][0] == {"requests": 10, "blocked": 0, "challenged": 0}
        assert matrix["CCBot"][2] == {"requests": 7, "blocked": 0, "challenged": 7}

    def test_category_filter(self):
        cells = request_cells(SERIES)
        matrix = dashboard_matrix(cells, category="blog")
        assert set(matrix) == {"CCBot"}
        assert dashboard_matrix(cells, category="nope") == {}

    def test_ignores_other_series(self):
        payload = {
            "schema_version": 1,
            "series": {
                "web.robots_changes{tier=top5k}": {
                    "months": [3],
                    "values": [2],
                    "total": 2,
                }
            },
        }
        assert request_cells(payload) == {}
        assert dashboard_matrix(request_cells(payload)) == {}
