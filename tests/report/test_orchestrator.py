"""Tests for the dependency-aware experiment orchestrator.

The load-bearing property is scheduling-independence: ``run_all`` must
produce bit-identical results for any worker count, in line or on
forked workers, with results always assembled in registry order.
"""

import concurrent.futures
import json
import multiprocessing
import sys

import pytest

import repro.report.experiments
from repro.fanout import batch_mode
from repro.obs.metrics import shared_registry
from repro.obs.trace import shared_tracer, tracing_enabled
from repro.report.orchestrator import (
    EXPERIMENT_REGISTRY,
    experiment_keys,
    run_all,
    run_one,
)
from repro.web.population import PopulationConfig
from repro.web.site import SimSite
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(
    universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
)

#: A battery slice covering all three world dependencies: bundle
#: (figure2, taxonomy), population (sec62, sec22), none (table1).
SLICE = ["table1", "figure2", "sec62", "sec22", "taxonomy"]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


@pytest.fixture(scope="module")
def store():
    return WorldStore()


class TestRegistry:
    def test_keys_and_result_ids_are_unique(self):
        keys = [spec.key for spec in EXPERIMENT_REGISTRY]
        ids = [spec.result_id for spec in EXPERIMENT_REGISTRY]
        assert len(set(keys)) == len(keys)
        assert len(set(ids)) == len(ids)

    def test_every_spec_declares_a_known_world(self):
        assert {spec.world for spec in EXPERIMENT_REGISTRY} == {
            "bundle", "population", "none"
        }


class TestSchedulingIndependence:
    @needs_fork
    def test_workers_do_not_change_results(self, store, force_fork):
        serial = run_all(SMALL, workers=1, experiments=SLICE, store=store)
        assert serial.mode == "serial"
        for workers in (2, 4):
            forked = run_all(SMALL, workers=workers, experiments=SLICE, store=store)
            assert forked.mode == "process"
            assert [r.experiment_id for r in serial.results] == [
                r.experiment_id for r in forked.results
            ]
            for a, b in zip(serial.results, forked.results):
                assert a.text == b.text
                assert a.metrics == b.metrics

    def test_results_come_back_in_registry_order(self, store):
        shuffled = ["taxonomy", "table1", "sec62", "figure2"]
        report = run_all(SMALL, workers=1, experiments=shuffled, store=store)
        expected = [k for k in experiment_keys() if k in shuffled]
        assert list(report.timings_seconds) == expected

    def test_population_runners_repeat_identically(self, store):
        # Both invocations read the one frozen world, and each
        # registers handlers on its own network, so a prior run cannot
        # perturb the next.
        first = run_all(SMALL, workers=1, experiments=["sec62"], store=store)
        second = run_all(SMALL, workers=1, experiments=["sec62"], store=store)
        assert first.results[0].text == second.results[0].text

    def test_unknown_key_raises(self, store):
        with pytest.raises(KeyError):
            run_all(SMALL, experiments=["nope"], store=store)


class TestReport:
    def test_report_json_shape(self, store, force_fork):
        report = run_all(SMALL, workers=2, experiments=["table1", "figure2"],
                         store=store)
        payload = report.to_timings()
        assert payload["schema_version"] == 1
        assert payload["mode"] == batch_mode(2)
        assert payload["workers"] == 2
        assert payload["world_seconds"] >= 0
        assert payload["total_seconds"] > 0
        keys = [entry["key"] for entry in payload["experiments"]]
        assert keys == ["table1", "figure2"]
        for entry in payload["experiments"]:
            assert entry["seconds"] >= 0
            assert entry["world"] in {"bundle", "population", "none"}


class TestTelemetry:
    #: Covers every counter source: table1 (crawler fleet, testbed
    #: network, access logs), figure2 (bundle/world store), sec62
    #: (stored population).
    TELEMETRY_SLICE = ["table1", "figure2", "sec62"]

    def _run_and_snapshot(self, store, workers, telemetry_dir=None):
        shared_registry().reset()
        shared_tracer().drain()
        report = run_all(
            SMALL,
            workers=workers,
            experiments=self.TELEMETRY_SLICE,
            store=store,
            telemetry_dir=telemetry_dir,
        )
        assert report.mode == ("serial" if workers == 1 else "process")
        snap = shared_registry().snapshot()
        histograms = {
            key: (payload["counts"], payload["count"], payload["sum"])
            for key, payload in snap["histograms"].items()
        }
        return report, snap["counters"], histograms

    @needs_fork
    def test_counter_totals_identical_across_modes(self, store, force_fork):
        # Pre-warm the world so each run performs identical measured
        # work, then demand exact counter/histogram identity in line
        # and on fork pools of two sizes.
        run_all(SMALL, workers=1, experiments=["figure2", "sec62"], store=store)
        _, serial_counters, serial_hists = self._run_and_snapshot(store, 1)
        assert serial_counters
        for workers in (2, 3):
            _, counters, hists = self._run_and_snapshot(store, workers)
            assert counters == serial_counters, workers
            assert hists == serial_hists, workers

    @needs_fork
    def test_series_json_byte_identical_across_modes(
        self, store, tmp_path, force_fork
    ):
        # The operator-facing SERIES.json must be byte-for-byte the
        # same artifact in line or forked, at any worker count: series
        # amounts are integer event counts, so per-month sums are exact
        # under any merge order.
        run_all(SMALL, workers=1, experiments=["figure2", "sec62"], store=store)
        exports = {}
        for workers in (1, 2, 3):
            directory = tmp_path / f"w{workers}"
            self._run_and_snapshot(store, workers, telemetry_dir=directory)
            exports[workers] = (directory / "SERIES.json").read_bytes()
        baseline = exports.pop(1)
        assert json.loads(baseline)["series"]  # non-trivial content
        for workers, payload in exports.items():
            assert payload == baseline, f"SERIES.json diverged at {workers} workers"

    def test_run_produces_span_tree(self, store):
        report = run_all(
            SMALL, workers=1, experiments=["figure2", "table1"], store=store
        )
        names = [record["name"] for record in report.spans]
        assert "run_all" in names
        assert "world_build" in names
        assert "experiment:figure2" in names
        assert "experiment:table1" in names
        # Timings are the spans: the per-experiment seconds equal the
        # matching span durations exactly.
        by_name = {record["name"]: record for record in report.spans}
        for key in ("figure2", "table1"):
            assert report.timings_seconds[key] == pytest.approx(
                by_name[f"experiment:{key}"]["duration_seconds"], abs=1e-6
            )
        assert report.world_seconds == pytest.approx(
            by_name["world_build"]["duration_seconds"], abs=1e-6
        )

    def test_tracing_flag_restored_after_run(self, store):
        was_enabled = tracing_enabled()
        run_all(SMALL, workers=1, experiments=["sec62"], store=store)
        assert tracing_enabled() == was_enabled

    def test_telemetry_dir_writes_artifacts(self, store, tmp_path):
        report = run_all(
            SMALL,
            workers=1,
            experiments=["figure2"],
            store=store,
            telemetry_dir=tmp_path,
        )
        metrics_path = tmp_path / "METRICS.json"
        series_path = tmp_path / "SERIES.json"
        trace_path = tmp_path / "TRACE.jsonl"
        assert metrics_path.exists() and trace_path.exists()
        assert series_path.exists()
        series_payload = json.loads(series_path.read_text())
        assert series_payload["schema_version"] == 1
        payload = json.loads(metrics_path.read_text())
        assert payload["schema_version"] == 1
        assert any(key.startswith("worldstore.") for key in payload["counters"])
        # run_all publishes the shared compile cache as gauges on export.
        assert "policy_cache.entries" in payload["gauges"]
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert [r["name"] for r in records] == [r["name"] for r in report.spans]

    def test_each_run_exports_what_it_recorded(self, tmp_path):
        """Two equal runs in one process export equal telemetry: the
        second holds its own counters, not the first's on top."""
        exports = []
        for run in ("first", "second"):
            run_all(SMALL, workers=1, experiments=["figure2"], store=WorldStore(),
                    telemetry_dir=tmp_path / run)
            metrics = json.loads((tmp_path / run / "METRICS.json").read_text())
            counters = {
                key: value for key, value in metrics["counters"].items()
                # Each fresh store labels its counters with its own id.
                if not key.startswith("worldstore.")
            }
            series = (tmp_path / run / "SERIES.json").read_bytes()
            exports.append((counters, metrics["histograms"], series))
        first, second = exports
        assert first[0]["net.responses{status=200}"] > 0
        assert second == first


class TestRunOne:
    def test_run_one_matches_batch(self, store):
        single = run_one("figure2", config=SMALL)
        batch = run_all(SMALL, workers=1, experiments=["figure2"], store=store)
        assert single.text == batch.results[0].text

    def test_standalone_experiment_needs_no_world(self):
        # table1 must not trigger a build in the shared store.
        from repro.obs.metrics import shared_registry, snapshot_delta

        registry = shared_registry()
        before = registry.snapshot()
        run_one("table1", config=SMALL)
        counted = snapshot_delta(registry.snapshot(), before)["counters"]
        assert not any(
            name.startswith("worldstore.") and value
            for (name, _), value in counted.items()
        )


class TestOneFrozenWorld:
    def test_population_runners_construct_no_site(self, store, monkeypatch):
        """The five population runners read the stored world itself:
        over a warm store, running them builds not one site."""
        store.population(SMALL)
        built = []
        original = SimSite.__post_init__

        def counting(site):
            built.append(site.domain)
            original(site)

        monkeypatch.setattr(SimSite, "__post_init__", counting)
        keys = ["sec62", "sec63", "sec22", "appb2", "sec81"]
        report = run_all(SMALL, workers=1, experiments=keys, store=store)
        assert len(report.results) == len(keys)
        assert built == []


class TestRunnerImports:
    @needs_fork
    def test_forked_run_imports_the_runners_before_the_pool_starts(
        self, store, force_fork, monkeypatch
    ):
        """The parent imports :mod:`repro.report.experiments` before it
        forks, so the workers inherit the module instead of each
        compiling it."""
        monkeypatch.delitem(sys.modules, "repro.report.experiments")
        monkeypatch.delattr(repro.report, "experiments")
        loaded_at_fork = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                loaded_at_fork.append("repro.report.experiments" in sys.modules)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        report = run_all(SMALL, workers=2, experiments=["tables9_12", "selective"],
                         store=store)
        assert report.mode == "process"
        assert loaded_at_fork == [True]
