"""Cross-mode identity for the live telemetry plane.

The contract: the final live scrape's cumulative payload IS the batch
export -- for any scheduling mode and worker count.  A monitoring
stack watching ``/metrics`` and a CI gate reading ``METRICS.json``
must never disagree.
"""

import json
import multiprocessing

import pytest

from repro.obs.live import JsonlSink, LiveTelemetry, active
from repro.obs.metrics import shared_registry
from repro.obs.series import shared_series
from repro.obs.trace import shared_tracer
from repro.report.orchestrator import run_all
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(universe_size=500, list_size=300, top5k_cut=40,
                         audit_size=90, seed=7)

#: Covers the counter-heavy sources (crawler fleet, network, logs,
#: bundle/world store, stored population) -- same slice the batch
#: cross-mode identity tests use.
SLICE = ["table1", "figure2", "sec62"]


@pytest.fixture(scope="module")
def store():
    return WorldStore()


def _reset():
    shared_registry().reset()
    shared_series().reset()
    shared_tracer().reset()


def _run_live(store, mode, workers, telemetry_dir):
    _reset()
    live = LiveTelemetry()
    run_all(SMALL, workers=workers, experiments=SLICE, store=store,
            mode=mode, telemetry_dir=telemetry_dir, live=live)
    return live


class TestScrapeExportIdentity:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_final_scrape_equals_export_across_modes(self, store, tmp_path):
        # Pre-warm the world so every mode measures identical work.
        run_all(SMALL, workers=1, experiments=SLICE, store=store)
        counters_by_mode = {}
        series_by_mode = {}
        for label, mode, workers in [
            ("serial", "auto", 1),
            ("thread2", "thread", 2),
            ("process3", "process", 3),
        ]:
            directory = tmp_path / label
            live = _run_live(store, mode, workers, directory)
            exported_metrics = json.loads(
                (directory / "METRICS.json").read_text()
            )
            exported_series = json.loads(
                (directory / "SERIES.json").read_text()
            )
            last = live.latest()
            assert last is not None, f"no scrape happened in {label} mode"
            # Within a mode: the last scrape IS the export, field for
            # field -- counters, histograms, gauges, and every series.
            assert last["metrics"]["counters"] == exported_metrics["counters"]
            assert last["metrics"]["histograms"] == exported_metrics["histograms"]
            assert last["metrics"]["gauges"] == exported_metrics["gauges"]
            assert last["series"]["series"] == exported_series["series"]
            counters_by_mode[label] = last["metrics"]["counters"]
            series_by_mode[label] = {
                key: entry["total"]
                for key, entry in last["series"]["series"].items()
            }
        # Across modes: cumulative counter totals and series totals are
        # scheduling-invariant (gauges are process-local observations
        # and carry no such guarantee).
        assert counters_by_mode["serial"]
        assert counters_by_mode["thread2"] == counters_by_mode["serial"]
        assert counters_by_mode["process3"] == counters_by_mode["serial"]
        assert series_by_mode["thread2"] == series_by_mode["serial"]
        assert series_by_mode["process3"] == series_by_mode["serial"]

    def test_pipeline_detached_after_run(self, store, tmp_path):
        _run_live(store, "auto", 1, tmp_path / "tele")
        assert active() is None  # run_all restores the previous pipeline


class TestMonthTicks:
    def test_collection_streams_month_stamped_scrapes(self, tmp_path):
        # An unwarmed world forces snapshot collection, whose simulated
        # months drive the installed pipeline's clock.
        _reset()
        live = LiveTelemetry()
        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(path)
        live.add_sink(sink)
        run_all(SMALL, workers=1, experiments=["figure2"],
                store=WorldStore(), telemetry_dir=tmp_path, live=live)
        sink.close()
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        ticked = [r for r in records if r["month"] is not None]
        assert ticked, "no month-stamped scrapes reached the stream"
        assert all(r["kind"] == "scrape" for r in ticked)
        # Even with mid-run tick scrapes, the final cumulative payload
        # still matches the export exactly (the scraper counts its own
        # scrapes before snapshotting).
        exported = json.loads((tmp_path / "METRICS.json").read_text())
        last = live.latest()
        assert last["metrics"]["counters"] == exported["counters"]
        assert last["metrics"]["counters"]["live.scrapes"] == len(records)
