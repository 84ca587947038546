"""Cross-mode byte-identity for the wide-event log plane.

The contract: ``run_all(log_dir=...)`` commits a columnar log archive
-- and the FEATURES.json derived from it -- that is **byte-identical
across serial/thread/fork scheduling at any worker count**.  Named
streams plus shipped fork deltas deliver it; this suite pins the
resulting bytes, not just aggregate equality.
"""

import json
import multiprocessing

import pytest

from repro.net.accesslog import active_log_sink
from repro.net.logstore import LogStore
from repro.obs.alerts import AlertRule, evaluate
from repro.obs.analyze import (
    REQUEST_CELL,
    dashboard_matrix,
    known_categories,
    load_series,
    request_cells,
)
from repro.obs.logql import group_by, timelines
from repro.obs.metrics import parse_key, shared_registry
from repro.obs.trace import shared_tracer
from repro.report.orchestrator import run_all
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(universe_size=500, list_size=300, top5k_cut=40,
                         audit_size=90, seed=7)

#: Covers the request-heavy sources (crawler fleet through the proxy
#: and server planes) -- same slice the batch cross-mode identity
#: tests use.
SLICE = ["table1", "figure2", "sec62"]


@pytest.fixture(scope="module")
def store():
    return WorldStore()


def _reset():
    shared_registry().reset()
    shared_tracer().drain()


def _archive_bytes(root):
    """Every file under *root* as ``{relative_path: bytes}``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestLogArchiveIdentity:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_archive_bytes_identical_across_modes(self, store, tmp_path, force_fork):
        # Pre-warm the world so every run measures identical work.
        run_all(SMALL, workers=1, experiments=SLICE, store=store)
        archives = {}
        features = {}
        for workers in (1, 2, 3):
            _reset()
            log_dir = tmp_path / f"w{workers}"
            report = run_all(SMALL, workers=workers, experiments=SLICE,
                             store=store, log_dir=log_dir)
            assert report.mode == ("serial" if workers == 1 else "process")
            archives[workers] = _archive_bytes(log_dir)
            features[workers] = (log_dir / "FEATURES.json").read_bytes()
            with LogStore.open(log_dir) as committed:
                assert committed.n_records > 0
                committed.verify()
        for workers in (2, 3):
            assert archives[workers] == archives[1], workers
            assert features[workers] == features[1], workers

    def test_sink_detached_after_run(self, store, tmp_path):
        run_all(SMALL, workers=1, experiments=["table1"], store=store,
                log_dir=tmp_path / "logs")
        assert active_log_sink() is None  # run_all restores the previous sink

    def test_features_land_in_telemetry_dir_when_given(self, store, tmp_path):
        run_all(SMALL, workers=1, experiments=["table1"], store=store,
                telemetry_dir=tmp_path / "tele", log_dir=tmp_path / "logs")
        assert (tmp_path / "tele" / "FEATURES.json").is_file()
        assert not (tmp_path / "logs" / "FEATURES.json").exists()
        payload = json.loads((tmp_path / "tele" / "FEATURES.json").read_text())
        with LogStore.open(tmp_path / "logs") as committed:
            assert payload["n_records"] == committed.n_records
            assert payload["config_digest"] == committed.config_digest


class TestOneRequestRecord:
    @pytest.fixture(scope="class")
    def run_dirs(self, store, tmp_path_factory):
        """One run's SERIES.json payload and the directory of its log store."""
        root = tmp_path_factory.mktemp("one-record")
        _reset()
        run_all(SMALL, workers=1, experiments=SLICE, store=store,
                telemetry_dir=root / "tele", log_dir=root / "logs")
        return load_series(root / "tele" / "SERIES.json"), root / "logs"

    def test_series_and_log_store_agree_cell_by_cell(self, run_dirs):
        """``sim.requests`` and the log store project the same appends.

        Every :meth:`~repro.net.accesslog.AccessLog.append` adds one
        series point and emits one wide event, so grouping the store by
        the series' labels and month reproduces SERIES.json exactly.
        """
        payload, log_dir = run_dirs
        cells = {}
        for rendered, data in payload["series"].items():
            name, labels = parse_key(rendered)
            if name != "sim.requests":
                continue
            for month, value in zip(data["months"], data["values"]):
                key = (labels["agent"], labels["outcome"],
                       labels["site_category"], month)
                cells[key] = value
        with LogStore.open(log_dir) as committed:
            grouped = group_by(committed, ("agent", "outcome", "category", "month"))
            assert sum(grouped.values()) == committed.n_records
        assert cells and cells == grouped

    def test_both_sources_fold_to_the_same_answers(self, run_dirs):
        """The dashboard and the ``log_volume`` rule read request cells.

        SERIES.json and the log store hold the same cells, so every
        dashboard matrix (each known category and none) and every
        per-(agent, month) volume the rule checks are the same from
        either source.
        """
        payload, log_dir = run_dirs
        from_series = request_cells(payload)
        with LogStore.open(log_dir) as committed:
            from_store = group_by(committed, REQUEST_CELL)
            lines = timelines(committed)
        assert from_series == from_store
        categories = known_categories(from_series)
        assert len(categories) > 1
        assert categories == known_categories(from_store)
        for category in [None, *categories]:
            matrix = dashboard_matrix(from_series, category)
            assert matrix and matrix == dashboard_matrix(from_store, category)

        volume = {}
        for (agent, month, _, _), count in from_series.items():
            volume[agent, month] = volume.get((agent, month), 0) + count
        assert volume == {
            (agent, month): count
            for agent, months in lines.items()
            for month, count in months.items()
        }
        for agent, months in lines.items():
            rule = AlertRule(name="volume", kind="log_volume",
                             labels=(("agent", agent),), threshold=0)
            (event,) = evaluate([rule], None, payload)
            busiest = max(months, key=months.get)
            assert event.context == {"agent": agent, "month": busiest}
            assert event.value == months[busiest]
