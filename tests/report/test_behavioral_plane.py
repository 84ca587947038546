"""Cross-mode determinism for the behavioral detection plane.

The contract extends the log-plane one: with the behavioral layer
armed, experiment texts, metrics, and the exported ``BEHAVIORAL.json``
verdicts are byte-identical across serial/thread/fork scheduling at
any worker count -- and the adversarial stealth profiles measurably
evade detection where naive crawling is gated.
"""

import json
import multiprocessing

import pytest

from repro.net.logstore import LogStore
from repro.obs.metrics import shared_registry
from repro.obs.trace import shared_tracer
from repro.report.experiments import (
    run_behavioral_equilibrium,
    run_selective_compliance,
)
from repro.report.orchestrator import run_all
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(universe_size=500, list_size=300, top5k_cut=40,
                         audit_size=90, seed=7)

#: The behavioral experiments are WORLD_NONE; table1 rides along so the
#: archive also carries population-backed traffic.
SLICE = ["behavioral", "selective", "table1"]


@pytest.fixture(scope="module")
def store():
    return WorldStore()


def _reset():
    shared_registry().reset()
    shared_tracer().drain()


class TestCrossModeIdentity:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_texts_and_verdicts_identical_across_modes(
        self, store, tmp_path, force_fork
    ):
        run_all(SMALL, workers=1, experiments=SLICE, store=store)  # pre-warm
        texts = {}
        verdicts = {}
        for workers in (1, 2, 3):
            _reset()
            log_dir = tmp_path / f"w{workers}"
            report = run_all(SMALL, workers=workers, experiments=SLICE,
                             store=store, log_dir=log_dir)
            assert report.mode == ("serial" if workers == 1 else "process")
            texts[workers] = [(r.experiment_id, r.text, sorted(r.metrics.items()))
                              for r in report.results]
            verdicts[workers] = (log_dir / "BEHAVIORAL.json").read_bytes()
            with LogStore.open(log_dir) as committed:
                assert committed.n_records > 0
        for workers in (2, 3):
            assert texts[workers] == texts[1], workers
            assert verdicts[workers] == verdicts[1], workers

    def test_verdicts_export_next_to_features(self, store, tmp_path):
        run_all(SMALL, workers=1, experiments=["behavioral"], store=store,
                log_dir=tmp_path / "logs")
        payload = json.loads((tmp_path / "logs" / "BEHAVIORAL.json").read_text())
        assert payload["schema_version"] == 1
        assert (tmp_path / "logs" / "FEATURES.json").is_file()
        with LogStore.open(tmp_path / "logs") as committed:
            assert payload["n_records"] == committed.n_records
            assert payload["config_digest"] == committed.config_digest

    def test_verdicts_follow_features_into_telemetry_dir(self, store, tmp_path):
        run_all(SMALL, workers=1, experiments=["behavioral"], store=store,
                telemetry_dir=tmp_path / "tele", log_dir=tmp_path / "logs")
        assert (tmp_path / "tele" / "BEHAVIORAL.json").is_file()
        assert not (tmp_path / "logs" / "BEHAVIORAL.json").exists()


class TestEquilibrium:
    def test_stealth_evades_where_naive_is_gated(self):
        result = run_behavioral_equilibrium(seed=7, pages=24)
        m = result.metrics
        assert m["detection_rate_naive"] > 0.0
        assert m["detection_rate_full_stealth"] == 0.0
        assert m["detection_rate_full_stealth"] < m["detection_rate_naive"]
        # Evasion is paid for in simulated crawl time.
        assert m["sim_seconds_full_stealth"] > m["sim_seconds_naive"]
        assert m["pages_ok_full_stealth"] > m["pages_ok_naive"]

    def test_rotation_backfires_against_behavioral_scoring(self):
        result = run_behavioral_equilibrium(seed=7, pages=24)
        m = result.metrics
        # Rotating UAs past the list trips the churn signal instead of
        # helping: detection stays at least as high as the naive bot's.
        assert m["detection_rate_ua_rotate"] >= m["detection_rate_naive"]

    def test_runs_repeat_identically(self):
        first = run_behavioral_equilibrium(seed=7, pages=24)
        second = run_behavioral_equilibrium(seed=7, pages=24)
        assert first.text == second.text
        assert first.metrics == second.metrics


class TestSelectiveCompliance:
    def test_per_directive_matrix(self):
        result = run_selective_compliance(seed=7)
        m = result.metrics
        assert m["disallow_obeyed_obeys_all"] == 1.0
        assert m["delay_obeyed_obeys_all"] == 1.0
        assert m["disallow_obeyed_ignores_delay"] == 1.0
        assert m["delay_obeyed_ignores_delay"] == 0.0
        assert m["disallow_obeyed_ignores_disallow"] == 0.0
        assert m["delay_obeyed_ignores_disallow"] == 1.0
        assert m["disallow_obeyed_ignores_all"] == 0.0
        assert m["delay_obeyed_ignores_all"] == 0.0

    def test_runs_repeat_identically(self):
        first = run_selective_compliance(seed=7)
        second = run_selective_compliance(seed=7)
        assert first.text == second.text
        assert first.metrics == second.metrics
