"""Tier-1 chaos invariance: fault campaigns must not change results.

The acceptance property of the chaos harness: run the fig2 +
active-blocking experiments under a healable fault plan and the
``results/*.txt`` texts are byte-identical to the fault-free run, for
any chaos seed -- and with the retry/confirmation hardening disabled,
the same plan demonstrably degrades the results (the regression test
locks in *both* directions).
"""

import pytest

from repro.net import chaos
from repro.report.orchestrator import run_all, run_strata
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(
    universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
)

#: The acceptance-criteria pair: one bundle experiment (the snapshot
#: crawl plane) and one population experiment (the probe plane).
KEYS = ["figure2", "sec62"]


@pytest.fixture(autouse=True)
def _chaos_hygiene():
    yield
    chaos.deactivate()
    chaos.set_retries_enabled(True)


@pytest.fixture(scope="module")
def baseline_texts():
    report = run_all(SMALL, experiments=KEYS, store=WorldStore())
    return {r.experiment_id: r.text for r in report.results}


def _chaos_texts(seed, plan="flaky-resets"):
    with chaos.chaos_active(chaos.plan(plan), seed):
        report = run_all(SMALL, experiments=KEYS, store=WorldStore())
    return {r.experiment_id: r.text for r in report.results}


class TestChaosSeedInvariance:
    def test_seed0_byte_identical_to_baseline(self, baseline_texts):
        assert _chaos_texts(seed=0) == baseline_texts

    def test_seed1_byte_identical_to_baseline(self, baseline_texts):
        # Two seeds fault different host subsets; both must heal to the
        # same bytes.
        assert _chaos_texts(seed=1) == baseline_texts

    def test_faults_actually_fired(self, baseline_texts):
        from repro.obs.metrics import shared_registry

        registry = shared_registry()
        before = registry.counter_value(
            "chaos.faults", kind="reset", plan="flaky-resets"
        )
        _chaos_texts(seed=0)
        after = registry.counter_value(
            "chaos.faults", kind="reset", plan="flaky-resets"
        )
        # The invariance above is vacuous unless the campaign injected
        # a meaningful number of faults.
        assert after - before > 50

    def test_retries_disabled_demonstrably_degrades(self, baseline_texts):
        with chaos.retries_disabled():
            degraded = _chaos_texts(seed=0)
        assert degraded != baseline_texts

    def test_chaos_run_leaves_no_armed_plan(self, baseline_texts):
        _chaos_texts(seed=0)
        assert chaos.active_plan() is None


class TestArmedPlanIsolation:
    """A plan armed by the caller must not leave faulted worlds behind."""

    def test_armed_run_does_not_poison_the_shared_store(self):
        from repro.web.population import stratum_config

        cfg = stratum_config("top-1k", PopulationConfig())
        keys = ["figure2", "table3"]

        def texts(**kwargs):
            report = run_all(cfg, experiments=keys, **kwargs)
            return [r.text for r in report.results]

        clean = texts(store=WorldStore())
        with chaos.chaos_active(chaos.plan("outage-window"), 0):
            faulted = texts()
        assert faulted != clean
        # Disarmed, the process-shared store serves the clean world.
        assert texts() == clean

    @staticmethod
    def _strata_texts(archive_dir):
        report = run_strata(["top-1k"], archive_dir=archive_dir, store=WorldStore())
        return [r.text for r in report.results]

    def test_armed_strata_archive_is_not_served_to_a_clean_run(self, tmp_path):
        clean = self._strata_texts(tmp_path / "clean")
        with chaos.chaos_active(chaos.plan("outage-window"), 0):
            faulted = self._strata_texts(tmp_path / "shared")
        assert faulted != clean
        # Disarmed over the faulted archive: recrawled, not reopened.
        assert self._strata_texts(tmp_path / "shared") == clean

    def test_armed_strata_run_does_not_reopen_a_clean_archive(self, tmp_path):
        clean = self._strata_texts(tmp_path / "shared")
        with chaos.chaos_active(chaos.plan("outage-window"), 0):
            faulted = self._strata_texts(tmp_path / "shared")
            # The same plan and seed reopen the archive they wrote.
            assert self._strata_texts(tmp_path / "shared") == faulted
        assert faulted != clean
