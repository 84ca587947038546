"""Orchestrator-level incremental recomputation.

The contract under test: a warm ``run_all(incremental=...)`` is
byte-identical to a cold full run in line and forked, at any worker
count; a one-parameter edit invalidates exactly one experiment; a code
change invalidates every experiment and every stored verdict row; and
chaos runs never read or write the store.
"""

import json
import multiprocessing
import shutil

import pytest

from repro.core import policy
from repro.core.compiled import shared_policy_cache
from repro.measure import incremental
from repro.measure.incremental import IncrementalStore
from repro.net.chaos import chaos_active, plan
from repro.obs.metrics import shared_registry
from repro.report.orchestrator import run_all
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

SMALL = PopulationConfig(
    universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
)

#: Covers all three world kinds: none (table1), bundle (figure2,
#: taxonomy), population (sec62).
SLICE = ["table1", "figure2", "sec62", "taxonomy"]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _texts(report):
    return [(r.experiment_id, r.text, sorted(r.metrics.items()))
            for r in report.results]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated by one cold incremental run, plus the cold texts."""
    root = tmp_path_factory.mktemp("inc") / "cache"
    cold = run_all(
        SMALL, workers=1, experiments=SLICE, store=WorldStore(), incremental=root
    )
    assert all(v == "run:first" for v in cold.incremental.values())
    return root, _texts(cold)


class TestWarmEquivalence:
    def test_warm_serial_run_is_byte_identical(self, warm_store):
        root, cold_texts = warm_store
        warm = run_all(
            SMALL, workers=1, experiments=SLICE, store=WorldStore(),
            incremental=root,
        )
        assert all(v == "hit" for v in warm.incremental.values())
        assert _texts(warm) == cold_texts
        # Fully warm: no world was built.
        assert warm.world_seconds < 0.05

    @pytest.mark.parametrize(
        "workers",
        [
            pytest.param(2, id="process-2", marks=needs_fork),
            pytest.param(3, id="process-3", marks=needs_fork),
        ],
    )
    def test_warm_runs_match_across_modes_and_workers(
        self, warm_store, tmp_path, force_fork, workers
    ):
        root, cold_texts = warm_store
        # Drop two stored results from a copy of the warm store: the run
        # assembles two hits and re-runs the other two on the fork pool,
        # their verdict rows still read from the store.
        copy = tmp_path / "cache"
        shutil.copytree(root, copy)
        path = copy / "experiments.json"
        stored = json.loads(path.read_text())
        for key in ("figure2", "sec62"):
            del stored[key]
        path.write_text(json.dumps(stored))
        report = run_all(
            SMALL, workers=workers, experiments=SLICE, store=WorldStore(),
            incremental=copy,
        )
        assert report.mode == "process"
        assert [report.incremental[key] for key in SLICE] == [
            "hit", "run:first", "run:first", "hit"
        ]
        assert _texts(report) == cold_texts

    @needs_fork
    def test_forked_cold_run_stores_the_rows_an_in_line_run_stores(
        self, tmp_path, force_fork
    ):
        """The rows are built in the parent before the battery forks, so
        the store keeps them whatever the worker count."""
        rows = {}
        for workers in (1, 2):
            root = tmp_path / f"cache-{workers}"
            report = run_all(
                SMALL, workers=workers, experiments=["figure2", "figure3", "taxonomy"],
                store=WorldStore(), incremental=root,
            )
            assert report.mode == ("serial" if workers == 1 else "process")
            rows[workers] = json.loads((root / "bodies.json").read_text())["rows"]
        assert rows[1]
        assert rows[2] == rows[1]

    def test_run_without_row_readers_builds_no_rows(self, tmp_path, monkeypatch):
        """table3 reads no verdict row: a cold incremental table3 run
        parses as many bodies as a run without the store, and stores no
        row."""
        parsed = []
        parse = policy.parse

        def counting(source):
            parsed.append(source)
            return parse(source)

        monkeypatch.setattr(policy, "parse", counting)
        counts = {}
        for root in (None, tmp_path / "cache"):
            shared_policy_cache().clear()
            parsed.clear()
            run_all(SMALL, workers=1, experiments=["table3"], store=WorldStore(),
                    incremental=root)
            counts[root] = len(parsed)
        assert counts[tmp_path / "cache"] == counts[None]
        stored = json.loads((tmp_path / "cache" / "bodies.json").read_text())
        assert stored["rows"] == {}

    def test_cold_incremental_matches_plain_run(self, tmp_path):
        plain = run_all(SMALL, workers=1, experiments=["figure2"],
                        store=WorldStore())
        cold = run_all(SMALL, workers=1, experiments=["figure2"],
                       store=WorldStore(), incremental=tmp_path / "cache")
        assert _texts(cold) == _texts(plain)

    def test_counters_record_decisions(self, warm_store):
        root, _ = warm_store
        registry = shared_registry()
        before = registry.counter_value("incremental.hits")
        run_all(SMALL, workers=1, experiments=SLICE, store=WorldStore(),
                incremental=root)
        assert registry.counter_value("incremental.hits") - before == len(SLICE)


class TestInvalidation:
    def test_param_edit_invalidates_exactly_one(self, warm_store):
        root, cold_texts = warm_store
        edited = run_all(
            SMALL, workers=1, experiments=SLICE, store=WorldStore(),
            incremental=root, param_overrides={"table1": {"months": 4}},
        )
        assert edited.incremental["table1"] == "run:invalidated"
        others = {k: v for k, v in edited.incremental.items() if k != "table1"}
        assert all(v == "hit" for v in others.values())
        # Revert: table1 re-runs under defaults and matches the cold run.
        reverted = run_all(
            SMALL, workers=1, experiments=SLICE, store=WorldStore(),
            incremental=root,
        )
        assert reverted.incremental["table1"] == "run:invalidated"
        assert _texts(reverted) == cold_texts

    def test_config_change_invalidates_world_experiments(self, warm_store):
        root, _ = warm_store
        other = PopulationConfig(
            universe_size=500, list_size=300, top5k_cut=40, audit_size=90,
            seed=8,
        )
        report = run_all(
            other, workers=1, experiments=SLICE, store=WorldStore(),
            incremental=root,
        )
        # World-dependent experiments see a new config digest; the
        # world-free table1 is keyed config-independently and hits.
        assert report.incremental["table1"] == "hit"
        for key in ("figure2", "sec62", "taxonomy"):
            assert report.incremental[key] == "run:invalidated"

    def test_code_change_invalidates_every_experiment(
        self, tmp_path, monkeypatch
    ):
        """A stored result names the code that computed it: a run under
        other code re-runs everything once, then hits again."""
        root = tmp_path / "cache"

        def run():
            return run_all(
                SMALL, workers=1, experiments=SLICE, store=WorldStore(),
                incremental=root,
            )

        cold = run()
        assert set(cold.incremental.values()) == {"run:first"}
        monkeypatch.setattr(incremental, "code_digest", lambda: "c0de" * 16)
        changed = run()
        assert set(changed.incremental.values()) == {"run:invalidated"}
        again = run()
        assert set(again.incremental.values()) == {"hit"}
        assert _texts(again) == _texts(changed) == _texts(cold)

    def test_code_change_retires_stored_verdict_rows(self, tmp_path, monkeypatch):
        """A stored verdict row names the code that classified it: a run
        under other code reads no row from the store and prints what a
        cold run prints."""
        root = tmp_path / "cache"

        def run(**overrides):
            store = WorldStore()
            report = run_all(
                SMALL, workers=1, experiments=["figure2"], store=store,
                incremental=root, param_overrides=overrides,
            )
            return _texts(report), store.series(SMALL).cache.stats["persistent_hits"]

        cold, _ = run()
        # The same code re-running figure2 reads its rows from the store.
        _, reads = run(figure2={"require_explicit": False})
        assert reads > 0
        monkeypatch.setattr(incremental, "code_digest", lambda: "c0de" * 16)
        changed, reads = run()
        assert reads == 0
        assert changed == cold

    def test_unknown_override_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_all(SMALL, experiments=["table1"], store=WorldStore(),
                    param_overrides={"nope": {"x": 1}})
        with pytest.raises(ValueError):
            run_all(SMALL, experiments=["table1"], store=WorldStore(),
                    param_overrides={"table1": {"not_a_param": 1}})


class TestChaosIsolation:
    def test_chaos_run_never_touches_the_store(self, warm_store):
        root, cold_texts = warm_store
        store = IncrementalStore(root)
        before = (
            store.experiments_path.read_bytes(),
            store.bodies_path.read_bytes(),
        )
        with chaos_active(plan("flaky-resets")):
            report = run_all(
                SMALL, workers=1, experiments=SLICE, store=WorldStore(),
                incremental=root,
            )
        assert all(v == "bypassed:chaos" for v in report.incremental.values())
        after = (
            store.experiments_path.read_bytes(),
            store.bodies_path.read_bytes(),
        )
        assert after == before
        # And the bypass didn't corrupt warm behavior afterwards.
        warm = run_all(
            SMALL, workers=1, experiments=SLICE, store=WorldStore(),
            incremental=root,
        )
        assert _texts(warm) == cold_texts
