"""Strata runs: the Section 3 battery over archives via the orchestrator.

``run_strata`` crawls (or reopens) one sharded columnar archive per
stratum and hands it to the Figure 2-4 / Table 3 runners.
"""

import json

import pytest

from repro.cli import main
from repro.core.classify import VerdictRow
from repro.measure import incremental, longitudinal
from repro.obs.analyze import select
from repro.obs.metrics import shared_registry
from repro.report.orchestrator import run_strata
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

BASE = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
)

STRATA = ["top-10k"]  # cutoff 30 at this scale: small but churn-stable


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    archive_dir = tmp_path_factory.mktemp("archives")
    store = WorldStore()
    report = run_strata(
        STRATA, config=BASE, shards=2, archive_dir=archive_dir, store=store
    )
    return report, archive_dir, store


class TestRunStrata:
    def test_result_ids_are_stratum_suffixed(self, first_run):
        report, _, _ = first_run
        assert [r.experiment_id for r in report.results] == [
            "figure2@top-10k", "figure3@top-10k",
            "figure4@top-10k", "table3@top-10k",
        ]
        assert report.mode == "strata"
        for result in report.results:
            assert result.text.strip()
            assert result.title.endswith("[top-10k]")

    def test_timings_cover_every_experiment(self, first_run):
        report, _, _ = first_run
        payload = report.to_timings()
        keys = [entry["key"] for entry in payload["experiments"]]
        assert keys == ["figure2@top-10k", "figure3@top-10k",
                        "figure4@top-10k", "table3@top-10k"]
        assert all(entry["world"] == "archive"
                   for entry in payload["experiments"])

    def test_archive_persists_on_disk(self, first_run):
        _, archive_dir, _ = first_run
        shard_dirs = sorted((archive_dir / "top-10k").glob("shard-*"))
        assert len(shard_dirs) == 2
        assert all((d / "manifest.json").exists() for d in shard_dirs)

    def test_warm_rerun_reuses_archive_and_matches(self, first_run):
        report, archive_dir, store = first_run
        hits_before = store._archive_hits.value
        again = run_strata(
            STRATA, config=BASE, shards=2, archive_dir=archive_dir, store=store
        )
        assert store._archive_hits.value == hits_before + 1
        assert [r.text for r in again.results] == [
            r.text for r in report.results
        ]
        assert [r.metrics for r in again.results] == [
            r.metrics for r in report.results
        ]

    def test_recrawl_with_fewer_shards_drops_stale_shards(self, tmp_path):
        store = WorldStore()
        run_strata(STRATA, config=BASE, shards=3, archive_dir=tmp_path, store=store)
        other = PopulationConfig(
            universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=8
        )
        report = run_strata(
            STRATA, config=other, shards=2, archive_dir=tmp_path, store=store
        )
        assert len(report.results) == 4
        root = tmp_path / "top-10k"
        assert [p.name for p in sorted(root.glob("shard-*"))] == [
            "shard-0000", "shard-0001"
        ]
        assert (root / "facts.json").exists()

    def test_unknown_stratum_is_a_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="unknown stratum"):
            run_strata(["top-5k"], config=BASE, archive_dir=tmp_path)


class TestOneSweepPerFigure:
    """Each runner sweeps the archive once, and every sweep reads the
    archive's one row cache."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"analyses": 0, "classified": 0, "unpacked": 0}
        real_init = longitudinal.ShardAnalysis.__init__
        real_of = VerdictRow.of.__func__
        real_unpack = VerdictRow.unpack.__func__

        def init(self, reader):
            counts["analyses"] += 1
            real_init(self, reader)

        def of(cls, policy):
            counts["classified"] += 1
            return real_of(cls, policy)

        def unpack(cls, packed):
            row = real_unpack(cls, packed)
            counts["unpacked"] += row is not None
            return row

        monkeypatch.setattr(longitudinal.ShardAnalysis, "__init__", init)
        monkeypatch.setattr(VerdictRow, "of", classmethod(of))
        monkeypatch.setattr(VerdictRow, "unpack", classmethod(unpack))
        return counts

    def test_four_sweeps_and_one_row_per_body(self, tmp_path, work):
        shards = 3
        run_strata(STRATA, config=BASE, shards=shards, archive_dir=tmp_path,
                   store=WorldStore())
        facts = json.loads((tmp_path / "top-10k" / "facts.json").read_text())
        n_rows = len(facts["rows"])
        assert n_rows > 0
        assert work == {"analyses": 4 * shards, "classified": n_rows, "unpacked": 0}
        for key in work:
            work[key] = 0
        # Reopened: every row comes from facts.json, read once.
        run_strata(STRATA, config=BASE, shards=shards, archive_dir=tmp_path,
                   store=WorldStore())
        assert work == {"analyses": 4 * shards, "classified": 0, "unpacked": n_rows}


class TestCacheGauges:
    def test_warm_run_reports_its_persistent_hits(self, tmp_path, capsys):
        """A reopened stratum reads every row from facts.json, and its
        telemetry says so: one ``persistent_hits`` gauge per stratum,
        which ``repro stats`` sums into the cache-effectiveness block."""
        archive_dir, telemetry = tmp_path / "archives", tmp_path / "telemetry"
        run_strata(STRATA, config=BASE, shards=2, archive_dir=archive_dir,
                   store=WorldStore())
        shared_registry().reset()
        run_strata(STRATA, config=BASE, shards=2, archive_dir=archive_dir,
                   store=WorldStore(), telemetry_dir=telemetry)
        facts = json.loads((archive_dir / "top-10k" / "facts.json").read_text())
        n_bodies = len(facts["rows"])
        assert n_bodies > 0
        gauges = json.loads((telemetry / "METRICS.json").read_text())["gauges"]
        keys = select(gauges, "measure.policy_cache.persistent_hits")
        by_stratum = {
            labels.get("stratum"): gauges[key] for key, labels in keys.items()
        }
        assert by_stratum["top-10k"] == n_bodies
        # Gauges other runs in this process left are zeroed by the reset.
        assert sum(gauges[key] for key in keys) == n_bodies
        capsys.readouterr()
        assert main(["stats", str(telemetry)]) == 0
        assert f"body verdicts: {n_bodies} persistent hits" in capsys.readouterr().out


class TestCodeChange:
    def test_code_change_recrawls_the_archive_and_its_facts(
        self, tmp_path, monkeypatch
    ):
        """An archive and its verdict rows name the code that wrote
        them: under other code the stratum is recrawled (a
        ``worldstore.archive`` miss) and no row is read from the old
        ``facts.json``."""

        def run():
            store = WorldStore()
            report = run_strata(STRATA, config=BASE, shards=2,
                                archive_dir=tmp_path, store=store)
            reads = shared_registry().gauge(
                "measure.policy_cache.persistent_hits", stratum="top-10k"
            ).value
            return [r.text for r in report.results], store._archive_misses.value, reads

        cold, misses, _ = run()
        assert misses == 1
        warm, misses, reads = run()
        assert (warm, misses) == (cold, 0)
        assert reads > 0
        monkeypatch.setattr(incremental, "code_digest", lambda: "c0de" * 16)
        changed, misses, reads = run()
        assert (changed, misses, reads) == (cold, 1, 0)


class TestStreamingMatchesClassic:
    def test_stratum_figures_match_in_memory_battery(self, first_run):
        """Each archive-backed result equals the same runner over the
        in-memory series of the same stratum config (modulo the
        stratum-suffixed id)."""
        from repro.report import experiments as exp
        from repro.web.population import stratum_config

        report, _, store = first_run
        bundle = exp.build_longitudinal_bundle(
            stratum_config("top-10k", BASE), store=store
        )
        for runner in (exp.run_figure2, exp.run_figure3, exp.run_figure4,
                       exp.run_table3):
            in_memory = runner(bundle.series)
            streamed = next(
                r for r in report.results
                if r.experiment_id == f"{in_memory.experiment_id}@top-10k"
            )
            assert streamed.text == in_memory.text
            assert streamed.metrics == in_memory.metrics
