"""The persistent incremental store: roundtrips, schema hygiene, and
the PolicyCache persistent backing."""

import json

import pytest

from repro.core.classify import RestrictionLevel, VerdictRow, classify
from repro.core.compiled import policy_digest
from repro.core.policy import RobotsPolicy
from repro.measure.cache import PolicyCache
from repro.measure.incremental import (
    SCHEMA_FINGERPRINT,
    IncrementalStore,
    experiment_input_key,
    params_digest,
)
from repro.report.experiments import ExperimentResult

ROBOTS = "User-agent: GPTBot\nDisallow: /\n"
ALLOWS = "User-agent: CCBot\nAllow: /\n"
AGENTS = ("GPTBot", "CCBot", "anthropic-ai")


def _row(text):
    return VerdictRow.of(RobotsPolicy(text))


class TestStoreRoundtrip:
    def test_classification_roundtrip_across_processes(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        computed = classify(ROBOTS, "GPTBot", require_explicit=True)
        store.put_row("d" * 64, _row(ROBOTS).pack())
        store.flush()
        reloaded = IncrementalStore(tmp_path / "cache")
        got = VerdictRow.unpack(reloaded.get_row("d" * 64)).classification("GPTBot")
        assert got == computed
        assert isinstance(got.level, RestrictionLevel)

    def test_flags_roundtrip(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        store.put_row("a" * 64, _row(ROBOTS).pack())
        store.put_row("b" * 64, _row(ALLOWS).pack())
        store.flush()
        reloaded = IncrementalStore(tmp_path / "cache")
        full = VerdictRow.unpack(reloaded.get_row("a" * 64))
        allows = VerdictRow.unpack(reloaded.get_row("b" * 64))
        assert full.fully_disallows_any(["GPTBot", "CCBot"]) is True
        assert full.allows_any(["GPTBot", "CCBot"]) is False
        assert allows.fully_disallows_any(["GPTBot", "CCBot"]) is False
        assert allows.allows_any(["GPTBot", "CCBot"]) is True
        assert allows.classification("CCBot").explicit_allow is True
        assert reloaded.get_row("c" * 64) is None
        assert len(reloaded.facts_payload()["rows"]) == 2

    def test_experiment_roundtrip_and_dispositions(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        result = ExperimentResult(
            experiment_id="figure2",
            title="Figure 2",
            text="rendered\ntable\n",
            metrics={"pct": 12.5, "n": 40},
        )
        input_key = experiment_input_key(
            "figure2", "figure2", "bundle", "w" * 64, (("require_explicit", True),)
        )
        assert store.lookup_experiment("figure2", input_key) == ("miss", None)
        store.record_experiment("figure2", input_key, result)
        store.flush()
        reloaded = IncrementalStore(tmp_path / "cache")
        disposition, got = reloaded.lookup_experiment("figure2", input_key)
        assert disposition == "hit"
        assert got == result
        other_key = experiment_input_key(
            "figure2", "figure2", "bundle", "w" * 64, (("require_explicit", False),)
        )
        assert reloaded.lookup_experiment("figure2", other_key) == (
            "invalidated",
            None,
        )

    def test_flush_is_a_noop_when_clean(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        store.flush()
        assert not (tmp_path / "cache").exists()


class TestSchemaHygiene:
    def test_stale_fingerprint_self_invalidates(self, tmp_path):
        root = tmp_path / "cache"
        store = IncrementalStore(root)
        store.put_row("a" * 64, _row(ROBOTS).pack())
        store.flush()
        meta = json.loads((root / "meta.json").read_text())
        meta["schema_fingerprint"] = "0" * 64
        (root / "meta.json").write_text(json.dumps(meta))
        reloaded = IncrementalStore(root)
        assert reloaded.schema_invalidated
        assert reloaded.get_row("a" * 64) is None
        assert len(reloaded.facts_payload()["rows"]) == 0

    def test_corrupt_files_load_as_empty(self, tmp_path):
        root = tmp_path / "cache"
        store = IncrementalStore(root)
        store.put_row("a" * 64, _row(ROBOTS).pack())
        store.flush()
        (root / "bodies.json").write_text("{not json")
        reloaded = IncrementalStore(root)
        assert reloaded.get_row("a" * 64) is None

    @pytest.mark.parametrize("rows", [[], "rows", 7, None])
    def test_rows_that_are_not_an_object_load_as_empty(self, tmp_path, rows):
        root = tmp_path / "cache"
        store = IncrementalStore(root)
        store.put_row("a" * 64, _row(ROBOTS).pack())
        store.flush()
        (root / "bodies.json").write_text(json.dumps({"rows": rows}))
        reloaded = IncrementalStore(root)
        assert len(reloaded.facts_payload()["rows"]) == 0
        assert reloaded.get_row("a" * 64) is None

    def test_fingerprint_tracks_schema_literal(self):
        assert len(SCHEMA_FINGERPRINT) == 64
        # Digest helper is canonical: key order cannot matter.
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})


def _answers(row):
    return (
        row.classification("GPTBot"),
        row.fully_disallows_any(AGENTS),
        row.classification("GPTBot").explicit_allow,
        row.allows_any(AGENTS),
    )


class TestPolicyCachePersistence:
    def test_warm_cache_answers_without_computing(self, tmp_path):
        root = tmp_path / "cache"
        cold = PolicyCache()
        store = IncrementalStore(root)
        cold.attach_store(store)
        baseline = _answers(cold.row(ROBOTS))
        store.flush()

        warm = PolicyCache()
        warm.attach_store(IncrementalStore(root))
        answers = _answers(warm.row(ROBOTS))
        assert answers == baseline
        assert warm.stats["persistent_hits"] == 1
        assert warm.stats["misses"] == 0

    def test_reopened_rows_are_interned(self, tmp_path):
        """Two stored bodies with one packed row reopen as one object."""
        twin = ROBOTS + "# another body, the same verdicts\n"
        cold = PolicyCache()
        store = IncrementalStore(tmp_path / "cache")
        cold.attach_store(store)
        cold.row(ROBOTS)
        cold.row(twin)
        store.flush()

        warm = PolicyCache()
        warm.attach_store(IncrementalStore(tmp_path / "cache"))
        assert warm.row(ROBOTS) is warm.row(twin)
        assert warm.stats["persistent_hits"] == 2

    def test_detached_cache_still_computes(self):
        cache = PolicyCache()
        cache.attach_store(None)
        assert cache.row(ROBOTS).fully_disallows_any(AGENTS) is True
        assert cache.row(ROBOTS).allows_any(AGENTS) is False

    @pytest.mark.parametrize(
        "bad",
        [
            [3, True],  # a pre-row classification entry
            "1" * 24 + "7",  # wildcard level 7
            "yes",
            "x" * 25,
            None,
        ],
    )
    def test_malformed_stored_row_is_a_miss_and_is_rewritten(self, tmp_path, bad):
        root = tmp_path / "cache"
        store = IncrementalStore(root)
        store.put_row("0" * 64, _row(ALLOWS).pack())  # any valid neighbour
        store.flush()
        digest = policy_digest(ROBOTS)
        payload = json.loads((root / "bodies.json").read_text())
        payload["rows"][digest] = bad
        (root / "bodies.json").write_text(json.dumps(payload))

        cache = PolicyCache()
        reloaded = IncrementalStore(root)
        cache.attach_store(reloaded)
        assert cache.row(ROBOTS) == _row(ROBOTS)
        assert cache.stats["persistent_hits"] == 0
        assert cache.stats["misses"] == 1
        reloaded.flush()
        rows = json.loads((root / "bodies.json").read_text())["rows"]
        assert rows[digest] == _row(ROBOTS).pack()
