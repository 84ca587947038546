"""The persistent incremental store: roundtrips, schema hygiene, and
the PolicyCache persistent backing."""

import json

import pytest

from repro.core.classify import Classification, RestrictionLevel, classify
from repro.core.compiled import shared_policy_cache
from repro.measure.cache import PolicyCache
from repro.measure.incremental import (
    SCHEMA_FINGERPRINT,
    IncrementalStore,
    experiment_input_key,
    params_digest,
)
from repro.report.experiments import ExperimentResult

ROBOTS = "User-agent: GPTBot\nDisallow: /\n"
AGENTS = ("GPTBot", "CCBot", "anthropic-ai")


class TestStoreRoundtrip:
    def test_classification_roundtrip_across_processes(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        computed = classify(ROBOTS, "GPTBot", require_explicit=True)
        store.put_classification("d" * 64, "GPTBot", True, computed)
        store.flush()
        reloaded = IncrementalStore(tmp_path / "cache")
        got = reloaded.get_classification("d" * 64, "GPTBot", True)
        assert got == computed
        assert isinstance(got.level, RestrictionLevel)

    def test_flags_roundtrip(self, tmp_path):
        store = IncrementalStore(tmp_path / "cache")
        store.put_flag("full_any", "a" * 64, "GPTBot,CCBot|1", True)
        store.put_flag("allow_any", "a" * 64, "GPTBot,CCBot", False)
        store.flush()
        reloaded = IncrementalStore(tmp_path / "cache")
        assert reloaded.get_flag("full_any", "a" * 64, "GPTBot,CCBot|1") is True
        assert reloaded.get_flag("allow_any", "a" * 64, "GPTBot,CCBot") is False
        assert reloaded.get_flag("explicit_allow", "a" * 64, "GPTBot") is None

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
        store.put_flag("full_any", "a" * 64, "k", True)
        store.flush()
        meta = json.loads((root / "meta.json").read_text())
        meta["schema_fingerprint"] = "0" * 64
        (root / "meta.json").write_text(json.dumps(meta))
        reloaded = IncrementalStore(root)
        assert reloaded.schema_invalidated
        assert reloaded.get_flag("full_any", "a" * 64, "k") is None
        assert reloaded.fact_count() == 0

    def test_corrupt_files_load_as_empty(self, tmp_path):
        root = tmp_path / "cache"
        store = IncrementalStore(root)
        store.put_flag("full_any", "a" * 64, "k", True)
        store.flush()
        (root / "bodies.json").write_text("{not json")
        reloaded = IncrementalStore(root)
        assert reloaded.get_flag("full_any", "a" * 64, "k") is None

    def test_fingerprint_tracks_schema_literal(self):
        assert len(SCHEMA_FINGERPRINT) == 64
        # Digest helper is canonical: key order cannot matter.
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})


class TestPolicyCachePersistence:
    def test_warm_cache_answers_without_computing(self, tmp_path):
        root = tmp_path / "cache"
        cold = PolicyCache()
        cold.attach_store(IncrementalStore(root))
        baseline = (
            cold.classification(ROBOTS, "GPTBot"),
            cold.fully_disallows_any(ROBOTS, AGENTS),
            cold.explicitly_allows(ROBOTS, "GPTBot"),
            cold.allows_any(ROBOTS, AGENTS),
        )
        cold._store.flush()

        warm = PolicyCache()
        warm.attach_store(IncrementalStore(root))
        answers = (
            warm.classification(ROBOTS, "GPTBot"),
            warm.fully_disallows_any(ROBOTS, AGENTS),
            warm.explicitly_allows(ROBOTS, "GPTBot"),
            warm.allows_any(ROBOTS, AGENTS),
        )
        assert answers == baseline
        assert warm.persistent_hits == 4
        assert warm.misses == 0

    def test_detached_cache_still_computes(self):
        cache = PolicyCache()
        cache.attach_store(None)
        assert cache.fully_disallows_any(ROBOTS, AGENTS) is True
        assert cache.allows_any(ROBOTS, AGENTS) is False

    def test_digest_reuses_compile_cache_stamp(self):
        policy = shared_policy_cache().policy(ROBOTS)
        assert policy.content_digest is not None
        cache = PolicyCache()
        assert cache._digest(policy, ROBOTS) == policy.content_digest
