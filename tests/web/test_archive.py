"""Tests for the columnar per-shard snapshot archive.

The archive's contract: write -> reopen -> aggregate is byte-identical
to the in-memory crawl, a record is 6 bytes (status and body ref),
damage surfaces as a one-line :class:`~repro.web.archive.ArchiveError`
(never a traceback from the struct/mmap plumbing), and per-body facts
stored next to the body table are interchangeable with the incremental
store's ``bodies.json``.
"""

import json

import pytest

from repro.core.classify import VerdictRow, classify
from repro.core.compiled import policy_digest
from repro.core.policy import RobotsPolicy
from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, SiteRecord, SnapshotSpec
from repro.measure.cache import PolicyCache
from repro.web.archive import (
    ARCHIVE_SCHEMA_FINGERPRINT,
    ArchiveBodyStore,
    ArchiveError,
    ArchiveSet,
    ShardReader,
    ShardWriter,
    shard_dir_name,
)
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

from ..archive_cells import archive_cells

SPECS = (
    SnapshotSpec("2022-05", "Sep/Oct 2022", 0),
    SnapshotSpec("2023-06", "Mar/Apr 2023", 6),
)

ROBOTS_A = "User-agent: GPTBot\nDisallow: /\n"
ROBOTS_B = "User-agent: *\nAllow: /\n"


def _write_shards(root, n_shards=2):
    """Two shards x two specs with shared bodies, errors, and a 404."""
    per_shard = [
        ["a.example", "www.a.example", "b.example"],
        ["c.example", "d.example"],
    ][:n_shards]
    for shard_id, domains in enumerate(per_shard):
        writer = ShardWriter(
            domains,
            list(range(shard_id * 10, shard_id * 10 + len(domains))),
            ["top5k"] + ["other"] * (len(domains) - 1),
        )
        for spec_index, spec in enumerate(SPECS):
            records = {}
            for index, domain in enumerate(domains):
                if index == 0 and spec_index == 1:
                    records[domain] = SiteRecord(domain, 0, None, "conn reset")
                elif index == 1:
                    records[domain] = SiteRecord(domain, 404)
                else:
                    body = ROBOTS_A if shard_id == 0 else ROBOTS_B
                    records[domain] = SiteRecord(domain, 200, body)
            writer.add_snapshot(spec, records)
        writer.commit(root, shard_id, n_shards, config_digest="cfg")
    return root


@pytest.fixture()
def archive_root(tmp_path):
    return _write_shards(tmp_path / "arch")


class TestRoundTrip:
    def test_records_survive_reopen(self, archive_root):
        with ArchiveSet.open(archive_root) as archive:
            specs = archive.specs
            cells = archive_cells(archive)
        assert specs == list(SPECS)
        # A transport error reads back as status 0 with no body.
        assert cells["a.example"] == [(200, ROBOTS_A), (0, None)]
        assert cells["www.a.example"] == [(404, None), (404, None)]
        assert cells["c.example"] == [(200, ROBOTS_B), (0, None)]
        assert cells["d.example"] == [(404, None), (404, None)]

    def test_shared_bodies_stored_once(self, archive_root):
        reader = ShardReader(archive_root / shard_dir_name(0))
        refs = {
            reader.body_refs(i)[reader.domains.index("a.example")]
            for i in range(len(SPECS))
        }
        # Snapshot 0's 200 body is interned; snapshot 1 errored (ref -1).
        assert reader.n_bodies == 1
        assert refs == {0, -1}
        reader.close()

    def test_stable_domains_in_global_rank_order(self, archive_root):
        with ArchiveSet.open(archive_root) as archive:
            domains = list(archive_cells(archive))
        assert domains == [
            "a.example", "www.a.example", "b.example", "c.example", "d.example"
        ]


#: The schema fingerprint of the layout with a third record column (an
#: ``i32`` error reference, 10 bytes per record) and the manifest's
#: ``errors`` and ``error_budgets``.
TEN_BYTE_FINGERPRINT = (
    "bd024d94e0a5325dcef409d87687fd4093df9b8303f11163af4899b97a52dfae"
)


def _to_ten_byte_layout(shard):
    """Rewrite a committed shard in the layout with an error column."""
    manifest = json.loads((shard / "manifest.json").read_text())
    n = manifest["n_domains"]
    records = (shard / "records.bin").read_bytes()
    old = b"".join(
        records[spec * 6 * n:(spec + 1) * 6 * n] + b"\xff" * 4 * n
        for spec in range(len(manifest["specs"]))
    )
    (shard / "records.bin").write_bytes(old)
    manifest["sizes"]["records.bin"] = len(old)
    manifest["schema_fingerprint"] = TEN_BYTE_FINGERPRINT
    manifest["errors"] = []
    manifest["error_budgets"] = [None] * len(manifest["specs"])
    (shard / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class TestRecordLayout:
    def test_a_record_is_six_bytes(self, archive_root):
        for shard_id, n_domains in ((0, 3), (1, 2)):
            shard = archive_root / shard_dir_name(shard_id)
            size = (shard / "records.bin").stat().st_size
            assert size == 6 * len(SPECS) * n_domains
            manifest = json.loads((shard / "manifest.json").read_text())
            assert "errors" not in manifest and "error_budgets" not in manifest
        assert ARCHIVE_SCHEMA_FINGERPRINT != TEN_BYTE_FINGERPRINT

    def test_ten_byte_archive_is_stale_and_recrawled(self, tmp_path):
        config = PopulationConfig(
            universe_size=120, list_size=80, top5k_cut=10, audit_size=20, seed=3
        )
        root = tmp_path / "arch"
        WorldStore().archive(config, root, shards=2).close()
        shards = sorted(root.glob("shard-*"))
        for shard in shards:
            _to_ten_byte_layout(shard)
        with pytest.raises(ArchiveError, match="stale archive schema"):
            ArchiveSet.open(root)
        with WorldStore().archive(config, root, shards=2) as archive:
            for reader in archive.readers:
                size = (reader.directory / "records.bin").stat().st_size
                assert size == 6 * len(SNAPSHOT_SPECS) * reader.n_domains


class TestDamage:
    def test_missing_root_is_one_line(self, tmp_path):
        with pytest.raises(ArchiveError, match="not a snapshot archive"):
            ArchiveSet.open(tmp_path / "nowhere")

    def test_truncated_column_is_one_line(self, archive_root):
        records = archive_root / shard_dir_name(0) / "records.bin"
        records.write_bytes(records.read_bytes()[:-4])
        with pytest.raises(ArchiveError, match="truncated archive column"):
            ArchiveSet.open(archive_root)

    def test_corrupt_manifest_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(1) / "manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArchiveError, match="corrupt archive manifest"):
            ArchiveSet.open(archive_root)

    def test_missing_shard_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(1) / "manifest.json"
        manifest.unlink()
        with pytest.raises(ArchiveError, match="no manifest"):
            ArchiveSet.open(archive_root)

    def test_stale_schema_is_one_line(self, archive_root):
        manifest = archive_root / shard_dir_name(0) / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["schema_fingerprint"] = "0" * 64
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArchiveError, match="stale archive schema"):
            ArchiveSet.open(archive_root)

    def test_mixed_worlds_refused(self, tmp_path):
        root = tmp_path / "arch"
        _write_shards(root)
        manifest = root / shard_dir_name(1) / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config_digest"] = "other-world"
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArchiveError, match="different world"):
            ArchiveSet.open(root)

    def test_interrupted_write_never_commits(self, tmp_path):
        # No manifest -> the shard directory is not a valid archive,
        # regardless of which data blobs made it to disk.
        root = tmp_path / "arch"
        writer = ShardWriter(["a.example"], [0], ["other"])
        writer.add_snapshot(SPECS[0], {"a.example": SiteRecord("a.example", 404)})
        # The commit stopped after the data files, before the manifest.
        shard = writer.commit(root, 0, 1)
        (shard / "manifest.json").unlink()
        assert (shard / "records.bin").exists()
        with pytest.raises(ArchiveError):
            ArchiveSet.open(root)


def _row(text):
    return VerdictRow.of(RobotsPolicy(text))


class TestBodyStore:
    def test_classification_round_trip(self, tmp_path):
        store = ArchiveBodyStore(tmp_path)
        digest = "d" * 64
        assert store.get_row(digest) is None
        verdict = classify(ROBOTS_A, "GPTBot", require_explicit=True)
        store.put_row(digest, _row(ROBOTS_A).pack())
        store.flush()
        again = ArchiveBodyStore(tmp_path)
        got = VerdictRow.unpack(again.get_row(digest)).classification("GPTBot")
        assert got.level == verdict.level
        assert got.explicit == verdict.explicit
        assert got.explicit_allow == verdict.explicit_allow

    def test_flag_round_trip(self, tmp_path):
        store = ArchiveBodyStore(tmp_path)
        digest = "e" * 64
        assert store.get_row(digest) is None
        store.put_row(digest, _row(ROBOTS_A).pack())
        store.flush()
        row = VerdictRow.unpack(ArchiveBodyStore(tmp_path).get_row(digest))
        assert row.fully_disallows_any(["GPTBot"]) is True
        assert row.allows_any(["GPTBot"]) is False

    def test_satisfies_policy_cache_store_interface(self, tmp_path):
        cache = PolicyCache()
        store = ArchiveBodyStore(tmp_path)
        cache.attach_store(store)
        assert cache.row(ROBOTS_A).fully_disallows_any(["GPTBot"], require_explicit=True)
        store.flush()
        # A fresh cache over the same backend reuses the persisted row.
        fresh = PolicyCache()
        fresh.attach_store(ArchiveBodyStore(tmp_path))
        assert fresh.row(ROBOTS_A).fully_disallows_any(["GPTBot"], require_explicit=True)
        assert fresh.stats["persistent_hits"] == 1
        assert fresh.stats["misses"] == 0

    @pytest.mark.parametrize(
        "bad", [[3, True], "1" * 24 + "7", "yes", "Z" * 25, 1.5]
    )
    def test_malformed_stored_row_is_a_miss_and_is_rewritten(self, tmp_path, bad):
        digest = policy_digest(ROBOTS_A)
        (tmp_path / "facts.json").write_text(
            json.dumps(
                {
                    "rows": {digest: bad},
                    "schema_fingerprint": ARCHIVE_SCHEMA_FINGERPRINT,
                }
            )
        )
        store = ArchiveBodyStore(tmp_path)
        assert len(store.facts_payload()["rows"]) == 1
        cache = PolicyCache()
        cache.attach_store(store)
        assert cache.row(ROBOTS_A) == _row(ROBOTS_A)
        assert cache.stats["persistent_hits"] == 0
        store.flush()
        rows = json.loads((tmp_path / "facts.json").read_text())["rows"]
        assert rows == {digest: _row(ROBOTS_A).pack()}

    @pytest.mark.parametrize("payload", [[], {"rows": []}, {"rows": "x"}])
    def test_facts_that_are_not_objects_load_as_empty(self, tmp_path, payload):
        if isinstance(payload, dict):
            payload["schema_fingerprint"] = ARCHIVE_SCHEMA_FINGERPRINT
        (tmp_path / "facts.json").write_text(json.dumps(payload))
        assert len(ArchiveBodyStore(tmp_path).facts_payload()["rows"]) == 0


class TestProbes:
    def test_reader_probe_reports_residency(self, archive_root):
        reader = ShardReader(archive_root / shard_dir_name(0))
        probe = reader.probe()
        assert probe["data_bytes"] > 0
        assert probe["mapped_bytes"] > 0
        assert probe["body_cache_entries"] == 0  # nothing decoded yet
        reader.body_text(0)
        probe = reader.probe()
        assert probe["body_cache_entries"] == 1
        assert probe["body_cache_chars"] == len(ROBOTS_A)
        reader.close()
        assert reader.probe()["mapped_bytes"] == 0

    def test_drop_body_cache_drops_the_domain_index(self, archive_root):
        reader = ShardReader(archive_root / shard_dir_name(0))
        index = reader.domain_index()
        reader.body_text(0)
        reader.drop_body_cache()
        assert reader.probe()["body_cache_entries"] == 0
        rebuilt = reader.domain_index()
        assert rebuilt is not index and rebuilt == index
        reader.close()

    def test_publish_probes_gauges_per_shard(self, archive_root):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with ArchiveSet.open(archive_root) as archive:
            archive.publish_probes(registry, stratum="top-1k")
        from repro.obs.metrics import render_key

        gauges = registry.snapshot()["gauges"]
        rendered = {render_key(key): value for key, value in gauges.items()}
        assert rendered["archive.open_shards{stratum=top-1k}"] == 2
        for shard in ("0", "1"):
            key = f"archive.data_bytes{{shard={shard},stratum=top-1k}}"
            assert rendered[key] > 0
        assert any(
            key.startswith("archive.mapped_bytes{") and value > 0
            for key, value in rendered.items()
        )
