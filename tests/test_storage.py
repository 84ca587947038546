"""Both on-disk stores: pinned bytes.

The snapshot archive and the log store are read back by later runs
and by other tools, so every byte they write is part of their format.
The digests below were recorded from a fixed small archive (with a
``facts.json``) and a fixed log store; any change to either layout
must change its schema fingerprint too.  The incremental store's
fingerprint is pinned with them: its ``bodies.json`` rows share the
archive's verdict-row layout.
"""

import hashlib

from repro.core.classify import VerdictRow
from repro.core.policy import RobotsPolicy
from repro.measure.incremental import SCHEMA_FINGERPRINT as INCREMENTAL_SCHEMA_FINGERPRINT
from repro.net.logstore import LOGSTORE_SCHEMA_FINGERPRINT, LogSink, log_stream
from repro.web.archive import ARCHIVE_SCHEMA_FINGERPRINT, ArchiveBodyStore

from .web.test_archive import ROBOTS_A, _write_shards


def _file_digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _pinned_archive(root):
    _write_shards(root)
    store = ArchiveBodyStore(root)
    digest = hashlib.sha256(ROBOTS_A.encode("utf-8")).hexdigest()
    store.put_row(digest, VerdictRow.of(RobotsPolicy(ROBOTS_A)).pack())
    store.flush()
    return root


def _pinned_log_store(root):
    sink = LogSink()
    with log_stream("unit:b"):
        sink.emit("b.example", "/robots.txt", "CCBot/2.0", "CCBot", "served",
                  "news", 3, 200, 17, True)
        sink.emit("b.example", "/a?q=1", "CCBot/2.0", "CCBot", "blocked_403",
                  "news", -1, 403, 42, False)
    with log_stream("unit:a"):
        for index in range(5):
            sink.emit(f"site-{index}.example", f"/p/{index}",
                      "Mozilla/5.0 (compatible; GPTBot/1.0)", "GPTBot",
                      "served", "art", index, 200, 100 + index, index == 0)
    return sink.commit(root, config_digest="cfg", n_shards=2)


ARCHIVE_DIGESTS = {
    "facts.json": "873ac8a4450df845e98d1a6fa42b4695e7e9e245066f3ee3c1b7447787a59fe9",
    "shard-0000/bodies.bin": "28193bdd982586677464a248a320aeffeb73097c7666d21b553cbb34d4a707b3",
    "shard-0000/bodies.idx": "fe64368e536d470e8393feb9c026144b2b38aca648884ad5039aa7aa1246b4a4",
    "shard-0000/bodies.sha": "55bf48b705955e7201b6529212b3c5189da6a35024d7c779b4e19bbd4266e7c0",
    "shard-0000/domains.txt": "d3fbde5ab39fef20cca5cd40fb9be1920ee9f9527902f58708b41541cc65f4fc",
    "shard-0000/manifest.json": "10f0e029a03ea38e6f3af0d5056248188ceaeacb7d5702c289f38d87ae219c5a",
    "shard-0000/ranks.bin": "ad5dc1478de06a4c2728ea528bd9361a4b945e92a414bf4d180cedaaeaa5f4cc",
    "shard-0000/records.bin": "2bf0c4a4680084b71749790c07ac2310feb710e1a5d0b46e288592993964e07e",
    "shard-0000/tiers.bin": "fb50dc0717ff266cf9baf82b1ce7a1c2ef6d9247859680b11a19fb7077f5f222",
    "shard-0001/bodies.bin": "16ceb5ee3e0dc13aa9adf31a3ebbe45a1d965b8c2b9f72eaf84e5911e140ed95",
    "shard-0001/bodies.idx": "c62ae518127bc10178301668aaa15885b6304986e840ca05ad9a0748ef6b9eae",
    "shard-0001/bodies.sha": "1d58991ad2f55225c3a439e152bee3636fa14a96e166e7a73ac8f90727bb5a80",
    "shard-0001/domains.txt": "90330d0251d85f763c71d17261590a7584ebf03c5b7efbd66ef372124cf38f26",
    "shard-0001/manifest.json": "793ad2a1e1c1bf71d4b733cedecc37b94963ccf5c0a797a295eef2958826ae06",
    "shard-0001/ranks.bin": "50ac472466c102b9f97990af92e6c7acc1e76efbfd9b10904c4e2cfd533b0ca8",
    "shard-0001/records.bin": "de60661cc24d6d99d29d3953950af268ca0bb161c51a2c1b86122715b6945b11",
    "shard-0001/tiers.bin": "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
}

LOG_STORE_DIGESTS = {
    "shard-0000/agents.txt": "c51055c96ac068561f1e688aee311fe0924e67f9143a917a2f66813feae0dd0a",
    "shard-0000/categories.txt": "e0a4e4d9746517c5c0252c10465c84c56aaa3b1094870231da81f05f63c9504e",
    "shard-0000/hosts.txt": "54d478ecbf784e010685cdce41f50b8f7e9390f346753307f42d8c5b25943571",
    "shard-0000/manifest.json": "6d164c439f352cccf7a79b33c76cf0ba199ac09bd8ca85363ec2a54158a7fd24",
    "shard-0000/outcomes.txt": "c5acc4ae7d85cda11df11e6bc0c06ab55bffbd2b3db121d0a9e3ebb98bd98cac",
    "shard-0000/paths.txt": "061cc293816639fcfc6597b5df44ede64f7ba55af8ab4632dc3115980b45a31f",
    "shard-0000/records.bin": "27e8ef684709273dbf2acf2b704040a6e8a2e1d49701aef9c40fe47f1cb1a669",
    "shard-0000/uas.bin": "9c3330f2c87cc9f384affe0ea5be851726592a9c601850236b3384baddabec1c",
    "shard-0000/uas.idx": "ae4a980bb25f14fa705867178b1d7df7b61b8f35d631a11cd5410d1cf90b9f34",
    "shard-0000/uas.sha": "5cd073ddd6b59a7ebcf7a83b012e5571c5bebb812274460d3869754e565ff1d3",
    "shard-0001/agents.txt": "54ec0a61275b98d06b1db94f3f1ced2442caa1058077d6a93e93e388e294ceda",
    "shard-0001/categories.txt": "7e799541d3ae7750d0ec17b07c651d2740b77d57842bbee7c5e62b9277c283dd",
    "shard-0001/hosts.txt": "299d710fe70d00c9e3f74d36c4f783ec8146f7dafe115f40926bd8451e13d9bd",
    "shard-0001/manifest.json": "cacda3c4658a9dcdb1ccb0371714dc737ce35bec87fb5bd9b2953cfa28339330",
    "shard-0001/outcomes.txt": "af2ad8efea715c31d9ecf057092025fae54ee97e9cd8541dcd98b65b96c3a67e",
    "shard-0001/paths.txt": "d5cf1717544cb377a9d34ea098aa9cebe3f8d862f617fab89f784a35aef5c5cd",
    "shard-0001/records.bin": "07e03f741553d966dba02a78cc8eff1af5d5a96c75cd393f282dfa564f4587ff",
    "shard-0001/uas.bin": "c3f19a1946801ccc23f616961e03cbbd980abc1a4276ed4e28a6ecbd4420fe30",
    "shard-0001/uas.idx": "9ba263608a57c6ce5a53f0b032975794f72d8b30500d9b258c8e422ac688729b",
    "shard-0001/uas.sha": "159d253d0324150abb65812e6e3cb2168433a8e3fd400004a59584c60976325a",
}


def test_schema_fingerprints_are_pinned():
    assert ARCHIVE_SCHEMA_FINGERPRINT == (
        "1a20a654de44d8b33a7242bc84d6eeeb844e510233df38d5f51682bcf434cea8"
    )
    assert INCREMENTAL_SCHEMA_FINGERPRINT == (
        "b62e0666adcdda16c98e6acf0f5fb8be3ab663441b6e2621307b97786dcdebb9"
    )
    assert LOGSTORE_SCHEMA_FINGERPRINT == (
        "4836791d988d7ce29b80e3d0b815c42bcb5a93c1fd27bd5a33f816a042a90307"
    )


def test_archive_bytes_are_pinned(tmp_path):
    assert _file_digests(_pinned_archive(tmp_path / "arch")) == ARCHIVE_DIGESTS


def test_log_store_bytes_are_pinned(tmp_path):
    assert _file_digests(_pinned_log_store(tmp_path / "logs")) == LOG_STORE_DIGESTS
