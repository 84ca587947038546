"""Columnar, shard-partitioned snapshot archive for million-site worlds.

One archive holds everything the longitudinal analysis needs about a
crawled snapshot series -- per-site status and robots body for every
snapshot spec -- in a form that is compact on disk, cheap to write from
parallel shard workers, and streamable at O(shard) memory.
The shard container (directories, string and blob tables, mmap
readers, the manifest-last commit and its validation, the shard-set
checks) is :mod:`repro.columnar`; this module owns the archive's
schema and column layout:

* **One directory per shard.**  Shard membership is the deterministic
  sha256 assignment of :func:`repro.columnar.shard_of`.
* **Columnar record storage.**  Per spec, two parallel columns over
  the shard's domains: ``u16`` HTTP status and ``i32`` body reference
  (6 bytes per record) in ``records.bin``.  A transport error is status
  0 with no body; its text is not stored, since no analysis reads it.
* **Content-addressed bodies, stored once** in ``bodies.bin``, with
  each body's SHA-256 in ``bodies.sha`` -- the content address the
  policy cache and the incremental store key verdict rows on, so an
  aggregation sweep finds a body's row without hashing it, and the
  archive doubles as the per-body facts backend
  (:class:`ArchiveBodyStore`, one packed row per body in
  ``facts.json``).

A shard that was never committed, or whose data files do not match its
manifest, fails to open with a one-line :class:`ArchiveError`.

The Section 3 aggregations (:mod:`repro.measure.longitudinal`) read the
columns shard by shard, so memory stays flat as the site count grows;
each body's verdict row lives in the open archive's :attr:`ArchiveSet.
cache`, which every sweep over it shares.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..columnar import (
    BlobReader,
    BlobTable,
    BodyFacts,
    MappedFile,
    ShardFormat,
    array_to_le_bytes,
    atomic_write,
    le_bytes_to_array,
    shard_dir_name,
    table_bytes,
)
from ..core.classify import VERDICT_ROW_LAYOUT
from ..core.policy import RobotsPolicy
from ..crawlers.commoncrawl import SiteRecord, SnapshotSpec
from ..obs.metrics import shared_registry

__all__ = [
    "ArchiveError",
    "ArchiveBodyStore",
    "ShardWriter",
    "ShardReader",
    "ArchiveSet",
    "ARCHIVE_SCHEMA_FINGERPRINT",
    "FACTS_FILE",
]

#: The per-body facts file next to an archive's shard directories.
FACTS_FILE = "facts.json"

#: Bump any entry when the on-disk shape changes; the fingerprint shift
#: invalidates every existing archive (readers refuse to open it) and
#: every facts file (the store self-invalidates) automatically.
_SCHEMA = {
    "archive": 1,
    "record": ["status:u16le", "body_ref:i32le"],
    "body_index": ["offset:u64le", "length:u32le"],
    "site": ["domain", "rank:u32le", "tier:u8"],
    # facts.json rows: the layout repro.measure.incremental's
    # bodies.json embeds too, so rows move between the two unchanged.
    "verdict_row": VERDICT_ROW_LAYOUT,
}

ARCHIVE_SCHEMA_FINGERPRINT = hashlib.sha256(
    json.dumps(_SCHEMA, sort_keys=True, separators=(",", ":")).encode("utf-8")
).hexdigest()

_DOMAINS = "domains.txt"
_RANKS = "ranks.bin"
_TIERS = "tiers.bin"
_BODIES = "bodies.bin"
_BODY_IDX = "bodies.idx"
_BODY_SHA = "bodies.sha"
_RECORDS = "records.bin"

#: u16 status + i32 body ref.
_RECORD_BYTES = 6


class ArchiveError(Exception):
    """A one-line, operator-facing archive failure (corrupt, truncated,
    missing, or schema-stale data); the message names the path."""


_FORMAT = ShardFormat(
    noun="snapshot archive",
    adjective="archive",
    error=ArchiveError,
    fingerprint=ARCHIVE_SCHEMA_FINGERPRINT,
    data_files=(_DOMAINS, _RANKS, _TIERS, _BODIES, _BODY_IDX, _BODY_SHA, _RECORDS),
    counter="archive.bytes_written",
)


def _tier_byte(tier: str) -> int:
    return 1 if tier == "top5k" else 0


# -- writing -------------------------------------------------------------------


class ShardWriter:
    """One shard's columns: the crawled corpus in memory.

    Holds the shard's sites (domain, rank, tier), then per snapshot spec
    one ``u16`` status column and one ``i32`` body-ref column over them,
    plus each distinct body once, as text, with its SHA-256.  The crawl
    fills it with :meth:`add_snapshot`, once per spec in time order; it
    serves the :class:`ShardReader` column surface, so the aggregations
    read it as a one-shard archive; :meth:`commit` writes it as an
    archive shard directory, atomic at the manifest: a shard directory
    without a (complete, size-consistent) manifest never opens.
    """

    def __init__(
        self, domains: Sequence[str], ranks: Sequence[int], tiers: Sequence[str]
    ):
        self.domains: List[str] = list(domains)
        self.n_domains = len(self.domains)
        self.ranks = array("I", ranks)
        self.tiers = bytes(_tier_byte(tier) for tier in tiers)
        self.specs: List[SnapshotSpec] = []
        self._bodies = BlobTable()
        self._statuses: List[array] = []
        self._body_refs: List[array] = []
        self._domain_index: Optional[Dict[str, int]] = None

    def add_snapshot(
        self, spec: SnapshotSpec, records: Mapping[str, SiteRecord]
    ) -> None:
        """Append one spec's columns from the rows it fetched.

        A row *records* does not cover keeps the previous spec's status
        and body ref, so a delta crawl passes only the sites it
        refetched; the first spec must cover every row.  New bodies are
        interned in row order, as a walk over full rows would intern
        them.
        """
        if self.specs:
            statuses = array("H", self._statuses[-1])
            body_refs = array("i", self._body_refs[-1])
            index = self.domain_index()
            rows: Sequence[int] = sorted(index[domain] for domain in records)
        else:
            statuses = array("H", [0]) * self.n_domains
            body_refs = array("i", [-1]) * self.n_domains
            rows = range(self.n_domains)
        for row in rows:
            record = records[self.domains[row]]
            statuses[row] = record.status
            body = record.robots_txt
            body_refs[row] = -1 if body is None else self._bodies.ref(body)
        self.specs.append(spec)
        self._statuses.append(statuses)
        self._body_refs.append(body_refs)

    def statuses(self, spec_index: int) -> array:
        """``u16`` HTTP status per domain for one spec."""
        return self._statuses[spec_index]

    def body_refs(self, spec_index: int) -> array:
        """``i32`` body reference per domain (-1 = no body)."""
        return self._body_refs[spec_index]

    def body_text(self, ref: int) -> str:
        return self._bodies.texts[ref]

    def body_digest(self, ref: int) -> str:
        return self._bodies.digests[ref]

    def domain_index(self) -> Dict[str, int]:
        """domain -> row map (built once)."""
        if self._domain_index is None:
            self._domain_index = {d: i for i, d in enumerate(self.domains)}
        return self._domain_index

    def commit(
        self,
        root: Union[str, Path],
        shard_id: int,
        n_shards: int,
        config_digest: str = "",
    ) -> Path:
        """Write every file, manifest last; returns the shard directory."""
        bodies, body_index, body_digests = self._bodies.files()
        blobs = {
            _DOMAINS: table_bytes(self.domains),
            _RANKS: array_to_le_bytes(self.ranks),
            _TIERS: self.tiers,
            _BODIES: bodies,
            _BODY_IDX: body_index,
            _BODY_SHA: body_digests,
            _RECORDS: b"".join(
                array_to_le_bytes(statuses) + array_to_le_bytes(body_refs)
                for statuses, body_refs in zip(self._statuses, self._body_refs)
            ),
        }
        manifest = {
            "config_digest": config_digest,
            "shard_id": shard_id,
            "n_shards": n_shards,
            "n_domains": self.n_domains,
            "n_bodies": len(self._bodies.texts),
            "specs": [
                [spec.snapshot_id, spec.label, spec.month_index]
                for spec in self.specs
            ],
        }
        return _FORMAT.commit(Path(root) / shard_dir_name(shard_id), blobs, manifest)


# -- reading -------------------------------------------------------------------


class ShardReader:
    """mmap-backed read access to one committed shard directory.

    Column accessors return :mod:`array` views decoded straight from
    the mapped file; body text decodes on demand and is memoized per
    reader (bounded by the shard's distinct bodies -- dropping the
    reader drops the memo, which is the streaming plane's memory
    model).
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        manifest, self.data_bytes = _FORMAT.read_manifest(self.directory)
        self.shard_id = int(manifest["shard_id"])
        self.n_shards = int(manifest["n_shards"])
        self.config_digest = manifest.get("config_digest", "")
        self.n_domains = int(manifest["n_domains"])
        self.n_bodies = int(manifest["n_bodies"])
        self.specs: List[SnapshotSpec] = [
            SnapshotSpec(snapshot_id=row[0], label=row[1], month_index=int(row[2]))
            for row in manifest["specs"]
        ]
        records_bytes = manifest.get("sizes", {}).get(_RECORDS)
        if records_bytes != len(self.specs) * self.n_domains * _RECORD_BYTES:
            raise ArchiveError(
                f"inconsistent record geometry ({records_bytes} bytes for "
                f"{len(self.specs)} specs x {self.n_domains} domains): "
                f"{self.directory / _RECORDS}"
            )

        self.domains: List[str] = _FORMAT.read_table(
            self.directory, _DOMAINS, self.n_domains
        )
        self.ranks = le_bytes_to_array("I", (self.directory / _RANKS).read_bytes())
        self.tiers = (self.directory / _TIERS).read_bytes()
        self._bodies = BlobReader(
            _FORMAT, self.directory, (_BODIES, _BODY_IDX, _BODY_SHA),
            self.n_bodies, "body table",
        )
        self.body_digests: List[str] = self._bodies.digests
        self._records = MappedFile(self.directory / _RECORDS)
        self._domain_index: Optional[Dict[str, int]] = None

    def close(self) -> None:
        """Release the mapped files (safe to call more than once)."""
        self._records.close()
        self._bodies.close()

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- columns --------------------------------------------------------------

    def statuses(self, spec_index: int) -> array:
        """``u16`` HTTP status per domain for one spec."""
        n = self.n_domains
        block = self._records.read(spec_index * n * _RECORD_BYTES, 2 * n)
        return le_bytes_to_array("H", block)

    def body_refs(self, spec_index: int) -> array:
        """``i32`` body reference per domain (-1 = no body)."""
        n = self.n_domains
        block = self._records.read(spec_index * n * _RECORD_BYTES + 2 * n, 4 * n)
        return le_bytes_to_array("i", block)

    def body_text(self, ref: int) -> str:
        """The interned robots body for *ref*, decoded once per reader."""
        return self._bodies.text(ref)

    def body_digest(self, ref: int) -> str:
        """The body's SHA-256 content address (no decode needed)."""
        return self.body_digests[ref]

    def drop_body_cache(self) -> None:
        """Release the decoded-body memo and the domain index (streaming
        callers drop them per shard so resident state never exceeds one
        shard's; the index rebuilds on the next lookup)."""
        self._bodies.texts.clear()
        self._domain_index = None

    def probe(self) -> Dict[str, int]:
        """Point-in-time resource occupancy of this reader.

        ``data_bytes`` is the shard's on-disk column footprint,
        ``mapped_bytes`` the bytes currently mmap-addressable (0 once
        closed), ``body_cache_entries``/``body_cache_chars`` the
        decoded-body memo's occupancy -- the number the streaming
        plane's O(shard) memory model rests on.
        """
        texts = self._bodies.texts
        return {
            "data_bytes": self.data_bytes,
            "mapped_bytes": self._records.mapped_bytes + self._bodies.mapped_bytes,
            "body_cache_entries": len(texts),
            "body_cache_chars": sum(len(text) for text in texts.values()),
        }

    def domain_index(self) -> Dict[str, int]:
        """domain -> row map (built lazily; used by variant fallback)."""
        if self._domain_index is None:
            self._domain_index = {d: i for i, d in enumerate(self.domains)}
        return self._domain_index


class ArchiveSet:
    """All shards of one archive root, validated for mutual consistency.

    Attributes:
        cache: The verdict rows of this archive's bodies, shared by every
            aggregation sweep over it, as :attr:`~repro.measure.
            longitudinal.SnapshotSeries.cache` is for a series.  Bodies
            parse into a policy that is dropped once their row is built,
            so only rows stay resident.  Attach a store
            (:meth:`body_store`) to persist them.
    """

    def __init__(self, root: Union[str, Path], readers: List[ShardReader]):
        # Imported here: repro.measure imports this module.
        from ..measure.cache import PolicyCache

        self.root = Path(root)
        self.readers = readers
        self.cache = PolicyCache(compiled=RobotsPolicy)

    @classmethod
    def open(cls, root: Union[str, Path]) -> "ArchiveSet":
        """Open and cross-validate every shard under *root*."""
        root = Path(root)
        archive = cls(root, _FORMAT.open_set(root, ShardReader))
        for reader in archive.readers[1:]:
            if reader.specs != archive.specs:
                archive.close()
                raise ArchiveError(
                    f"shard {reader.shard_id} covers different snapshot specs: "
                    f"{reader.directory}"
                )
        return archive

    @property
    def specs(self) -> List[SnapshotSpec]:
        return self.readers[0].specs

    @property
    def config_digest(self) -> str:
        return self.readers[0].config_digest

    def close(self) -> None:
        for reader in self.readers:
            reader.close()

    def __enter__(self) -> "ArchiveSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def body_store(self) -> "ArchiveBodyStore":
        """The archive's per-body facts backend (shared ``facts.json``)."""
        return ArchiveBodyStore(self.root)

    def publish_probes(self, registry=None, stratum: Optional[str] = None) -> None:
        """Publish per-shard archive-plane gauges into *registry*.

        One gauge family per :meth:`ShardReader.probe` field, labeled
        by shard id (and *stratum* when given):
        ``archive.data_bytes``, ``archive.mapped_bytes``,
        ``archive.body_cache_entries``, ``archive.body_cache_chars``,
        plus an ``archive.open_shards`` total, and the row tallies of
        :attr:`cache` as ``measure.policy_cache.{hits,misses,
        persistent_hits,entries}``.  Gauges are process-local
        point-in-time observations and sit outside the cross-mode
        identity contract.  ``repro stats`` renders them as the
        archive-probe table and the cache-effectiveness block.
        """
        registry = registry if registry is not None else shared_registry()
        extra = {} if stratum is None else {"stratum": stratum}
        for reader in self.readers:
            probe = reader.probe()
            shard = str(reader.shard_id)
            for field, value in probe.items():
                registry.set_gauge(f"archive.{field}", value, shard=shard, **extra)
        registry.set_gauge("archive.open_shards", len(self.readers), **extra)
        for name, value in self.cache.stats.items():
            registry.set_gauge(f"measure.policy_cache.{name}", value, **extra)


# -- per-body facts ------------------------------------------------------------


class ArchiveBodyStore(BodyFacts):
    """Per-body verdict rows stored with the archive.

    A :class:`~repro.columnar.BodyFacts` table -- the store interface
    :meth:`repro.measure.cache.PolicyCache.attach_store` consumes, the
    same one :class:`repro.measure.incremental.IncrementalStore`
    persists -- kept in ``facts.json`` next to the shard directories:
    ``{"rows": {body sha256: packed row}}`` plus the schema
    fingerprint.  The shards' ``bodies.sha`` holds the same digests.
    """

    def __init__(self, root: Union[str, Path]):
        super().__init__()
        self.root = Path(root)
        try:
            payload = json.loads(self.facts_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            isinstance(payload, dict)
            and payload.get("schema_fingerprint") == ARCHIVE_SCHEMA_FINGERPRINT
        ):
            self.load_facts(payload)  # a stale layout starts empty

    @property
    def facts_path(self) -> Path:
        return self.root / FACTS_FILE

    def flush(self) -> None:
        """Persist the facts atomically (no-op when nothing changed)."""
        if not self._dirty:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = self.facts_payload()
        payload["schema_fingerprint"] = ARCHIVE_SCHEMA_FINGERPRINT
        atomic_write(
            self.facts_path,
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        )
        self._dirty = False
