"""Columnar, shard-partitioned snapshot archive for million-site worlds.

One archive holds everything the longitudinal analysis needs about a
crawled snapshot series -- per-site status, robots body, and error for
every snapshot spec -- in a form that is compact on disk, cheap to
write from parallel shard workers, and streamable at O(shard) memory.
The shard container (directories, string and blob tables, mmap
readers, the manifest-last commit and its validation, the shard-set
checks) is :mod:`repro.columnar`; this module owns the archive's
schema and column layout:

* **One directory per shard.**  Shard membership is the deterministic
  sha256 assignment of :func:`repro.columnar.shard_of`.
* **Columnar record storage.**  Per spec, three parallel columns over
  the shard's domains: ``u16`` HTTP status, ``i32`` body reference,
  ``i32`` error reference (10 bytes per record) in ``records.bin``.
* **Content-addressed bodies, stored once** in ``bodies.bin``, with
  each body's SHA-256 in ``bodies.sha`` -- the content address the
  policy cache and the incremental store key verdict rows on, so an
  aggregation sweep finds a body's row without hashing it, and the
  archive doubles as the per-body facts backend
  (:class:`ArchiveBodyStore`, one packed row per body in
  ``facts.json``).

A shard that was never committed, or whose data files do not match its
manifest, fails to open with a one-line :class:`ArchiveError`.

Readers reconstruct bit-identical :class:`~repro.crawlers.commoncrawl.
Snapshot` objects (``ArchiveSet.snapshots()``), but the Section 3
aggregations (:mod:`repro.measure.longitudinal`) iterate the columns
shard by shard instead, so memory stays flat as the site count grows.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..columnar import (
    BlobReader,
    BlobTable,
    BodyFacts,
    Interner,
    MappedFile,
    ShardFormat,
    array_to_le_bytes,
    atomic_write,
    le_bytes_to_array,
    shard_dir_name,
    table_bytes,
)
from ..core.classify import VERDICT_ROW_LAYOUT
from ..crawlers.commoncrawl import ErrorBudget, SiteRecord, Snapshot, SnapshotSpec
from ..obs.metrics import shared_registry

__all__ = [
    "ArchiveError",
    "ArchiveBodyStore",
    "ShardWriter",
    "ShardReader",
    "ArchiveSet",
    "ARCHIVE_SCHEMA_FINGERPRINT",
]

#: Bump any entry when the on-disk shape changes; the fingerprint shift
#: invalidates every existing archive (readers refuse to open it) and
#: every facts file (the store self-invalidates) automatically.
_SCHEMA = {
    "archive": 1,
    "record": ["status:u16le", "body_ref:i32le", "error_ref:i32le"],
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

#: u16 status + i32 body ref + i32 error ref.
_RECORD_BYTES = 10


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


def _budget_payload(budget: Optional[ErrorBudget]) -> Optional[Dict[str, object]]:
    if budget is None:
        return None
    return {
        "n_sites": budget.n_sites,
        "n_errored_first_pass": budget.n_errored_first_pass,
        "n_healed": budget.n_healed,
        "n_errored_final": budget.n_errored_final,
        "retry_passes": budget.retry_passes,
        "errors_by_kind": dict(budget.errors_by_kind),
    }


def _budget_from_payload(payload: Optional[Mapping]) -> Optional[ErrorBudget]:
    if payload is None:
        return None
    return ErrorBudget(
        n_sites=int(payload["n_sites"]),
        n_errored_first_pass=int(payload["n_errored_first_pass"]),
        n_healed=int(payload["n_healed"]),
        n_errored_final=int(payload["n_errored_final"]),
        retry_passes=int(payload["retry_passes"]),
        errors_by_kind=dict(payload["errors_by_kind"]),
    )


def merge_error_budgets(budgets: Sequence[Optional[ErrorBudget]]) -> Optional[ErrorBudget]:
    """One snapshot-level budget from per-shard crawl budgets.

    Counts sum across shards; ``retry_passes`` takes the max (a
    whole-population crawl keeps passing while *any* site is still
    errored, which is exactly the worst shard's pass count).
    """
    present = [b for b in budgets if b is not None]
    if not present:
        return None
    by_kind: Dict[str, int] = {}
    for budget in present:
        for kind, count in budget.errors_by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + count
    return ErrorBudget(
        n_sites=sum(b.n_sites for b in present),
        n_errored_first_pass=sum(b.n_errored_first_pass for b in present),
        n_healed=sum(b.n_healed for b in present),
        n_errored_final=sum(b.n_errored_final for b in present),
        retry_passes=max(b.retry_passes for b in present),
        errors_by_kind=by_kind,
    )


# -- writing -------------------------------------------------------------------


class ShardWriter:
    """Accumulates one shard's sites and per-spec records, then commits.

    Usage: :meth:`set_sites` once, :meth:`add_snapshot` once per spec
    in time order, :meth:`commit` once.  The commit is atomic at the
    manifest: a shard directory without a (complete, size-consistent)
    manifest never opens.
    """

    def __init__(
        self,
        root: Union[str, Path],
        shard_id: int,
        n_shards: int,
        config_digest: str = "",
    ):
        self.root = Path(root)
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.config_digest = config_digest
        self._domains: List[str] = []
        self._ranks: List[int] = []
        self._tiers: List[int] = []
        self._specs: List[SnapshotSpec] = []
        self._budgets: List[Optional[ErrorBudget]] = []
        self._bodies = BlobTable()
        self._errors = Interner(_FORMAT, "errors", 0x7FFFFFFF)
        self._columns: List[Tuple[array, array, array]] = []

    def set_sites(
        self, domains: Sequence[str], ranks: Sequence[int], tiers: Sequence[str]
    ) -> None:
        """Declare the shard's site rows (global rank order expected)."""
        self._domains = list(domains)
        self._ranks = [int(r) for r in ranks]
        self._tiers = [_tier_byte(t) for t in tiers]

    def add_snapshot(
        self,
        spec: SnapshotSpec,
        records: Mapping[str, SiteRecord],
        error_budget: Optional[ErrorBudget] = None,
    ) -> None:
        """Append one spec's records (a full row per declared domain)."""
        statuses = array("H")
        body_refs = array("i")
        error_refs = array("i")
        for domain in self._domains:
            record = records[domain]
            statuses.append(record.status)
            body = record.robots_txt
            error = record.error
            body_refs.append(-1 if body is None else self._bodies.ref(body))
            error_refs.append(-1 if error is None else self._errors.ref(error))
        self._specs.append(spec)
        self._budgets.append(error_budget)
        self._columns.append((statuses, body_refs, error_refs))

    def commit(self) -> Path:
        """Write every file, manifest last; returns the shard directory."""
        records = bytearray()
        for statuses, body_refs, error_refs in self._columns:
            records += array_to_le_bytes(statuses)
            records += array_to_le_bytes(body_refs)
            records += array_to_le_bytes(error_refs)
        bodies, body_index, body_digests = self._bodies.files()
        blobs = {
            _DOMAINS: table_bytes(self._domains),
            _RANKS: array_to_le_bytes(array("I", self._ranks)),
            _TIERS: bytes(self._tiers),
            _BODIES: bodies,
            _BODY_IDX: body_index,
            _BODY_SHA: body_digests,
            _RECORDS: bytes(records),
        }
        manifest = {
            "config_digest": self.config_digest,
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "n_domains": len(self._domains),
            "n_bodies": len(self._bodies.blobs),
            "specs": [
                [spec.snapshot_id, spec.label, spec.month_index]
                for spec in self._specs
            ],
            "errors": self._errors.values,
            "error_budgets": [_budget_payload(b) for b in self._budgets],
        }
        return _FORMAT.commit(
            self.root / shard_dir_name(self.shard_id), blobs, manifest
        )


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
        self.errors: List[str] = list(manifest.get("errors", []))
        self._budgets = [
            _budget_from_payload(payload)
            for payload in manifest.get("error_budgets", [])
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

    def _record_block(self, spec_index: int, column: int) -> bytes:
        n = self.n_domains
        base = spec_index * n * _RECORD_BYTES
        offsets = (0, 2 * n, 6 * n)
        widths = (2 * n, 4 * n, 4 * n)
        return self._records.read(base + offsets[column], widths[column])

    def statuses(self, spec_index: int) -> array:
        """``u16`` HTTP status per domain for one spec."""
        return le_bytes_to_array("H", self._record_block(spec_index, 0))

    def body_refs(self, spec_index: int) -> array:
        """``i32`` body reference per domain (-1 = no body)."""
        return le_bytes_to_array("i", self._record_block(spec_index, 1))

    def error_refs(self, spec_index: int) -> array:
        """``i32`` error reference per domain (-1 = no error)."""
        return le_bytes_to_array("i", self._record_block(spec_index, 2))

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

    def error_budget(self, spec_index: int) -> Optional[ErrorBudget]:
        if spec_index < len(self._budgets):
            return self._budgets[spec_index]
        return None

    # -- record reconstruction -------------------------------------------------

    def record(self, spec_index: int, domain_index: int) -> SiteRecord:
        """One :class:`SiteRecord`, bit-identical to the crawled one."""
        status = self.statuses(spec_index)[domain_index]
        body_ref = self.body_refs(spec_index)[domain_index]
        error_ref = self.error_refs(spec_index)[domain_index]
        return SiteRecord(
            domain=self.domains[domain_index],
            status=status,
            robots_txt=self.body_text(body_ref) if body_ref >= 0 else None,
            error=self.errors[error_ref] if error_ref >= 0 else None,
        )


class ArchiveSet:
    """All shards of one archive root, validated for mutual consistency."""

    def __init__(self, root: Union[str, Path], readers: List[ShardReader]):
        self.root = Path(root)
        self.readers = readers

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

    @property
    def n_domains(self) -> int:
        return sum(reader.n_domains for reader in self.readers)

    def close(self) -> None:
        for reader in self.readers:
            reader.close()

    def __enter__(self) -> "ArchiveSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _canonical_order(self) -> List[Tuple[int, int, int]]:
        """``(rank, shard_index, domain_index)`` rows in global rank order.

        Ranks are the population's stable-list positions, so this merge
        reproduces the canonical domain order any unsharded consumer
        iterates in.
        """
        order: List[Tuple[int, int, int]] = []
        for shard_index, reader in enumerate(self.readers):
            ranks = reader.ranks
            order.extend(
                (ranks[i], shard_index, i) for i in range(reader.n_domains)
            )
        order.sort()
        return order

    def stable_domains(self) -> List[str]:
        """Every archived domain, in global rank order."""
        return [
            self.readers[shard].domains[row]
            for _, shard, row in self._canonical_order()
        ]

    def snapshots(self) -> List[Snapshot]:
        """Reconstructed full snapshots, bit-identical to the crawl.

        Materializes every record (O(sites) memory) -- the
        compatibility path for consumers that want
        :class:`SnapshotSeries` semantics.  The aggregations iterate
        shards instead.
        """
        order = self._canonical_order()
        snapshots: List[Snapshot] = []
        for spec_index, spec in enumerate(self.specs):
            records: Dict[str, SiteRecord] = {}
            for _, shard, row in order:
                record = self.readers[shard].record(spec_index, row)
                records[record.domain] = record
            snapshots.append(
                Snapshot(
                    spec=spec,
                    records=records,
                    error_budget=merge_error_budgets(
                        [r.error_budget(spec_index) for r in self.readers]
                    ),
                )
            )
        return snapshots

    def body_store(self) -> "ArchiveBodyStore":
        """The archive's per-body facts backend (shared ``facts.json``)."""
        return ArchiveBodyStore(self.root)

    def publish_probes(self, registry=None, stratum: Optional[str] = None) -> None:
        """Publish per-shard archive-plane gauges into *registry*.

        One gauge family per :meth:`ShardReader.probe` field, labeled
        by shard id (and *stratum* when given):
        ``archive.data_bytes``, ``archive.mapped_bytes``,
        ``archive.body_cache_entries``, ``archive.body_cache_chars``,
        plus an ``archive.open_shards`` total.  Gauges are
        process-local point-in-time observations -- like the cache
        stats -- and sit outside the cross-mode identity contract.
        ``repro stats`` renders them as the archive-probe table.
        """
        registry = registry if registry is not None else shared_registry()
        extra = {} if stratum is None else {"stratum": stratum}
        for reader in self.readers:
            probe = reader.probe()
            shard = str(reader.shard_id)
            for field, value in probe.items():
                registry.set_gauge(f"archive.{field}", value, shard=shard, **extra)
        registry.set_gauge("archive.open_shards", len(self.readers), **extra)


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
        return self.root / "facts.json"

    def flush(self) -> None:
        """Persist the facts atomically (no-op when nothing changed)."""
        with self._lock:
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
