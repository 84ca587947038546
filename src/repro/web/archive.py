"""Columnar, shard-partitioned snapshot archive for million-site worlds.

One archive holds everything the longitudinal analysis needs about a
crawled snapshot series -- per-site status, robots body, and error for
every snapshot spec -- in a form that is compact on disk, cheap to
write from parallel shard workers, and streamable at O(shard) memory:

* **One directory per shard** (``shard-0000/`` ...), self-contained:
  a shard can be written, validated, and aggregated without touching
  any other shard.  Shard membership is the deterministic sha256
  assignment of :func:`repro.web.sharding.shard_of`.
* **Columnar record storage.**  Per spec, three parallel columns over
  the shard's domains: ``u16`` HTTP status, ``i32`` body reference,
  ``i32`` error reference (10 bytes per record), little-endian
  struct-packed in ``records.bin`` and mmap-ed on read.
* **Content-addressed bodies, stored once.**  Distinct robots.txt
  bodies are interned into ``bodies.bin`` with an offset/length index
  and a SHA-256 per body -- the same content address the policy cache
  and the incremental store key on, which is what lets the archive
  double as the per-body facts backend (:class:`ArchiveBodyStore`).
* **Atomic manifest-last commit.**  Data files are written first; the
  manifest (schema fingerprint, config digest, spec table, per-file
  byte sizes) lands last via tmp + ``os.replace``.  A crashed writer
  leaves no manifest and the shard simply does not open; a truncated
  data file fails the manifest's size check.  Either way the failure
  is a one-line :class:`ArchiveError`, never a traceback into struct
  internals.

Readers reconstruct bit-identical :class:`~repro.crawlers.commoncrawl.
Snapshot` objects (``ArchiveSet.snapshots()``), but the Section 3
aggregations (:mod:`repro.measure.longitudinal`) iterate the columns
shard by shard instead, so memory stays flat as the site count grows.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from array import array
from pathlib import Path
from threading import Lock
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.classify import Classification, RestrictionLevel
from ..crawlers.commoncrawl import ErrorBudget, SiteRecord, Snapshot, SnapshotSpec
from ..obs.metrics import metrics_enabled, shared_registry

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
    # Facts rows mirror repro.measure.incremental's bodies.json layout
    # exactly, so verdicts move between the two backends unchanged.
    "classification": ["level", "explicit", "explicit_allow"],
    "flags": ["full_any", "explicit_allow", "allow_any"],
}

ARCHIVE_SCHEMA_FINGERPRINT = hashlib.sha256(
    json.dumps(_SCHEMA, sort_keys=True, separators=(",", ":")).encode("utf-8")
).hexdigest()

_MANIFEST = "manifest.json"
_DOMAINS = "domains.txt"
_RANKS = "ranks.bin"
_TIERS = "tiers.bin"
_BODIES = "bodies.bin"
_BODY_IDX = "bodies.idx"
_BODY_SHA = "bodies.sha"
_RECORDS = "records.bin"

#: Data files whose byte sizes the manifest pins (truncation check).
_DATA_FILES = (_DOMAINS, _RANKS, _TIERS, _BODIES, _BODY_IDX, _BODY_SHA, _RECORDS)

_BODY_IDX_ENTRY = struct.Struct("<QI")
#: u16 status + i32 body ref + i32 error ref.
_RECORD_BYTES = 10

_FLAG_KINDS = ("full_any", "explicit_allow", "allow_any")


class ArchiveError(Exception):
    """A one-line, operator-facing archive failure (corrupt, truncated,
    missing, or schema-stale data); the message names the path."""


def shard_dir_name(shard_id: int) -> str:
    """Directory name for shard *shard_id* (``shard-0007``)."""
    return f"shard-{shard_id:04d}"


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
        self._index: Dict[str, int] = {}
        self._specs: List[SnapshotSpec] = []
        self._budgets: List[Optional[ErrorBudget]] = []
        self._body_ids: Dict[str, int] = {}
        self._body_blobs: List[bytes] = []
        self._body_digests: List[str] = []
        self._error_ids: Dict[str, int] = {}
        self._errors: List[str] = []
        self._columns: List[Tuple[array, array, array]] = []

    def set_sites(
        self, domains: Sequence[str], ranks: Sequence[int], tiers: Sequence[str]
    ) -> None:
        """Declare the shard's site rows (global rank order expected)."""
        self._domains = list(domains)
        self._ranks = [int(r) for r in ranks]
        self._tiers = [_tier_byte(t) for t in tiers]
        self._index = {domain: i for i, domain in enumerate(self._domains)}

    def _body_ref(self, text: Optional[str]) -> int:
        if text is None:
            return -1
        ref = self._body_ids.get(text)
        if ref is None:
            ref = len(self._body_blobs)
            self._body_ids[text] = ref
            blob = text.encode("utf-8")
            self._body_blobs.append(blob)
            self._body_digests.append(hashlib.sha256(blob).hexdigest())
        return ref

    def _error_ref(self, text: Optional[str]) -> int:
        if text is None:
            return -1
        ref = self._error_ids.get(text)
        if ref is None:
            ref = len(self._errors)
            self._error_ids[text] = ref
            self._errors.append(text)
        return ref

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
            body_refs.append(self._body_ref(record.robots_txt))
            error_refs.append(self._error_ref(record.error))
        self._specs.append(spec)
        self._budgets.append(error_budget)
        self._columns.append((statuses, body_refs, error_refs))

    def commit(self) -> Path:
        """Write every file, manifest last; returns the shard directory."""
        directory = self.root / shard_dir_name(self.shard_id)
        directory.mkdir(parents=True, exist_ok=True)
        # A leftover manifest from a previous commit must not make a
        # half-overwritten shard openable: drop it before touching data.
        manifest_path = directory / _MANIFEST
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass

        blobs: Dict[str, bytes] = {}
        blobs[_DOMAINS] = ("\n".join(self._domains) + "\n" if self._domains else "").encode("utf-8")
        blobs[_RANKS] = array_to_le_bytes(array("I", self._ranks))
        blobs[_TIERS] = bytes(self._tiers)
        blobs[_BODIES] = b"".join(self._body_blobs)
        index = bytearray()
        offset = 0
        for blob in self._body_blobs:
            index += _BODY_IDX_ENTRY.pack(offset, len(blob))
            offset += len(blob)
        blobs[_BODY_IDX] = bytes(index)
        blobs[_BODY_SHA] = ("\n".join(self._body_digests) + "\n" if self._body_digests else "").encode("ascii")
        records = bytearray()
        for statuses, body_refs, error_refs in self._columns:
            records += array_to_le_bytes(statuses)
            records += array_to_le_bytes(body_refs)
            records += array_to_le_bytes(error_refs)
        blobs[_RECORDS] = bytes(records)

        for name, blob in blobs.items():
            (directory / name).write_bytes(blob)

        manifest = {
            "schema_fingerprint": ARCHIVE_SCHEMA_FINGERPRINT,
            "config_digest": self.config_digest,
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "n_domains": len(self._domains),
            "n_bodies": len(self._body_blobs),
            "specs": [
                [spec.snapshot_id, spec.label, spec.month_index]
                for spec in self._specs
            ],
            "errors": self._errors,
            "error_budgets": [_budget_payload(b) for b in self._budgets],
            "sizes": {name: len(blobs[name]) for name in _DATA_FILES},
        }
        tmp = manifest_path.with_name(_MANIFEST + ".tmp")
        manifest_blob = (
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        tmp.write_bytes(manifest_blob)
        os.replace(tmp, manifest_path)

        if metrics_enabled():
            total = sum(len(blob) for blob in blobs.values()) + len(manifest_blob)
            shared_registry().counter("archive.bytes_written").inc(total)
        return directory


def array_to_le_bytes(values: array) -> bytes:
    """The array's raw bytes, little-endian regardless of platform."""
    import sys

    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def le_bytes_to_array(typecode: str, buffer: bytes) -> array:
    """An array decoded from little-endian raw bytes."""
    import sys

    values = array(typecode)
    values.frombytes(buffer)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


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
        manifest_path = self.directory / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ArchiveError(
                f"not a shard archive (no manifest): {self.directory}"
            ) from None
        except (OSError, ValueError) as exc:
            raise ArchiveError(f"corrupt shard manifest: {manifest_path}: {exc}") from None
        fingerprint = manifest.get("schema_fingerprint")
        if fingerprint != ARCHIVE_SCHEMA_FINGERPRINT:
            raise ArchiveError(
                f"stale archive schema (rebuild the archive): {self.directory}"
            )
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
        sizes = manifest.get("sizes", {})
        self.data_bytes = 0
        for name in _DATA_FILES:
            path = self.directory / name
            try:
                actual = path.stat().st_size
            except OSError:
                raise ArchiveError(f"missing archive column: {path}") from None
            expected = sizes.get(name)
            if expected is not None and actual != expected:
                raise ArchiveError(
                    f"truncated archive column ({actual} bytes, manifest says "
                    f"{expected}): {path}"
                )
            self.data_bytes += actual
        expected_records = len(self.specs) * self.n_domains * _RECORD_BYTES
        if sizes.get(_RECORDS) != expected_records:
            raise ArchiveError(
                f"inconsistent record geometry ({sizes.get(_RECORDS)} bytes for "
                f"{len(self.specs)} specs x {self.n_domains} domains): "
                f"{self.directory / _RECORDS}"
            )

        raw_domains = (self.directory / _DOMAINS).read_text(encoding="utf-8")
        self.domains: List[str] = raw_domains.splitlines()
        if len(self.domains) != self.n_domains:
            raise ArchiveError(
                f"domain column holds {len(self.domains)} rows, manifest says "
                f"{self.n_domains}: {self.directory / _DOMAINS}"
            )
        self.ranks = le_bytes_to_array("I", (self.directory / _RANKS).read_bytes())
        self.tiers = (self.directory / _TIERS).read_bytes()
        idx_blob = (self.directory / _BODY_IDX).read_bytes()
        self._body_offsets: List[Tuple[int, int]] = [
            _BODY_IDX_ENTRY.unpack_from(idx_blob, i * _BODY_IDX_ENTRY.size)
            for i in range(self.n_bodies)
        ]
        sha_text = (self.directory / _BODY_SHA).read_text(encoding="ascii")
        self.body_digests: List[str] = sha_text.splitlines()

        self._records_file = open(self.directory / _RECORDS, "rb")
        self._bodies_file = open(self.directory / _BODIES, "rb")
        self._records_map = self._mmap(self._records_file)
        self._bodies_map = self._mmap(self._bodies_file)
        self._body_texts: Dict[int, str] = {}
        self._domain_index: Optional[Dict[str, int]] = None

    @staticmethod
    def _mmap(handle) -> Optional[mmap.mmap]:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            return None  # zero-length file; accessors slice b"" instead

    def close(self) -> None:
        """Release the mapped files (safe to call more than once)."""
        for attr in ("_records_map", "_bodies_map"):
            mapped = getattr(self, attr, None)
            if mapped is not None:
                mapped.close()
                setattr(self, attr, None)
        for attr in ("_records_file", "_bodies_file"):
            handle = getattr(self, attr, None)
            if handle is not None:
                handle.close()
                setattr(self, attr, None)

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
        start = base + offsets[column]
        blob = self._records_map if self._records_map is not None else b""
        return bytes(blob[start:start + widths[column]])

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
        text = self._body_texts.get(ref)
        if text is None:
            offset, length = self._body_offsets[ref]
            blob = self._bodies_map if self._bodies_map is not None else b""
            text = bytes(blob[offset:offset + length]).decode("utf-8")
            self._body_texts[ref] = text
        return text

    def body_digest(self, ref: int) -> str:
        """The body's SHA-256 content address (no decode needed)."""
        return self.body_digests[ref]

    def drop_body_cache(self) -> None:
        """Release the decoded-body memo (streaming callers drop it per
        shard so resident text never exceeds one shard's bodies)."""
        self._body_texts.clear()

    def probe(self) -> Dict[str, int]:
        """Point-in-time resource occupancy of this reader.

        ``data_bytes`` is the shard's on-disk column footprint,
        ``mapped_bytes`` the bytes currently mmap-addressable (0 once
        closed), ``body_cache_entries``/``body_cache_chars`` the
        decoded-body memo's occupancy -- the number the streaming
        plane's O(shard) memory model rests on.
        """
        mapped = sum(
            len(mapping)
            for mapping in (self._records_map, self._bodies_map)
            if mapping is not None
        )
        return {
            "data_bytes": self.data_bytes,
            "mapped_bytes": mapped,
            "body_cache_entries": len(self._body_texts),
            "body_cache_chars": sum(
                len(text) for text in self._body_texts.values()
            ),
        }

    def error_text(self, ref: int) -> str:
        return self.errors[ref]

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

    def records_for(self, spec_index: int) -> Iterator[SiteRecord]:
        """All records for one spec, in stored (rank) order."""
        statuses = self.statuses(spec_index)
        body_refs = self.body_refs(spec_index)
        error_refs = self.error_refs(spec_index)
        for i, domain in enumerate(self.domains):
            body_ref = body_refs[i]
            error_ref = error_refs[i]
            yield SiteRecord(
                domain=domain,
                status=statuses[i],
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
        directories = sorted(root.glob("shard-*"))
        if not directories:
            raise ArchiveError(f"no shard archives under: {root}")
        readers = [ShardReader(directory) for directory in directories]
        first = readers[0]
        expected_ids = set(range(first.n_shards))
        seen_ids = {reader.shard_id for reader in readers}
        if seen_ids != expected_ids:
            missing = sorted(expected_ids - seen_ids)
            raise ArchiveError(
                f"incomplete archive ({len(readers)} of {first.n_shards} "
                f"shards, missing {missing}): {root}"
            )
        spec_table = [(s.snapshot_id, s.label, s.month_index) for s in first.specs]
        for reader in readers[1:]:
            if reader.config_digest != first.config_digest:
                raise ArchiveError(
                    f"shard {reader.shard_id} was written for a different "
                    f"world (config digest mismatch): {reader.directory}"
                )
            table = [(s.snapshot_id, s.label, s.month_index) for s in reader.specs]
            if table != spec_table:
                raise ArchiveError(
                    f"shard {reader.shard_id} covers different snapshot specs: "
                    f"{reader.directory}"
                )
        readers.sort(key=lambda r: r.shard_id)
        return cls(root, readers)

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


class ArchiveBodyStore:
    """Per-body classification/flag memos stored with the archive.

    Satisfies the exact store interface
    :meth:`repro.measure.cache.PolicyCache.attach_store` consumes
    (``get_classification`` / ``put_classification`` / ``get_flag`` /
    ``put_flag``), with rows byte-compatible with
    :class:`repro.measure.incremental.IncrementalStore`'s
    ``bodies.json`` -- one fact per robots body content address,
    whichever backend computed it first.  Keeping the facts next to the
    body table means the archive and ``.repro-cache/`` never store a
    verdict twice: :meth:`ingest_incremental` folds an existing
    incremental store's body layer in, and the incremental store can
    keep serving experiment-level results while the archive serves the
    body level.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._lock = Lock()
        self._classifications: Dict[str, Dict[str, list]] = {}
        self._flags: Dict[str, Dict[str, Dict[str, bool]]] = {
            kind: {} for kind in _FLAG_KINDS
        }
        self._dirty = False
        self._load()

    @property
    def facts_path(self) -> Path:
        return self.root / "facts.json"

    def _load(self) -> None:
        try:
            payload = json.loads(self.facts_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if payload.get("schema_fingerprint") != ARCHIVE_SCHEMA_FINGERPRINT:
            return  # stale layout: start empty, rewrite on flush
        self._classifications = payload.get("classify", {})
        for kind in _FLAG_KINDS:
            self._flags[kind] = payload.get(kind, {})

    def flush(self) -> None:
        """Persist the facts atomically (no-op when nothing changed)."""
        with self._lock:
            if not self._dirty:
                return
            self.root.mkdir(parents=True, exist_ok=True)
            payload: Dict[str, object] = {
                "schema_fingerprint": ARCHIVE_SCHEMA_FINGERPRINT,
                "classify": self._classifications,
            }
            for kind in _FLAG_KINDS:
                payload[kind] = self._flags[kind]
            tmp = self.facts_path.with_name(self.facts_path.name + ".tmp")
            tmp.write_text(
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, self.facts_path)
            self._dirty = False

    # -- the PolicyCache store interface --------------------------------------

    def get_classification(
        self, body_digest: str, user_agent: str, require_explicit: bool
    ) -> Optional[Classification]:
        entry = self._classifications.get(body_digest)
        if entry is None:
            return None
        row = entry.get(f"{user_agent}|{int(require_explicit)}")
        if row is None:
            return None
        level, explicit, explicit_allow = row
        return Classification(
            level=RestrictionLevel(level),
            explicit=bool(explicit),
            explicit_allow=bool(explicit_allow),
        )

    def put_classification(
        self,
        body_digest: str,
        user_agent: str,
        require_explicit: bool,
        result: Classification,
    ) -> None:
        with self._lock:
            entry = self._classifications.setdefault(body_digest, {})
            entry[f"{user_agent}|{int(require_explicit)}"] = [
                int(result.level),
                bool(result.explicit),
                bool(result.explicit_allow),
            ]
            self._dirty = True

    def get_flag(self, kind: str, body_digest: str, key: str) -> Optional[bool]:
        entry = self._flags[kind].get(body_digest)
        return None if entry is None else entry.get(key)

    def put_flag(self, kind: str, body_digest: str, key: str, value: bool) -> None:
        with self._lock:
            self._flags[kind].setdefault(body_digest, {})[key] = bool(value)
            self._dirty = True

    # -- dedup against the incremental store -----------------------------------

    def ingest_incremental(self, store_root: Union[str, Path]) -> int:
        """Fold an :class:`IncrementalStore`'s body facts into this store.

        Reads ``meta.json``/``bodies.json`` under *store_root* (the
        ``.repro-cache/`` layout); rows whose schema fingerprint is
        current migrate as-is, since both backends share the row
        encoding.  Returns the number of facts adopted.  Facts already
        present locally are kept (both backends computed them from the
        same content address, so they are equal by construction).
        """
        # Imported at call time: repro.measure imports this module's
        # package transitively, so a module-level import would cycle.
        from ..measure.incremental import SCHEMA_FINGERPRINT as INCREMENTAL_FINGERPRINT

        store_root = Path(store_root)
        try:
            meta = json.loads((store_root / "meta.json").read_text(encoding="utf-8"))
            bodies = json.loads((store_root / "bodies.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        if meta.get("schema_fingerprint") != INCREMENTAL_FINGERPRINT:
            return 0
        adopted = 0
        with self._lock:
            for digest, rows in bodies.get("classify", {}).items():
                entry = self._classifications.setdefault(digest, {})
                for key, row in rows.items():
                    if key not in entry:
                        entry[key] = list(row)
                        adopted += 1
            for kind in _FLAG_KINDS:
                for digest, rows in bodies.get(kind, {}).items():
                    entry = self._flags[kind].setdefault(digest, {})
                    for key, value in rows.items():
                        if key not in entry:
                            entry[key] = bool(value)
                            adopted += 1
            if adopted:
                self._dirty = True
        return adopted

    def fact_count(self) -> int:
        """Distinct stored facts across every family."""
        return sum(len(rows) for rows in self._classifications.values()) + sum(
            len(rows)
            for kind in _FLAG_KINDS
            for rows in self._flags[kind].values()
        )
