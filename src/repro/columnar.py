"""The storage layer shared by the program's on-disk stores.

The snapshot archive (:mod:`repro.web.archive`) and the wide-event log
store (:mod:`repro.net.logstore`) persist the same kind of shard; each
keeps only its schema literal, its column layout and its domain
methods, and uses this module for the container:

* **One directory per shard** (:func:`shard_dir_name`) under a store
  root, self-contained so a shard can be written, validated and read
  without touching any other.  Both stores assign a site or host to a
  shard with :func:`shard_of` and size the set with
  :func:`shard_count_for`.
* **String tables.**  :class:`Interner` assigns references in
  first-use order and enforces the store's reference width; a table
  is stored one value per line (:func:`table_bytes`).
* **Content-addressed blobs.**  :class:`BlobTable` keeps each
  distinct text once and stores the blobs concatenated, a ``<QI``
  offset/length index, and a SHA-256 per blob.  :class:`BlobReader`
  maps them back and decodes each blob once per reader.
* **Little-endian fixed-width columns** (:func:`array_to_le_bytes`,
  :func:`le_bytes_to_array`), read through :class:`MappedFile`.
* **Manifest-last commit.**  :meth:`ShardFormat.commit` writes the data
  files, then a manifest pinning every data file's byte size and the
  store's schema fingerprint.  :meth:`ShardFormat.read_manifest`
  refuses a shard with no manifest, a corrupt or stale one, or a
  missing or truncated data file, as one line of the store's error.
* **Set-level commit.**  :func:`prepare_shard_set` runs before a store
  writes its first shard: it drops every shard manifest, so an
  interrupted commit never opens as a mix of old and new shards, and
  removes the shard directories the new commit will not rewrite.
  :meth:`ShardFormat.open_set` opens every shard and cross-checks ids,
  shard count and config digest.

:func:`atomic_write` is the program's one tmp-and-rename writer, for
every file a reader must never see torn.  :class:`BodyFacts` is the
per-body verdict-row table that the archive's ``facts.json`` and the
incremental store's ``bodies.json`` both persist: one packed row per
body SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import struct
import sys
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type, TypeVar, Union

__all__ = [
    "BlobReader",
    "BlobTable",
    "BodyFacts",
    "Interner",
    "MappedFile",
    "SITES_PER_SHARD",
    "ShardFormat",
    "array_to_le_bytes",
    "atomic_write",
    "le_bytes_to_array",
    "normalize_host",
    "prepare_shard_set",
    "shard_count_for",
    "shard_dir_name",
    "shard_of",
    "table_bytes",
]

_MANIFEST = "manifest.json"

#: One blob-index entry: ``u64`` offset, ``u32`` length.
_BLOB_INDEX_ENTRY = struct.Struct("<QI")

_SHARD_PREFIX = "shard-"

Reader = TypeVar("Reader")


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> None:
    """Replace *path* with *data* (text is UTF-8 encoded) via a sibling
    tmp file and a rename, so a reader sees the old file or the new one,
    never a torn one."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def shard_dir_name(shard_id: int) -> str:
    """Directory name for shard *shard_id* (``shard-0007``)."""
    return f"{_SHARD_PREFIX}{shard_id:04d}"


#: Target sites per shard when the caller does not pick a shard count:
#: small enough that one shard's records and unique bodies stay cheap,
#: large enough that per-shard overhead (worker spawn, archive files)
#: amortizes.
SITES_PER_SHARD = 512


def normalize_host(domain: str) -> str:
    """The shard-assignment key for *domain* (case- and www-insensitive).

    Stripping a leading ``"www."`` keeps variant pairs in one shard,
    which is what makes the www-fallback record lookup shard-local.
    """
    host = domain.lower()
    if host.startswith("www."):
        host = host[4:]
    return host


def shard_of(domain: str, n_shards: int) -> int:
    """The shard index for *domain* under *n_shards* shards.

    >>> shard_of("example.com", 1)
    0
    >>> shard_of("example.com", 8) == shard_of("www.example.com", 8)
    True
    """
    if n_shards <= 1:
        return 0
    digest = hashlib.sha256(normalize_host(domain).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_count_for(n_sites: int, shards: Optional[int] = None) -> int:
    """Resolve a shard count: explicit, or sized for *n_sites*.

    ``None``/``0`` picks ``ceil(n_sites / SITES_PER_SHARD)`` so
    per-shard size stays roughly constant as the population grows --
    the knob behind flat-memory streaming.
    """
    if shards is not None and shards > 0:
        return shards
    return max(1, -(-n_sites // SITES_PER_SHARD))


def array_to_le_bytes(values: array) -> bytes:
    """The array's raw bytes, little-endian regardless of platform."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def le_bytes_to_array(typecode: str, buffer: bytes) -> array:
    """An array decoded from little-endian raw bytes."""
    values = array(typecode)
    values.frombytes(buffer)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


def table_bytes(values: List[str]) -> bytes:
    """A string table's file: one value per line."""
    return ("\n".join(values) + "\n" if values else "").encode("utf-8")


def prepare_shard_set(root: Union[str, Path], n_shards: int) -> None:
    """Ready *root* for a commit of *n_shards* shards.

    Call once, before the first shard is written.  Every existing shard
    manifest goes first, so a commit interrupted at any later point
    leaves a set that refuses to open instead of one that mixes old and
    new shards.  Then the directories of shards ``n_shards`` and up,
    which the commit will not rewrite, are removed.  Files outside the
    shard directories stay.
    """
    shard_dirs = sorted(
        path for path in Path(root).glob(f"{_SHARD_PREFIX}*") if path.is_dir()
    )
    for directory in shard_dirs:
        try:
            (directory / _MANIFEST).unlink()
        except FileNotFoundError:
            pass
    for directory in shard_dirs:
        suffix = directory.name[len(_SHARD_PREFIX):]
        if suffix.isdigit() and int(suffix) >= n_shards:
            shutil.rmtree(directory)


@dataclass(frozen=True)
class ShardFormat:
    """What the shared container needs to know about one store.

    Attributes:
        noun: The store as a noun in errors (``"log store"``).
        adjective: The store before a noun in errors (``"log-store"``).
        error: The store's one-line error type.
        fingerprint: The store's schema fingerprint.
        data_files: Data files whose byte sizes the manifest pins.
        counter: The bytes-written counter a commit increments.
    """

    noun: str
    adjective: str
    error: Type[Exception]
    fingerprint: str
    data_files: Tuple[str, ...]
    counter: str

    def commit(
        self, directory: Path, blobs: Mapping[str, bytes], manifest: Mapping[str, object]
    ) -> Path:
        """Write *blobs* into *directory*, then the manifest: *manifest*
        plus the schema fingerprint and every data file's size."""
        directory.mkdir(parents=True, exist_ok=True)
        # A leftover manifest from a previous commit must not make a
        # half-overwritten shard openable: drop it before touching data.
        manifest_path = directory / _MANIFEST
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass
        for name, blob in blobs.items():
            (directory / name).write_bytes(blob)
        payload = dict(manifest)
        payload["schema_fingerprint"] = self.fingerprint
        payload["sizes"] = {name: len(blobs[name]) for name in self.data_files}
        manifest_blob = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        atomic_write(manifest_path, manifest_blob)

        # Imported here: repro.obs's artifact exporters import this module.
        from .obs.metrics import metrics_enabled, shared_registry

        if metrics_enabled():
            total = sum(len(blob) for blob in blobs.values()) + len(manifest_blob)
            shared_registry().counter(self.counter).inc(total)
        return directory

    def read_manifest(self, directory: Path) -> Tuple[Dict[str, object], int]:
        """The shard's validated manifest and its data files' total bytes."""
        path = directory / _MANIFEST
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise self.error(
                f"not a committed {self.adjective} shard (no manifest): {directory}"
            ) from None
        except (OSError, ValueError) as exc:
            raise self.error(f"corrupt {self.adjective} manifest: {path}: {exc}") from None
        if manifest.get("schema_fingerprint") != self.fingerprint:
            raise self.error(
                f"stale {self.adjective} schema (rebuild the {self.noun}): {directory}"
            )
        sizes = manifest.get("sizes", {})
        data_bytes = 0
        for name in self.data_files:
            file = directory / name
            try:
                actual = file.stat().st_size
            except OSError:
                raise self.error(f"missing {self.adjective} column: {file}") from None
            expected = sizes.get(name)
            if expected is not None and actual != expected:
                raise self.error(
                    f"truncated {self.adjective} column ({actual} bytes, manifest "
                    f"says {expected}): {file}"
                )
            data_bytes += actual
        return manifest, data_bytes

    def read_table(self, directory: Path, name: str, rows: int) -> List[str]:
        """A string table, checked against the manifest's row count."""
        values = (directory / name).read_text(encoding="utf-8").splitlines()
        if len(values) != rows:
            raise self.error(
                f"string table holds {len(values)} rows, manifest says {rows}: "
                f"{directory / name}"
            )
        return values

    def open_set(
        self, root: Path, open_shard: Callable[[Path], Reader]
    ) -> List[Reader]:
        """Open every shard under *root* and cross-check the set.

        Readers expose ``shard_id``, ``n_shards``, ``config_digest`` and
        ``directory``, and close as context managers.  Returns them in
        shard-id order; on any failure, the ones already open are closed.
        """
        shard_dirs = sorted(
            path for path in root.glob(f"{_SHARD_PREFIX}*") if path.is_dir()
        )
        if not shard_dirs:
            raise self.error(f"not a {self.noun} (no shards): {root}")
        with ExitStack() as opened:
            readers = [opened.enter_context(open_shard(path)) for path in shard_dirs]
            first = readers[0]
            ids = sorted(reader.shard_id for reader in readers)
            if ids != list(range(first.n_shards)):
                raise self.error(
                    f"incomplete {self.noun} (shards {ids}, expected "
                    f"0..{first.n_shards - 1}): {root}"
                )
            for reader in readers:
                if reader.n_shards != first.n_shards:
                    raise self.error(
                        f"inconsistent shard geometry ({reader.n_shards} vs "
                        f"{first.n_shards}): {reader.directory}"
                    )
                if reader.config_digest != first.config_digest:
                    raise self.error(
                        f"shard {reader.shard_id} was written for a different "
                        f"world (config digest mismatch): {reader.directory}"
                    )
            opened.pop_all()
        readers.sort(key=lambda reader: reader.shard_id)
        return readers


class Interner:
    """First-reference-order string table with a reference-width cap."""

    def __init__(self, form: ShardFormat, what: str, cap: int):
        self.values: List[str] = []
        self._index: Dict[str, int] = {}
        self._form = form
        self._what = what
        self._cap = cap

    def ref(self, value: str) -> int:
        ref = self._index.get(value)
        if ref is None:
            ref = len(self.values)
            if ref > self._cap:
                raise self._form.error(
                    f"too many distinct {self._what} for the "
                    f"{self._form.adjective} schema (cap {self._cap + 1})"
                )
            self._index[value] = ref
            self.values.append(value)
        return ref


class BlobTable:
    """Write side of a content-addressed blob table: each distinct text
    is kept once, as text, with its SHA-256; :meth:`files` encodes it."""

    def __init__(self) -> None:
        self._refs: Dict[str, int] = {}
        self.texts: List[str] = []
        self.digests: List[str] = []

    def ref(self, text: str) -> int:
        ref = self._refs.get(text)
        if ref is None:
            ref = self._refs[text] = len(self.texts)
            self.texts.append(text)
            self.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        return ref

    def files(self) -> Tuple[bytes, bytes, bytes]:
        """``(blobs, offset/length index, digest lines)`` file contents."""
        blobs = [text.encode("utf-8") for text in self.texts]
        index = bytearray()
        offset = 0
        for blob in blobs:
            index += _BLOB_INDEX_ENTRY.pack(offset, len(blob))
            offset += len(blob)
        return b"".join(blobs), bytes(index), table_bytes(self.digests)


class MappedFile:
    """A read-only mmap of one file; an empty or closed file reads as
    ``b""``."""

    def __init__(self, path: Path):
        self.path = path
        self._handle = open(path, "rb")
        try:
            self._map: Optional[mmap.mmap] = mmap.mmap(
                self._handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError:
            self._map = None  # zero-length file

    def read(self, start: int, length: int) -> bytes:
        return self._map[start:start + length] if self._map is not None else b""

    @property
    def mapped_bytes(self) -> int:
        return len(self._map) if self._map is not None else 0

    def close(self) -> None:
        """Release the mapping and the file (safe to call more than once)."""
        if self._map is not None:
            self._map.close()
            self._map = None
        self._handle.close()


class BlobReader:
    """Read side of a blob table: the offset index, the digest list, the
    mapped blobs, and each blob's text decoded once per reader."""

    def __init__(
        self,
        form: ShardFormat,
        directory: Path,
        files: Tuple[str, str, str],
        count: int,
        what: str,
    ):
        blobs_name, index_name, digests_name = files
        index = (directory / index_name).read_bytes()
        self._offsets: List[Tuple[int, int]] = [
            _BLOB_INDEX_ENTRY.unpack_from(index, i * _BLOB_INDEX_ENTRY.size)
            for i in range(count)
        ]
        self.digests: List[str] = (
            (directory / digests_name).read_text(encoding="ascii").splitlines()
        )
        self.texts: Dict[int, str] = {}
        self._form = form
        self._what = what
        self._file = MappedFile(directory / blobs_name)

    def text(self, ref: int) -> str:
        text = self.texts.get(ref)
        if text is None:
            offset, length = self._offsets[ref]
            try:
                text = self._file.read(offset, length).decode("utf-8")
            except UnicodeDecodeError:
                raise self._form.error(
                    f"corrupt {self._what} at ref {ref}: {self._file.path}"
                ) from None
            self.texts[ref] = text
        return text

    @property
    def mapped_bytes(self) -> int:
        return self._file.mapped_bytes

    def close(self) -> None:
        self._file.close()


# -- per-body facts ------------------------------------------------------------


class BodyFacts:
    """Per-body verdict rows keyed by the robots body's SHA-256.

    The store interface :meth:`repro.measure.cache.PolicyCache.attach_store`
    consumes: one packed :class:`~repro.core.classify.VerdictRow` string
    per body, stored and returned as written (the cache unpacks it and
    treats a malformed row as a miss).  Subclasses persist
    :meth:`facts_payload` to their own file and pass what they read
    back to :meth:`load_facts`.  Puts set ``_dirty``.
    """

    def __init__(self) -> None:
        self._dirty = False
        self._rows: Dict[str, object] = {}

    def load_facts(self, payload: object) -> None:
        """Adopt a loaded payload's rows; anything else starts empty."""
        rows = payload.get("rows") if isinstance(payload, dict) else None
        self._rows = rows if isinstance(rows, dict) else {}

    def facts_payload(self) -> Dict[str, object]:
        return {"rows": self._rows}

    def get_row(self, body_digest: str) -> object:
        """The value stored for the body as loaded, or None."""
        return self._rows.get(body_digest)

    def put_row(self, body_digest: str, packed: str) -> None:
        self._rows[body_digest] = packed
        self._dirty = True
