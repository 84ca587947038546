"""Persistent, content-addressed incremental store for the report plane.

The reproduction pipeline is referentially transparent end to end: every
experiment is a pure function of its :class:`PopulationConfig` (via
``config_digest``) and declared parameters, and every body-level
verdict is a pure function of the robots.txt bytes (via their SHA-256
content address).  This module turns that purity into cross-process
reuse: results are memoized on disk under those digests, so a warm
``repro reproduce --incremental`` run re-derives only what actually
changed -- O(changed), not O(all).

Three layers live in one store directory (default ``.repro-cache``):

* ``meta.json`` -- a schema fingerprint and the :func:`code_digest` of
  the code that wrote the store.  Any format change to the store, the
  verdict-row layout (:data:`~repro.core.classify.VERDICT_ROW_LAYOUT`,
  agent order included), or the experiment result shape changes the
  fingerprint, and a store written by an older layout self-invalidates
  wholesale on load (stale caches can never leak stale bytes into
  results).
* ``bodies.json`` -- ``{"rows": {body sha256: packed row}}``: one
  :class:`~repro.core.classify.VerdictRow` per robots body, keyed by
  the SHA-256 of its bytes (the content address the snapshot archive's
  ``bodies.sha`` records).  The rows are adopted only when
  ``meta.json``'s code digest is this code's: other code may classify
  a body differently.
* ``experiments.json`` -- finished
  :class:`~repro.report.experiments.ExperimentResult` payloads keyed by
  experiment key, each guarded by the input digest it was computed
  under (config digest + world kind + declared parameters + the
  :func:`code_digest` of the ``repro`` package that ran it).

Chaos interaction: the store must never observe a faulted world.
:func:`repro.report.orchestrator.run_all` refuses to read *or* write
the store while a :class:`~repro.net.chaos.FaultPlan` is armed, and
delta snapshot collection independently falls back to full crawls (see
:func:`~repro.measure.longitudinal.collect_snapshots`).
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple, Union

from ..columnar import BodyFacts, atomic_write
from ..core.classify import VERDICT_ROW_LAYOUT

__all__ = [
    "IncrementalStore",
    "SCHEMA_FINGERPRINT",
    "params_digest",
    "code_digest",
    "experiment_input_key",
]

#: Bump any entry when its on-disk shape changes; the fingerprint shift
#: then invalidates every existing store automatically.
_SCHEMA = {
    "store": 1,
    "verdict_row": VERDICT_ROW_LAYOUT,
    "experiment": ["experiment_id", "title", "text", "metrics"],
}

SCHEMA_FINGERPRINT = hashlib.sha256(
    json.dumps(_SCHEMA, sort_keys=True, separators=(",", ":")).encode("utf-8")
).hexdigest()


def params_digest(payload: object) -> str:
    """Digest of a JSON-able parameter payload (sorted-key canonical)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over every ``.py`` file of the imported ``repro`` package,
    in relative-path order, each as its path, length and bytes.

    Computed once per process, the first time a store or an archive is
    consulted.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def experiment_input_key(
    spec_key: str,
    result_id: str,
    world: str,
    world_digest: str,
    params: Tuple[Tuple[str, object], ...],
) -> str:
    """The invalidation key for one experiment run.

    Covers everything that can change an experiment's output: which
    registry entry it is, which world kind it consumes, the world's
    ``config_digest`` (or ``"-"`` for world-free experiments), the
    declared parameters it runs with, and the code that runs it
    (:func:`code_digest`).  Equal key = equal result.
    """
    return params_digest(
        {
            "code": code_digest(),
            "spec": spec_key,
            "result_id": result_id,
            "world": world,
            "world_digest": world_digest,
            "params": {name: value for name, value in params},
        }
    )


def _write_json(path: Path, payload: object) -> None:
    atomic_write(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


class IncrementalStore(BodyFacts):
    """On-disk memo for body verdicts and finished experiment results.

    The body layer is a :class:`~repro.columnar.BodyFacts` table, the
    same one the snapshot archive's ``facts.json`` persists.  All
    mutation happens in memory and persists on :meth:`flush` (atomic
    per file).  A store whose on-disk schema
    fingerprint does not match :data:`SCHEMA_FINGERPRINT` loads as
    empty and is rewritten in the current format on the next flush.
    """

    def __init__(self, root: Union[str, Path]):
        super().__init__()
        self.root = Path(root)
        self._experiments: Dict[str, Dict[str, object]] = {}
        #: True when an on-disk store existed but carried a stale
        #: schema fingerprint (its contents were discarded).
        self.schema_invalidated = False
        self._load()

    # -- persistence ----------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def bodies_path(self) -> Path:
        return self.root / "bodies.json"

    @property
    def experiments_path(self) -> Path:
        return self.root / "experiments.json"

    def _load(self) -> None:
        try:
            meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if meta.get("schema_fingerprint") != SCHEMA_FINGERPRINT:
            self.schema_invalidated = True
            return
        bodies = {}
        if meta.get("code_digest") == code_digest():
            try:
                bodies = json.loads(self.bodies_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                pass
        try:
            experiments = json.loads(
                self.experiments_path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            experiments = {}
        self.load_facts(bodies)
        self._experiments = experiments

    def flush(self) -> None:
        """Persist every layer (no-op when nothing changed)."""
        if not self._dirty:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        meta = {"schema_fingerprint": SCHEMA_FINGERPRINT, "code_digest": code_digest()}
        _write_json(self.meta_path, meta)
        _write_json(self.bodies_path, self.facts_payload())
        _write_json(self.experiments_path, self._experiments)
        self._dirty = False

    # -- experiment results ----------------------------------------------------

    def lookup_experiment(self, key: str, input_key: str):
        """``(disposition, result)`` for one experiment.

        Dispositions: ``"hit"`` (stored under the same inputs; result
        attached), ``"invalidated"`` (stored, but inputs changed), or
        ``"miss"`` (never stored).
        """
        entry = self._experiments.get(key)
        if entry is None:
            return "miss", None
        if entry.get("input_key") != input_key:
            return "invalidated", None
        payload = entry["result"]
        from ..report.experiments import ExperimentResult

        return "hit", ExperimentResult(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            text=payload["text"],
            metrics=dict(payload["metrics"]),
        )

    def record_experiment(self, key: str, input_key: str, result) -> None:
        self._experiments[key] = {
            "input_key": input_key,
            "result": {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "text": result.text,
                "metrics": dict(result.metrics),
            },
        }
        self._dirty = True

    # -- introspection ---------------------------------------------------------
