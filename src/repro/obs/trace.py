"""Lightweight hierarchical tracing with deterministic span ids.

Following the Web-Execution-Bundle argument that reproducible web
measurements must carry their provenance as a first-class artifact,
every heavy stage of the pipeline (world build, snapshot crawls,
experiment runs) can open a :func:`span`::

    with span(f"collect_snapshot:{spec.snapshot_id}",
              logical=spec.month_index):
        ...

A span records wall-clock timing *and* the logical clock (the simulated
month) via the ``logical`` keyword, plus arbitrary string-able
attributes.  Finished spans become plain dict records buffered in the
process-wide :class:`Tracer`, exportable as JSONL
(``results/TRACE.jsonl``).

Design constraints:

* **Deterministic ids.**  A span's id is a SHA-1 of
  ``parent_id | name | occurrence-index``, where the occurrence index
  counts prior same-named siblings.  Two identical in-line runs produce
  identical id trees (wall-clock fields differ, ids do not).
* **One span stack.**  The innermost live span is module state, which
  :meth:`Span.__enter__` pushes and :meth:`Span.__exit__` pops: the
  package runs on one thread (see :mod:`repro.net.realserver`), and a
  forked worker inherits the span its batch was opened under.
* **No-op fast path.**  Tracing is *disabled by default*; a disabled
  :func:`span` call returns a shared no-op context manager without
  touching the tracer, so instrumented hot paths cost one global bool
  check (benchmarked <1% in ``benchmarks/bench_obs_overhead.py``).
* **Worker shipping.**  :func:`repro.fanout.fan_out` marks the buffer
  position before each fork-pool unit (:meth:`Tracer.record_count`),
  ships :meth:`Tracer.records_since` back with the unit's metrics and
  log-sink deltas, and the parent :meth:`Tracer.absorb`\\ s them in
  unit order.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from ..columnar import atomic_write

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "TRACE_SCHEMA_VERSION",
    "span",
    "tracing_enabled",
    "set_tracing_enabled",
    "shared_tracer",
    "write_trace",
]

#: Schema version stamped into every exported trace record.
TRACE_SCHEMA_VERSION = 1

_ENABLED = False

#: The innermost live span: the parent of the next span opened.
_CURRENT: Optional["Span"] = None


class _TracingEnabled:
    """Dual-purpose handle returned by :func:`tracing_enabled`.

    * As a predicate it is truthy iff tracing was enabled at call time
      (``if tracing_enabled():`` / ``assert not tracing_enabled()``),
      and compares equal to plain bools.
    * As a context manager it *forces tracing on* inside the block and
      restores the prior flag on exit -- the symmetric partner of
      :func:`repro.obs.metrics.metrics_disabled`.
    """

    __slots__ = ("_snapshot", "_was")

    def __init__(self, snapshot: bool):
        self._snapshot = snapshot
        self._was = snapshot

    def __bool__(self) -> bool:
        return self._snapshot

    def __eq__(self, other: object):
        if isinstance(other, (bool, _TracingEnabled)):
            return bool(self) is bool(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._snapshot)

    def __repr__(self) -> str:
        return f"tracing_enabled()={self._snapshot}"

    def __enter__(self) -> "_TracingEnabled":
        global _ENABLED
        self._was = _ENABLED
        _ENABLED = True
        return self

    def __exit__(self, *exc_info: object) -> bool:
        set_tracing_enabled(self._was)
        return False


def tracing_enabled() -> _TracingEnabled:
    """Whether spans are currently recorded; also a force-on context.

    ``bool(tracing_enabled())`` reads the flag; ``with
    tracing_enabled(): ...`` turns tracing on for the block and
    restores the previous state afterwards.
    """
    return _TracingEnabled(_ENABLED)


def set_tracing_enabled(enabled: bool) -> None:
    """Globally enable/disable span recording."""
    global _ENABLED
    _ENABLED = bool(enabled)


def _span_id(parent_id: str, name: str, index: int) -> str:
    digest = hashlib.sha1(f"{parent_id}|{name}|{index}".encode("utf-8"))
    return digest.hexdigest()[:12]


class _NoopSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: Shared singleton -- disabled ``span()`` calls allocate nothing.
NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; use as a context manager (see :func:`span`)."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "logical",
        "start_unix",
        "duration_seconds",
        "status",
        "_tracer",
        "_child_counts",
        "_previous",
        "_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: str,
        attributes: Dict[str, object],
        logical: Optional[int],
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.logical = logical
        self.start_unix = 0.0
        self.duration_seconds = 0.0
        self.status = "ok"
        self._tracer = tracer
        self._child_counts: Dict[str, int] = {}
        self._previous: Optional[Span] = None
        self._start = 0.0

    def _next_child_index(self, name: str) -> int:
        index = self._child_counts.get(name, 0)
        self._child_counts[name] = index + 1
        return index

    def __enter__(self) -> "Span":
        global _CURRENT
        self.start_unix = time.time()
        self._start = time.perf_counter()
        self._previous, _CURRENT = _CURRENT, self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _CURRENT
        self.duration_seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        _CURRENT, self._previous = self._previous, None
        self._tracer._record(self)
        return False

    def to_record(self) -> Dict[str, object]:
        """The finished span as a plain JSON-able record."""
        record: Dict[str, object] = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "duration_seconds": round(self.duration_seconds, 6),
            "status": self.status,
        }
        if self.logical is not None:
            record["logical"] = self.logical
        if self.attributes:
            record["attributes"] = {
                key: value if isinstance(value, (int, float, bool)) else str(value)
                for key, value in self.attributes.items()
            }
        return record


class Tracer:
    """Buffers finished span records."""

    def __init__(self) -> None:
        self._records: List[Dict[str, object]] = []
        self._root_counts: Dict[str, int] = {}

    def start_span(
        self,
        name: str,
        logical: Optional[int] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Create a child of the innermost live span (or a root)."""
        parent = _CURRENT
        if parent is not None:
            parent_id = parent.span_id
            index = parent._next_child_index(name)
        else:
            parent_id = ""
            index = self._root_counts.get(name, 0)
            self._root_counts[name] = index + 1
        return Span(
            tracer=self,
            name=name,
            span_id=_span_id(parent_id, name, index),
            parent_id=parent_id,
            attributes=dict(attributes or {}),
            logical=logical,
        )

    def _record(self, finished: Span) -> None:
        self._records.append(finished.to_record())

    # -- buffer access --------------------------------------------------------

    def record_count(self) -> int:
        """Current buffer length (a mark for :meth:`records_since`)."""
        return len(self._records)

    def records_since(self, mark: int) -> List[Dict[str, object]]:
        """Records appended after *mark* (for worker shipping)."""
        return self._records[mark:]

    def absorb(self, records: List[Dict[str, object]]) -> None:
        """Append records shipped from a worker."""
        self._records.extend(records)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear every buffered record, and reset the root
        occurrence counters, so the next identical run reproduces the
        same id tree."""
        records = self._records
        self._records = []
        self._root_counts = {}
        return records


def span(
    name: str, logical: Optional[int] = None, **attributes: object
):
    """Open a span (or the shared no-op when tracing is disabled).

    Args:
        name: Span name; sibling spans sharing a name get sequential
            occurrence indices in their deterministic ids.
        logical: The logical clock -- for this pipeline, the simulated
            month index the work pertains to.
        **attributes: Arbitrary provenance attributes (stringified on
            export unless int/float/bool).
    """
    if not _ENABLED:
        return NOOP_SPAN
    return _TRACER.start_span(name, logical=logical, attributes=attributes)


def write_trace(path, records: List[Dict[str, object]]) -> None:
    """Write span *records* as JSONL to *path*."""
    atomic_write(
        path, "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    )


_TRACER = Tracer()


def shared_tracer() -> Tracer:
    """The process-wide tracer every :func:`span` records to."""
    return _TRACER
