"""Continuous profiling hooks: per-phase memory and CPU profiles.

Spans (:mod:`repro.obs.trace`) say *how long* each pipeline phase
took; this module says *where the time and memory went*.  A
:class:`Profiler` wraps the same phase boundaries the span tree uses
(world build, each experiment, stratum batteries) and samples two
stdlib profilers:

* :mod:`tracemalloc` -- allocation delta, end-of-phase current size,
  window peak, and the top allocation sites, per phase;
* :mod:`cProfile` -- total CPU and the hottest functions by
  cumulative time, for the **outermost** phase (the stdlib profiler is
  process-global, so nested phases record memory only).

Profiles export as ``PROFILE.json`` into the telemetry directory next
to ``TRACE.jsonl`` (``repro reproduce --profile --telemetry-dir``) and
``repro stats`` renders them.  Like tracing, profiling is strictly
opt-in: nothing here runs unless a profiler is passed into the
orchestrator, so the batch hot path keeps its <1% obs budget.

Caveats, stated rather than hidden: cProfile observes only the process
that entered the phase, so a forked experiment battery is one phase
that reports the parent's CPU, not the workers'; tracemalloc
numbers include the profiler's own bookkeeping (small, but nonzero).
Both profilers, and :mod:`pstats`, load only when a phase is profiled.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..columnar import atomic_write

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PhaseProfile",
    "Profiler",
    "load_profile",
]

#: Schema version stamped into exported PROFILE.json payloads.
PROFILE_SCHEMA_VERSION = 1

#: Hot functions and allocation sites kept per phase.
TOP_N = 10


@dataclass(frozen=True)
class PhaseProfile:
    """One profiled phase: wall time, memory movement, hot functions."""

    name: str
    seconds: float
    attrs: Dict[str, object] = field(default_factory=dict)
    memory_current_bytes: Optional[int] = None
    memory_peak_bytes: Optional[int] = None
    memory_delta_bytes: Optional[int] = None
    top_allocations: List[Dict[str, object]] = field(default_factory=list)
    cpu_seconds: Optional[float] = None
    cpu_top: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """A JSON-able rendering."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "memory_current_bytes": self.memory_current_bytes,
            "memory_peak_bytes": self.memory_peak_bytes,
            "memory_delta_bytes": self.memory_delta_bytes,
            "top_allocations": list(self.top_allocations),
            "cpu_seconds": self.cpu_seconds,
            "cpu_top": list(self.cpu_top),
        }


class Profiler:
    """Collects :class:`PhaseProfile` records via :meth:`phase` blocks.

    >>> profiler = Profiler()
    >>> with profiler.phase("build", sites=100):
    ...     _ = [bytearray(1024) for _ in range(10)]
    >>> profiler.phases[0].name
    'build'
    """

    def __init__(self) -> None:
        self.phases: List[PhaseProfile] = []
        self._depth = 0

    @contextmanager
    def phase(self, name: str, **attrs: object) -> Iterator[None]:
        """Profile the block as one named phase.

        Nested phases record memory only (the CPU profiler is
        process-global); each phase's ``memory_peak_bytes`` is the
        traced peak *since that phase started* (entering a nested
        phase resets the shared peak counter -- window-local peaks,
        by design).
        """
        import cProfile
        import tracemalloc

        depth = self._depth
        self._depth = depth + 1

        owns_tracing = not tracemalloc.is_tracing()
        if owns_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before_current, _ = tracemalloc.get_traced_memory()
        snapshot_before = tracemalloc.take_snapshot()

        profile: Optional[cProfile.Profile] = None
        if depth == 0:
            profile = cProfile.Profile()
            try:
                profile.enable()
            except ValueError:  # another profiler owns the hook
                profile = None

        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            cpu_seconds = None
            cpu_top: List[Dict[str, object]] = []
            if profile is not None:
                profile.disable()
                cpu_seconds, cpu_top = _cpu_stats(profile)

            current, peak = tracemalloc.get_traced_memory()
            allocations = _allocation_stats(tracemalloc.take_snapshot(), snapshot_before)
            if owns_tracing:
                tracemalloc.stop()

            self._depth = depth
            record = PhaseProfile(
                name=name,
                seconds=seconds,
                attrs=dict(attrs),
                memory_current_bytes=current,
                memory_peak_bytes=peak,
                memory_delta_bytes=current - before_current,
                top_allocations=allocations,
                cpu_seconds=cpu_seconds,
                cpu_top=cpu_top,
            )
            self.phases.append(record)

    # -- export ----------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A schema-versioned, JSON-able rendering of every phase."""
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "phases": [phase.to_json() for phase in self.phases],
        }

    def export(self, directory: Union[str, Path]) -> Path:
        """Write ``PROFILE.json`` into *directory* (created if needed)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "PROFILE.json"
        atomic_write(path, json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n")
        return path

    def summary_lines(self) -> List[str]:
        """Human-oriented one-liners, for the CLI."""
        lines = []
        for phase in self.phases:
            parts = [f"{phase.name:<28} {phase.seconds:8.3f}s"]
            if phase.memory_peak_bytes is not None:
                parts.append(f"peak {phase.memory_peak_bytes / 1e6:8.2f} MB")
            if phase.memory_delta_bytes is not None:
                parts.append(f"delta {phase.memory_delta_bytes / 1e6:+8.2f} MB")
            if phase.cpu_seconds is not None:
                parts.append(f"cpu {phase.cpu_seconds:7.3f}s")
            lines.append("  ".join(parts))
        return lines


def _cpu_stats(profile):
    """Total CPU seconds and the top functions by cumulative time of
    one :class:`cProfile.Profile`."""
    import pstats

    stats = pstats.Stats(profile)
    total = sum(entry[2] for entry in stats.stats.values())  # tt per function
    ranked = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )
    top = [
        {
            "function": f"{path.rsplit('/', 1)[-1]}:{line}:{func}",
            "calls": calls,
            "cumulative_seconds": round(cumulative, 6),
            "total_seconds": round(internal, 6),
        }
        for (path, line, func), (calls, _, internal, cumulative, _) in ranked[:TOP_N]
    ]
    return round(total, 6), top


def _allocation_stats(after, before) -> List[Dict[str, object]]:
    """The top allocation sites by size growth between two snapshots."""
    diffs = after.compare_to(before, "lineno")
    return [
        {
            "site": str(stat.traceback),
            "size_delta_bytes": stat.size_diff,
            "count_delta": stat.count_diff,
        }
        for stat in diffs[:TOP_N]
        if stat.size_diff > 0
    ]


def load_profile(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a ``PROFILE.json`` payload, validating its schema.

    Raises :class:`repro.obs.analyze.TelemetryError` on a missing,
    corrupt or unsupported file, like the other artifact loaders.
    """
    from .analyze import TelemetryError, _load_json

    payload = _load_json(Path(path), "PROFILE.json", PROFILE_SCHEMA_VERSION)
    if not isinstance(payload.get("phases"), list):
        raise TelemetryError(f"corrupt PROFILE.json: {path}: missing 'phases' list")
    return payload
