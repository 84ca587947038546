"""Content-addressed verdict cache for the measurement pipelines.

The Section 3 figures classify every site's robots.txt under up to ~24
AI user agents across fifteen snapshots.  Most sites never change
between snapshots and many sites share operator-template bodies, so the
number of *distinct* bodies is a small fraction of the number of
(domain, snapshot, agent) queries.

:class:`PolicyCache` maps each distinct body's SHA-256 to its
:class:`~repro.core.classify.VerdictRow`: every per-agent, any-agent,
explicit-allow and ``require_explicit=False`` answer the pipelines ask
is read off that one row, so each body parses and classifies at most
once per cache -- or never, when an attached store already holds its
row.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..columnar import BodyFacts
from ..core.classify import NO_ROBOTS_ROW, VerdictRow
from ..core.compiled import policy_digest, shared_policy_cache
from ..core.policy import RobotsPolicy

__all__ = ["PolicyCache"]


class PolicyCache:
    """One verdict row per distinct robots body.

    Args:
        compiled: The policy source, text to compiled
            :class:`~repro.core.policy.RobotsPolicy`.  The default,
            :func:`~repro.core.compiled.shared_policy_cache`'s ``policy``,
            shares each parse with every other consumer of that body;
            passing :class:`RobotsPolicy` itself parses without keeping
            the policy, so only rows stay resident.
    """

    def __init__(
        self, compiled: Optional[Callable[[Union[str, bytes]], RobotsPolicy]] = None
    ):
        self._compiled = compiled or shared_policy_cache().policy
        self._rows: Dict[str, VerdictRow] = {}
        # Packed form -> the one row object every body with that row
        # shares: far fewer distinct rows than distinct bodies.
        self._interned: Dict[str, VerdictRow] = {}
        # Plain ints on the hot path; exported as gauges via publish()
        # (memo probe tallies are process-local observations).
        self._hits = 0
        self._misses = 0
        self._persistent_hits = 0
        self._store: Optional[BodyFacts] = None

    def attach_store(self, store: Optional[BodyFacts]) -> None:
        """Back this cache with a persistent body-facts store.

        On a memo miss the cache probes the store by the body's SHA-256
        content address before parsing; computed rows are written back.
        A stored row is a prior run's computed row for the same bytes,
        so attaching a store can never change outputs -- only skip
        work.  A stored value that does not unpack is a miss, and the
        computed row replaces it.  Pass ``None`` to detach.
        """
        self._store = store

    @property
    def stats(self) -> Dict[str, int]:
        """Row-probe tallies plus the number of rows held."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "persistent_hits": self._persistent_hits,
            "entries": len(self._rows),
        }

    def publish(self) -> None:
        """Export the row tallies as ``measure.policy_cache.*`` gauges
        of the shared registry.

        Gauges, not counters: shared-cache hit/miss splits depend on
        which worker warmed the memo first, so they are process-local
        observations outside the cross-mode determinism contract.
        """
        from ..obs.metrics import shared_registry

        registry = shared_registry()
        stats = self.stats
        for name, value in stats.items():
            registry.set_gauge(f"measure.policy_cache.{name}", value)
        probes = stats["hits"] + stats["misses"]
        registry.set_gauge(
            "measure.policy_cache.hit_rate",
            stats["hits"] / probes if probes else 0.0,
        )

    def row(
        self, text: Optional[Union[str, bytes]], digest: Optional[str] = None
    ) -> VerdictRow:
        """The verdict row for *text* (``None``: the site serves no
        robots.txt).  *digest* is the body's SHA-256 when the caller
        already has it, as an archive's ``bodies.sha`` does."""
        if text is None:
            return NO_ROBOTS_ROW
        if digest is None:
            digest = policy_digest(text)
        row = self._rows.get(digest)
        if row is not None:
            self._hits += 1
            return row
        if self._store is not None:
            packed = self._store.get_row(digest)
            row = VerdictRow.unpack(packed)
            if row is not None:
                self._persistent_hits += 1
                row = self._rows[digest] = self._interned.setdefault(packed, row)
                return row
        self._misses += 1
        row = VerdictRow.of(self._compiled(text))
        packed = row.pack()
        row = self._rows[digest] = self._interned.setdefault(packed, row)
        if self._store is not None:
            self._store.put_row(digest, packed)
        return row
