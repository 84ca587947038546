"""The content-addressed policy cache.

The measurement pipelines evaluate the *same* robots.txt bodies against
the *same* user agents thousands of times: every figure re-visits every
site in every snapshot, and most sites never change between snapshots.
:class:`CompiledPolicyCache` is keyed by the body itself: each unique
robots.txt body in a process is parsed exactly once, into one
:class:`~repro.core.policy.RobotsPolicy`, no matter how many domains,
snapshots, crawlers, or figures reference it.  :func:`policy_digest`
(the body's SHA-256) is the content address the persistent verdict
stores key on.  The policy itself
memoizes per-agent rule resolution, and each of its rules compiles its
pattern once (:attr:`~repro.core.matcher.Rule.pattern`).

A process-wide shared cache (:func:`shared_policy_cache`) serves the
analysis pipelines (:mod:`repro.measure`), the classifier's raw-text
inputs (:mod:`repro.core.classify`), the linter
(:mod:`repro.core.diagnostics`) and the crawl testbed
(:mod:`repro.crawlers.engine`), so the same policy object answers for a
given body everywhere.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Union

from .policy import RobotsPolicy

__all__ = ["CompiledPolicyCache", "shared_policy_cache"]


def policy_digest(source: Union[str, bytes]) -> str:
    """Content address of a robots.txt body: hex SHA-256 of its bytes."""
    data = source if isinstance(source, bytes) else source.encode("utf-8", "surrogateescape")
    return hashlib.sha256(data).hexdigest()


class CompiledPolicyCache:
    """Body-keyed cache of :class:`RobotsPolicy` objects.

    ``cache.policy(text)`` parses each distinct body once per cache;
    subsequent calls with equal content return the same object.  The key
    is the source itself: CPython caches ``str`` hashes and the crawl
    pipelines intern bodies, so a hit is one dict probe with no digest.
    A ``str`` and a ``bytes`` copy of one body are two keys, so they may
    parse twice, into policies that answer alike.

    Hit/miss tallies are kept as plain ints on the hot path -- they are
    scheduling-dependent for shared caches, so :meth:`publish` exports
    them to the metrics registry as **gauges** (process-local
    observations), never as deterministic counters.
    """

    def __init__(self) -> None:
        self._by_source: Dict[Union[str, bytes], RobotsPolicy] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._by_source)

    def policy(self, source: Union[str, bytes]) -> RobotsPolicy:
        """The policy for *source*, parsing it on first sight."""
        cached = self._by_source.get(source)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        policy = self._by_source[source] = RobotsPolicy(source)
        return policy

    def publish(self) -> None:
        """Export occupancy and hit/miss tallies as ``policy_cache.*``
        gauges of the shared registry."""
        from ..obs.metrics import shared_registry

        registry = shared_registry()
        registry.set_gauge("policy_cache.hits", self.hits)
        registry.set_gauge("policy_cache.misses", self.misses)
        registry.set_gauge("policy_cache.entries", len(self._by_source))

    def clear(self) -> None:
        """Drop every cached policy and reset the hit/miss counters."""
        self._by_source.clear()
        self.hits = 0
        self.misses = 0


_SHARED_CACHE = CompiledPolicyCache()


def shared_policy_cache() -> CompiledPolicyCache:
    """The process-wide policy cache shared by analysis and crawlers."""
    return _SHARED_CACHE
