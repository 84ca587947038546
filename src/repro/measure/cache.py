"""Content-addressed classification cache for the measurement pipelines.

The Section 3 figures classify every site's robots.txt under up to ~24
AI user agents across fifteen snapshots.  Most sites never change
between snapshots and many sites share operator-template bodies, so the
number of *distinct* (body, agent) classification problems is a small
fraction of the number of (domain, snapshot, agent) queries.

:class:`PolicyCache` memoizes the three classification primitives the
pipelines use -- :func:`~repro.core.classify.classify`,
:func:`~repro.core.classify.fully_disallows_any`, and
:func:`~repro.core.classify.explicitly_allows` -- keyed by the
content-addressed policy (one per unique body, via
:class:`~repro.core.compiled.CompiledPolicyCache`) plus the query
parameters.  Results are the uncached functions' results, computed once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.classify import (
    Classification,
    RestrictionLevel,
    classify,
    explicitly_allows,
)
from ..core.compiled import CompiledPolicyCache, policy_digest, shared_policy_cache
from ..core.policy import RobotsPolicy

if False:  # typing-only; avoids a runtime import cycle
    from .incremental import IncrementalStore

__all__ = ["PolicyCache"]


class PolicyCache:
    """Memoized robots.txt classification over unique bodies.

    All query methods accept ``None`` for "the site serves no
    robots.txt" and answer exactly like their uncached counterparts.
    """

    def __init__(self, compiled: Optional[CompiledPolicyCache] = None):
        self._compiled = compiled if compiled is not None else shared_policy_cache()
        # Keys hold the cached policy object itself (identity-hashed),
        # which both pins it alive and avoids re-hashing body text.
        self._classifications: Dict[
            Tuple[RobotsPolicy, str, bool], Classification
        ] = {}
        self._full_any: Dict[Tuple[RobotsPolicy, Tuple[str, ...], bool], bool] = {}
        self._explicit_allow: Dict[Tuple[RobotsPolicy, str], bool] = {}
        self._allow_any: Dict[Tuple[RobotsPolicy, Tuple[str, ...]], bool] = {}
        # Plain ints on the hot path; exported as gauges via publish()
        # (memo probe tallies are process-local observations).
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self._store: Optional["IncrementalStore"] = None

    def attach_store(self, store: Optional["IncrementalStore"]) -> None:
        """Back this memo with a persistent incremental store.

        On a memo miss the cache probes the store by the body's SHA-256
        content address before computing; computed verdicts are written
        back.  Persistent answers are bit-identical to computed ones
        (the store holds prior runs' computed results keyed by
        content), so attaching a store can never change outputs -- only
        skip work.  Pass ``None`` to detach.
        """
        self._store = store

    @property
    def stats(self) -> Dict[str, int]:
        """Memo-probe tallies plus current memo occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "persistent_hits": self.persistent_hits,
            "entries": (
                len(self._classifications)
                + len(self._full_any)
                + len(self._explicit_allow)
                + len(self._allow_any)
            ),
        }

    @staticmethod
    def _digest(policy: RobotsPolicy, text: Union[str, bytes]) -> str:
        """The body's content address, reusing the compile-cache stamp."""
        digest = policy.content_digest
        return digest if digest is not None else policy_digest(text)

    def publish(self, registry=None, prefix: str = "measure.policy_cache") -> None:
        """Export the memo tallies to a metrics registry as gauges.

        Gauges, not counters: shared-cache hit/miss splits depend on
        which worker warmed the memo first, so they are process-local
        observations outside the cross-mode determinism contract.
        """
        from ..obs.metrics import shared_registry

        registry = registry if registry is not None else shared_registry()
        stats = self.stats
        for name, value in stats.items():
            registry.set_gauge(f"{prefix}.{name}", value)
        probes = stats["hits"] + stats["misses"]
        registry.set_gauge(
            f"{prefix}.hit_rate", stats["hits"] / probes if probes else 0.0
        )

    def policy(self, text: Union[str, bytes]) -> RobotsPolicy:
        """The shared policy for *text* (parsed at most once)."""
        return self._compiled.policy(text)

    def classification(
        self,
        text: Optional[Union[str, bytes]],
        user_agent: str,
        require_explicit: bool = True,
    ) -> Classification:
        """Memoized :func:`~repro.core.classify.classify`."""
        if text is None:
            return classify(None, user_agent, require_explicit=require_explicit)
        policy = self.policy(text)
        key = (policy, user_agent, require_explicit)
        cached = self._classifications.get(key)
        if cached is None:
            if self._store is not None:
                cached = self._store.get_classification(
                    self._digest(policy, text), user_agent, require_explicit
                )
                if cached is not None:
                    self.persistent_hits += 1
                    self._classifications[key] = cached
                    return cached
            self.misses += 1
            cached = classify(policy, user_agent, require_explicit=require_explicit)
            self._classifications[key] = cached
            if self._store is not None:
                self._store.put_classification(
                    self._digest(policy, text), user_agent, require_explicit, cached
                )
        else:
            self.hits += 1
        return cached

    def fully_disallows_any(
        self,
        text: Optional[Union[str, bytes]],
        user_agents: Sequence[str],
        require_explicit: bool = True,
    ) -> bool:
        """Memoized :func:`~repro.core.classify.fully_disallows_any`."""
        if text is None:
            return False
        policy = self.policy(text)
        agents = tuple(user_agents)
        key = (policy, agents, require_explicit)
        cached = self._full_any.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self._store is not None:
            params = _agents_key(agents, require_explicit)
            stored = self._store.get_flag(
                "full_any", self._digest(policy, text), params
            )
            if stored is not None:
                self.persistent_hits += 1
                self._full_any[key] = stored
                return stored
        self.misses += 1
        cached = any(
            self.classification(text, agent, require_explicit).level
            is RestrictionLevel.FULL
            for agent in agents
        )
        self._full_any[key] = cached
        if self._store is not None:
            self._store.put_flag(
                "full_any",
                self._digest(policy, text),
                _agents_key(agents, require_explicit),
                cached,
            )
        return cached

    def explicitly_allows(
        self, text: Optional[Union[str, bytes]], user_agent: str
    ) -> bool:
        """Memoized :func:`~repro.core.classify.explicitly_allows`."""
        if text is None:
            return False
        policy = self.policy(text)
        key = (policy, user_agent)
        cached = self._explicit_allow.get(key)
        if cached is None:
            if self._store is not None:
                stored = self._store.get_flag(
                    "explicit_allow", self._digest(policy, text), user_agent
                )
                if stored is not None:
                    self.persistent_hits += 1
                    self._explicit_allow[key] = stored
                    return stored
            self.misses += 1
            cached = explicitly_allows(policy, user_agent)
            self._explicit_allow[key] = cached
            if self._store is not None:
                self._store.put_flag(
                    "explicit_allow", self._digest(policy, text), user_agent, cached
                )
        else:
            self.hits += 1
        return cached

    def allows_any(
        self, text: Optional[Union[str, bytes]], user_agents: Sequence[str]
    ) -> bool:
        """Whether the body explicitly allows at least one of *user_agents*.

        The Figure 4 allow sweep, memoized per distinct body (bodies
        repeat across snapshots, so the sweep runs once per body per
        process -- or once ever, with a persistent store attached).
        """
        if text is None:
            return False
        policy = self.policy(text)
        agents = tuple(user_agents)
        key = (policy, agents)
        cached = self._allow_any.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self._store is not None:
            params = _agents_key(agents)
            stored = self._store.get_flag(
                "allow_any", self._digest(policy, text), params
            )
            if stored is not None:
                self.persistent_hits += 1
                self._allow_any[key] = stored
                return stored
        self.misses += 1
        cached = any(self.explicitly_allows(text, agent) for agent in agents)
        self._allow_any[key] = cached
        if self._store is not None:
            self._store.put_flag(
                "allow_any", self._digest(policy, text), _agents_key(agents), cached
            )
        return cached


def _agents_key(agents: Tuple[str, ...], require_explicit: Optional[bool] = None) -> str:
    """A stable sub-key for an agent-set query's parameters."""
    head = ",".join(agents)
    return head if require_explicit is None else f"{head}|{int(require_explicit)}"
