"""Content-addressed world store: one build, many experiments.

The paper's artifact is a battery of ~16 independent measurements all
run against the *same* simulated 2022-2024 web.  Building that world --
monthly rankings, operator-model robots.txt schedules, audit attributes,
fifteen crawled snapshots -- dominates wall-clock when every runner
rebuilds it from scratch.  Following Common Crawl's practice of building
one shared corpus that many analyses consume, this module turns the
world into a cached, immutable substrate:

* :func:`config_digest` derives a stable SHA-256 digest of a
  :class:`~repro.web.population.PopulationConfig` (seed and nested
  evolution parameters included) by canonicalizing the dataclass tree.
* :class:`WorldStore` memoizes :func:`build_web_population` and
  snapshot-series collection on that digest.  Every runner reads the
  one stored world, never a copy.
* :func:`freeze_population` makes a stored world reject every write: a
  site field rebind, an edit of its blocking or Cloudflare settings,
  an edit of its robots.txt schedule or missing months, and an item
  write into the population's sequences and mappings all raise.  So
  no consumer can observe another consumer's writes.

Determinism: a world is a pure function of its config (every sampler is
seeded), so serving one build to many consumers is observationally
identical to rebuilding per consumer -- enforced bit-for-bit by
``tests/web/test_worldstore.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from types import MappingProxyType
from typing import Dict, Optional, TYPE_CHECKING

from ..net import chaos
from ..obs.metrics import shared_registry
from .population import PopulationConfig, WebPopulation, build_web_population

if TYPE_CHECKING:  # pragma: no cover
    from ..measure.longitudinal import SnapshotSeries

__all__ = [
    "config_digest",
    "freeze_population",
    "WorldStore",
    "shared_world_store",
]


def _canonicalize(value: object) -> object:
    """A JSON-stable representation of a config value tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload: Dict[str, object] = {"__type__": type(value).__qualname__}
        for spec in dataclasses.fields(value):
            payload[spec.name] = _canonicalize(getattr(value, spec.name))
        return payload
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; JSON float emission may not.
        return {"__float__": repr(value)}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canonicalize(v)) for v in value)}
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (json.dumps(_canonicalize(k)), _canonicalize(v))
                for k, v in value.items()
            )
        }
    return {"__repr__": repr(value)}


def config_digest(config: Optional[PopulationConfig] = None) -> str:
    """A stable content digest of *config* (None = the default config).

    Two configs digest equal iff every field -- including the seed and
    the nested :class:`~repro.web.evolution.EvolutionParams` -- is
    equal, so the digest is a sound cache key for built worlds.
    """
    return _digest(config or PopulationConfig())


def _digest(value: object) -> str:
    """SHA-256 of *value*'s canonical JSON form."""
    blob = json.dumps(_canonicalize(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _archive_digest(config: Optional[PopulationConfig]) -> str:
    """The key an archive of *config* is stored and reopened under.

    A SHA-256 over :func:`config_digest` and the package's source
    digest (:func:`repro.measure.incremental.code_digest`), so an
    archive crawled by other code is recrawled, never read as current.
    An archive crawled under an armed fault plan holds faulted records,
    so its key also covers the armed ``(plan, seed)``
    (:func:`repro.net.chaos.active_plan`).
    """
    from ..measure import incremental

    key = [config_digest(config), incremental.code_digest()]
    armed = chaos.active_plan()
    if armed is not None:
        key.append(armed)
    return _digest(key)


def freeze_population(population: WebPopulation) -> WebPopulation:
    """*population* with every site frozen and every container read-only.

    Each site rejects field writes (see :meth:`SimSite.freeze`); the
    returned population holds tuples for its lists and read-only
    mappings for its dicts, and is itself a frozen dataclass.  Site
    identity is kept: ``stable``, ``stable_top5k``, ``audit_sites`` and
    ``by_domain`` still share their site objects.
    """
    for site in population.by_domain.values():
        site.freeze()
    return dataclasses.replace(
        population,
        rankings=MappingProxyType(
            {month: tuple(domains) for month, domains in population.rankings.items()}
        ),
        stable=tuple(population.stable),
        stable_top5k=tuple(population.stable_top5k),
        audit_sites=tuple(population.audit_sites),
        by_domain=MappingProxyType(dict(population.by_domain)),
        deal_domains=MappingProxyType(
            {name: tuple(domains) for name, domains in population.deal_domains.items()}
        ),
        explicit_allow_domains=tuple(population.explicit_allow_domains),
    )


class WorldStore:
    """Memoized, frozen worlds keyed by config digest.

    >>> store = WorldStore()
    >>> a = store.population()
    >>> b = store.population()
    >>> a is b
    True
    """

    #: Deterministic per-process store ids for metric labels: the
    #: module-level shared store is always ``s0``.
    _ids = itertools.count()

    def __init__(self) -> None:
        self._populations: Dict[str, WebPopulation] = {}
        self._series: Dict[str, "SnapshotSeries"] = {}
        self._registry = shared_registry()
        store_id = f"s{next(WorldStore._ids)}"
        # Hits AND misses are counted symmetrically (a miss is a build).
        self._population_hits = self._registry.counter(
            "worldstore.population", store=store_id, event="hit"
        )
        self._population_misses = self._registry.counter(
            "worldstore.population", store=store_id, event="miss"
        )
        self._series_hits = self._registry.counter(
            "worldstore.series", store=store_id, event="hit"
        )
        self._series_misses = self._registry.counter(
            "worldstore.series", store=store_id, event="miss"
        )
        self._archive_hits = self._registry.counter(
            "worldstore.archive", store=store_id, event="hit"
        )
        self._archive_misses = self._registry.counter(
            "worldstore.archive", store=store_id, event="miss"
        )

    # -- worlds ---------------------------------------------------------------

    def population(self, config: Optional[PopulationConfig] = None) -> WebPopulation:
        """The frozen canonical population for *config* (built once).

        Every caller gets the same object, and it rejects every write
        (see :func:`freeze_population`).
        """
        key = config_digest(config)
        population = self._populations.get(key)
        if population is None:
            self._population_misses.inc()
            population = freeze_population(
                build_web_population(config or PopulationConfig())
            )
            self._populations[key] = population
        else:
            self._population_hits.inc()
        return population

    def series(self, config: Optional[PopulationConfig] = None) -> "SnapshotSeries":
        """The crawled snapshot series over the canonical population.

        The series is shared read-only: its shard's columns are filled
        once, by the crawl, and its internal memos are value-idempotent.
        """
        from ..measure.longitudinal import collect_snapshots

        key = config_digest(config)
        series = self._series.get(key)
        if series is None:
            self._series_misses.inc()
            series = collect_snapshots(self.population(config))
            self._series[key] = series
        else:
            self._series_hits.inc()
        return series

    def archive(
        self,
        config: Optional[PopulationConfig],
        root,
        shards: int = 0,
        workers: Optional[int] = None,
    ):
        """A columnar shard archive of *config*'s snapshot series.

        Opens an existing archive under *root* when its key matches --
        the config digest and the source digest, plus the armed fault
        plan and seed if any (a crawl-free warm start, the scale
        plane's analogue of a series cache hit); otherwise retires the
        root's ``facts.json`` (rows read from the old archive's bodies,
        perhaps by other code), crawls the population straight into
        per-shard archives via
        :func:`~repro.measure.longitudinal.collect_shard_archives` and
        opens the result.  Returns an open
        :class:`~repro.web.archive.ArchiveSet` (caller closes).
        """
        from pathlib import Path

        from ..measure.longitudinal import collect_shard_archives
        from .archive import FACTS_FILE, ArchiveError, ArchiveSet

        root = Path(root)
        digest = _archive_digest(config)
        try:
            existing = ArchiveSet.open(root)
            if existing.config_digest == digest:
                self._archive_hits.inc()
                return existing
            existing.close()
        except ArchiveError:
            pass
        self._archive_misses.inc()
        (root / FACTS_FILE).unlink(missing_ok=True)
        population = self.population(config)
        collect_shard_archives(
            population,
            root,
            shards=shards,
            workers=workers,
            config_digest=digest,
        )
        return ArchiveSet.open(root)

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached world (frees the substrate memory)."""
        self._populations.clear()
        self._series.clear()


_SHARED_STORE = WorldStore()


def shared_world_store() -> WorldStore:
    """The process-wide store shared by the orchestrator, CLI, and
    benchmark fixtures."""
    return _SHARED_STORE
