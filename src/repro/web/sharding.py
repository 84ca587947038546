"""Deterministic shard partitioning for million-site worlds.

Sharding is the unit of parallelism and of memory bounding for the
scale plane: the archive crawl
(:func:`~repro.measure.longitudinal.collect_shard_archives`) runs one
:func:`repro.fanout.fan_out` unit per shard, and the columnar snapshot
archive keeps one self-contained directory per shard so aggregations
can stream shard by shard at O(shard) memory.

The assignment is a pure function of the domain: ``sha256`` of the
"www."-normalized host modulo the shard count.  Two invariants follow:

* **Shard-count independence.**  Every per-site sampler in the world
  model is keyed ``(seed, domain)``, never by shard or worker, so the
  shard map only decides *where* a site is crawled -- any shard count
  (and any worker count) yields byte-identical snapshots.
* **Variant co-residency.**  ``example.com`` and ``www.example.com``
  hash to the same shard, so the analysis layer's "www."-variant
  record fallback (Appendix B.1) never has to look outside one shard.

The assignment and the default shard count live in
:mod:`repro.columnar`, which the log store partitions hosts with too;
this module adds the partition and its balance counters around them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, TypeVar

from ..columnar import SITES_PER_SHARD, normalize_host, shard_count_for, shard_of

__all__ = [
    "SITES_PER_SHARD",
    "normalize_host",
    "shard_of",
    "shard_count_for",
    "partition_domains",
    "record_shard_balance",
]

T = TypeVar("T")

def partition_domains(
    domains: Sequence[T],
    n_shards: int,
    key: Optional[Iterable[str]] = None,
) -> List[List[T]]:
    """Split *domains* into *n_shards* lists, input order preserved.

    *key* supplies the domain string per item when the items themselves
    are richer objects (e.g. :class:`~repro.web.site.SimSite`); by
    default the items are the domain strings.
    """
    parts: List[List[T]] = [[] for _ in range(max(1, n_shards))]
    keys = list(key) if key is not None else None
    for index, item in enumerate(domains):
        host = keys[index] if keys is not None else item  # type: ignore[assignment]
        parts[shard_of(host, n_shards)].append(item)
    return parts


def record_shard_balance(
    parts: Sequence[Sequence[object]], stage: str
) -> Dict[int, int]:
    """Publish ``shard.sites{shard,stage}`` counters for a partition.

    Emitted parent-side (the partition is deterministic, so the
    counters stay inside the cross-mode determinism contract).  Returns
    the per-shard site counts for callers that also want them.
    """
    from ..obs.metrics import metrics_enabled, shared_registry

    sizes = {index: len(part) for index, part in enumerate(parts)}
    if metrics_enabled():
        registry = shared_registry()
        for index, size in sizes.items():
            if size:
                registry.counter(
                    "shard.sites", shard=str(index), stage=stage
                ).inc(size)
    return sizes
