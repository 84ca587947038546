"""The SERIES.json export of the month series.

Month series live in the one metrics registry beside counters, gauges
and histograms (:class:`~repro.obs.metrics.Series`,
:meth:`~repro.obs.metrics.MetricsRegistry.series`), so they share its
enabled flag, its fork-worker shipping and its reset.  ``METRICS.json``
leaves them out; this module writes them on their own, as the
operator-side view of a run: per ``(name, labels)``, the amount in each
simulated month (:meth:`~repro.obs.metrics.MetricsRegistry.series_json`).
"""

from __future__ import annotations

import json
from typing import Optional

from ..columnar import atomic_write
from .metrics import MetricsRegistry, shared_registry

__all__ = ["export_series"]


def export_series(path, registry: Optional[MetricsRegistry] = None) -> None:
    """Write *registry*'s (default: the shared one) month series as
    JSON to *path*."""
    registry = registry if registry is not None else shared_registry()
    atomic_write(
        path, json.dumps(registry.series_json(), indent=2, sort_keys=True) + "\n"
    )
