"""Prometheus text exposition of a telemetry export.

:func:`render_prometheus` renders the exported JSON payload shapes --
what ``METRICS.json`` and ``SERIES.json`` hold -- as Prometheus text
format (version 0.0.4).  It reads the *payload*, never a live registry,
so counter totals on ``/metrics`` are byte-identical to the JSON export.

:class:`MetricsHandler` answers ``/metrics`` and ``/healthz`` for one
export.  It is a transport :class:`~repro.net.transport.Handler`, so
``repro serve-metrics`` mounts it on
:class:`~repro.net.realserver.RealHttpServer`, the one class in
``repro`` that binds HTTP.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from ..net.http import Headers, Request, Response
from .metrics import parse_key

__all__ = ["MetricsHandler", "render_prometheus"]


# ---------------------------------------------------------------------------
# Prometheus text-format rendering (exposition format 0.0.4)
# ---------------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    clean = _NAME_SANITIZE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _prom_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_sample(
    name: str, labels: Dict[str, str], value: object, **extra: str
) -> str:
    """One sample line; *extra* labels follow the key's own."""
    pairs = [*labels.items(), *extra.items()]
    if pairs:
        body = ",".join(
            f'{_LABEL_SANITIZE.sub("_", k)}="{_prom_label_value(v)}"'
            for k, v in pairs
        )
        return f"{name}{{{body}}} {value}"
    return f"{name} {value}"


def render_prometheus(
    metrics_payload: Optional[Dict[str, object]] = None,
    series_payload: Optional[Dict[str, object]] = None,
) -> str:
    """Render export payloads as Prometheus text format.

    Counters become ``<name>_total`` counter families with their JSON
    totals rendered verbatim (``str`` of the exported integer), gauges
    keep their name, histograms expand to cumulative ``_bucket`` /
    ``_sum`` / ``_count`` samples, and month-series become
    ``<name>_monthly`` counter families with one sample per month
    carrying a ``month`` label (the ``_monthly`` suffix keeps a series
    from colliding with a counter of the same name).
    """
    lines: List[str] = []
    typed: Dict[str, str] = {}

    def emit(family: str, kind: str, sample: str) -> None:
        if typed.get(family) != kind:
            lines.append(f"# TYPE {family} {kind}")
            typed[family] = kind
        lines.append(sample)

    metrics_payload = metrics_payload or {}
    for rendered, value in metrics_payload.get("counters", {}).items():
        name, labels = parse_key(rendered)
        family = _prom_name(name) + "_total"
        emit(family, "counter", _prom_sample(family, labels, value))
    for rendered, value in metrics_payload.get("gauges", {}).items():
        name, labels = parse_key(rendered)
        family = _prom_name(name)
        emit(family, "gauge", _prom_sample(family, labels, value))
    for rendered, payload in metrics_payload.get("histograms", {}).items():
        name, labels = parse_key(rendered)
        family = _prom_name(name)
        if typed.get(family) != "histogram":
            lines.append(f"# TYPE {family} histogram")
            typed[family] = "histogram"
        running = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            running += count
            lines.append(_prom_sample(
                family + "_bucket", labels, running, le=str(bound)
            ))
        running += payload["counts"][-1]
        lines.append(_prom_sample(
            family + "_bucket", labels, running, le="+Inf"
        ))
        lines.append(_prom_sample(family + "_sum", labels, payload["sum"]))
        lines.append(_prom_sample(family + "_count", labels, payload["count"]))

    series_payload = series_payload or {}
    for rendered, entry in series_payload.get("series", {}).items():
        name, labels = parse_key(rendered)
        family = _prom_name(name) + "_monthly"
        for month, value in zip(entry["months"], entry["values"]):
            emit(family, "counter", _prom_sample(
                family, labels, value, month=str(month)
            ))
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# the HTTP endpoint
# ---------------------------------------------------------------------------

class MetricsHandler:
    """``/metrics`` and ``/healthz`` over one telemetry export.

    ``/metrics`` serves :func:`render_prometheus` of the two payloads;
    ``/healthz`` serves a JSON object of ``status``, ``requests``
    (handled so far, this one included) and the *health* fields.  Any
    other path is a 404.
    """

    def __init__(
        self,
        metrics_payload: Optional[Dict[str, object]],
        series_payload: Optional[Dict[str, object]],
        health: Optional[Dict[str, object]] = None,
    ):
        self._metrics_text = render_prometheus(metrics_payload, series_payload)
        self._health = dict(health or {})
        self.requests = 0

    def handle(self, request: Request) -> Response:
        """Serve one request; every route counts toward ``requests``."""
        self.requests += 1
        if request.path == "/metrics":
            return _reply(
                200, self._metrics_text, "text/plain; version=0.0.4; charset=utf-8"
            )
        if request.path == "/healthz":
            payload = {"status": "ok", "requests": self.requests, **self._health}
            return _reply(
                200, json.dumps(payload, sort_keys=True) + "\n", "application/json"
            )
        return _reply(404, f"no route for {request.path}\n", "text/plain")


def _reply(status: int, body: str, content_type: str) -> Response:
    return Response(status, body, Headers({"Content-Type": content_type}))
