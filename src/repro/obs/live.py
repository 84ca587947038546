"""Streaming telemetry: scrape the batch registries into a live plane.

The batch obs plane (:mod:`repro.obs.metrics`, :mod:`repro.obs.series`)
exports its state once, at the end of a run.  A production measurement
service needs the same numbers *while the run happens*: a Prometheus
scrape endpoint, an event stream for downstream collectors, and health
signals.  This module bridges the two worlds without touching the hot
instrument paths:

* :class:`TelemetryScraper` periodically snapshots the registries and
  computes **snapshot deltas** with the exact same
  :func:`~repro.obs.metrics.snapshot_delta` arithmetic the fan-out
  (:mod:`repro.fanout`) uses to ship fork units' activity, so a scrape
  stream and a batch export can never disagree -- the final scrape's
  cumulative payload *is* the METRICS.json / SERIES.json payload, and
  both render through the same ``render_snapshot`` functions.
* :class:`EventBus` is a bounded ring buffer of
  :class:`TelemetryEvent` records with pluggable sinks.  When the
  buffer is full the oldest event is dropped (and counted); a slow or
  absent consumer can never grow memory without bound.
* :func:`render_prometheus` renders the exported JSON payload shapes
  as Prometheus text format (version 0.0.4).  It deliberately operates
  on the *payload* (what ``METRICS.json`` holds) rather than a live
  registry, so serving a finished run's files and serving a live
  process share one code path -- and counter totals on ``/metrics``
  are byte-identical to the JSON export.
* :class:`MetricsHTTPServer` mounts ``/metrics`` + ``/healthz`` on a
  stdlib threading HTTP server (``repro serve-metrics``).
* :class:`JsonlSink` appends one OTLP-flavored JSON line per event.

Clock duality: in **live mode** a daemon thread scrapes on a
wall-clock interval (:meth:`LiveTelemetry.start`); in **batch mode**
the pipeline scrapes on simulated-month ticks -- the snapshot
collector calls :func:`month_tick` after each month it lands, which is
a no-op unless a pipeline was :func:`install`-ed for the run.  The
disabled path therefore costs one module-global ``None`` check.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from . import metrics as _metrics
from . import series as _series_mod
from .metrics import MetricsRegistry, render_key, shared_registry
from .series import SeriesRegistry, shared_series

__all__ = [
    "LIVE_SCHEMA_VERSION",
    "DEFAULT_BUS_CAPACITY",
    "TelemetryEvent",
    "EventBus",
    "TelemetryScraper",
    "LiveTelemetry",
    "JsonlSink",
    "MetricsHTTPServer",
    "render_prometheus",
    "install",
    "uninstall",
    "active",
    "month_tick",
]

#: Schema version stamped into every emitted telemetry event.
LIVE_SCHEMA_VERSION = 1

#: Ring-buffer slots before the oldest event is evicted.
DEFAULT_BUS_CAPACITY = 512


# ---------------------------------------------------------------------------
# events and the ring-buffer bus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryEvent:
    """One item on the live stream.

    ``kind`` is ``"scrape"`` for registry deltas and ``"alert"`` for
    SLO rule firings; ``month`` carries the simulated-month logical
    clock when the event was driven by a batch month tick (``None`` on
    wall-clock scrapes).
    """

    seq: int
    kind: str
    unix_time: float
    month: Optional[int]
    payload: Dict[str, object]

    def to_json(self) -> Dict[str, object]:
        """A JSON-able rendering (payload shared, not copied)."""
        return {
            "schema_version": LIVE_SCHEMA_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "unix_time": self.unix_time,
            "month": self.month,
            "payload": self.payload,
        }


class EventBus:
    """A bounded, thread-safe ring buffer with push-style sinks.

    Publishing never blocks and never grows memory past *capacity*:
    when full, the oldest event is evicted and counted in
    :attr:`dropped`.  Sinks are called synchronously on the publishing
    thread, in subscription order, *outside* the buffer lock; a sink
    that raises propagates to the publisher (sinks here are small,
    deterministic writers -- hiding their failures would hide bugs).
    """

    def __init__(self, capacity: int = DEFAULT_BUS_CAPACITY):
        if capacity < 1:
            raise ValueError("event bus capacity must be >= 1")
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dropped = 0
        self._sinks: List[Callable[[TelemetryEvent], None]] = []

    @property
    def capacity(self) -> int:
        """Ring-buffer size."""
        return self._buffer.maxlen or 0

    @property
    def dropped(self) -> int:
        """Events evicted because the buffer was full."""
        return self._dropped

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent publish (0 before any)."""
        return self._seq

    def subscribe(self, sink: Callable[[TelemetryEvent], None]) -> None:
        """Add a callable invoked with every subsequently published event."""
        with self._lock:
            self._sinks.append(sink)

    def publish(
        self,
        kind: str,
        payload: Dict[str, object],
        month: Optional[int] = None,
        unix_time: Optional[float] = None,
    ) -> TelemetryEvent:
        """Append an event to the ring and fan it out to the sinks."""
        stamp = time.time() if unix_time is None else unix_time
        with self._lock:
            self._seq += 1
            event = TelemetryEvent(
                seq=self._seq, kind=kind, unix_time=stamp,
                month=month, payload=payload,
            )
            if len(self._buffer) == self._buffer.maxlen:
                self._dropped += 1
            self._buffer.append(event)
            sinks = list(self._sinks)
        for sink in sinks:
            sink(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[TelemetryEvent]:
        """A detached copy of the buffered events, oldest first."""
        with self._lock:
            items = list(self._buffer)
        if kind is None:
            return items
        return [event for event in items if event.kind == kind]


# ---------------------------------------------------------------------------
# scraping: snapshot-delta over the batch registries
# ---------------------------------------------------------------------------

class TelemetryScraper:
    """Turns registry state into cumulative + delta scrape payloads.

    Each :meth:`scrape` takes one consistent snapshot pair, renders the
    cumulative state in the exact export payload shapes, and diffs
    against the previous scrape with the same ``snapshot_delta``
    arithmetic the fan-out uses for fork-pool units.  The scrape itself
    is counted (``live.scrapes``) *before* the snapshot, so the
    cumulative payload always accounts for its own bookkeeping and the
    final scrape of a run matches the batch export exactly.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        series: Optional[SeriesRegistry] = None,
    ):
        self._registry = registry if registry is not None else shared_registry()
        self._series = series if series is not None else shared_series()
        self._lock = threading.Lock()
        self._metrics_before: Dict = {"counters": {}, "gauges": {}, "histograms": {}}
        self._series_before: Dict = {}
        self._scrapes = 0

    @property
    def scrapes(self) -> int:
        """Completed scrape count."""
        return self._scrapes

    def scrape(self) -> Dict[str, object]:
        """One scrape: cumulative payloads plus the delta since last time."""
        self._registry.inc("live.scrapes")
        with self._lock:
            metrics_after = self._registry.snapshot()
            series_after = self._series.snapshot()
            metrics_delta = _metrics.snapshot_delta(metrics_after, self._metrics_before)
            series_delta = _series_mod.snapshot_delta(series_after, self._series_before)
            self._metrics_before = metrics_after
            self._series_before = series_after
            self._scrapes += 1
            index = self._scrapes
        return {
            "scrape_index": index,
            "metrics": _metrics.render_snapshot(metrics_after),
            "series": _series_mod.render_snapshot(series_after),
            "delta": {
                "counters": {
                    render_key(key): value
                    for key, value in sorted(metrics_delta["counters"].items())
                },
                "series": {
                    render_key(key): {
                        str(month): amount
                        for month, amount in sorted(points.items())
                    }
                    for key, points in sorted(series_delta.items())
                },
            },
        }


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
    name: str, labels: List[Tuple[str, str]], value: object
) -> str:
    if labels:
        body = ",".join(
            f'{_LABEL_SANITIZE.sub("_", k)}="{_prom_label_value(v)}"'
            for k, v in labels
        )
        return f"{name}{{{body}}} {value}"
    return f"{name} {value}"


def _split_rendered(rendered: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Invert ``render_key``: ``name{a=b,c=d}`` -> name + label pairs."""
    if "{" not in rendered:
        return rendered, []
    name, _, rest = rendered.partition("{")
    pairs: List[Tuple[str, str]] = []
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        pairs.append((label, value))
    return name, pairs


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
    carrying a ``month`` label (the ``_monthly`` suffix keeps a name
    that exists both as a counter and a series -- e.g.
    ``accesslog.requests`` -- from colliding).
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
        name, labels = _split_rendered(rendered)
        family = _prom_name(name) + "_total"
        emit(family, "counter", _prom_sample(family, labels, value))
    for rendered, value in metrics_payload.get("gauges", {}).items():
        name, labels = _split_rendered(rendered)
        family = _prom_name(name)
        emit(family, "gauge", _prom_sample(family, labels, value))
    for rendered, payload in metrics_payload.get("histograms", {}).items():
        name, labels = _split_rendered(rendered)
        family = _prom_name(name)
        if typed.get(family) != "histogram":
            lines.append(f"# TYPE {family} histogram")
            typed[family] = "histogram"
        running = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            running += count
            lines.append(_prom_sample(
                family + "_bucket", labels + [("le", str(bound))], running
            ))
        running += payload["counts"][-1]
        lines.append(_prom_sample(
            family + "_bucket", labels + [("le", "+Inf")], running
        ))
        lines.append(_prom_sample(family + "_sum", labels, payload["sum"]))
        lines.append(_prom_sample(family + "_count", labels, payload["count"]))

    series_payload = series_payload or {}
    for rendered, entry in series_payload.get("series", {}).items():
        name, labels = _split_rendered(rendered)
        family = _prom_name(name) + "_monthly"
        for month, value in zip(entry["months"], entry["values"]):
            emit(family, "counter", _prom_sample(
                family, labels + [("month", str(month))], value
            ))
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class JsonlSink:
    """Append one OTLP-flavored JSON line per telemetry event.

    Scrape events carry only the *delta* since the previous scrape
    (cumulative state is reconstructable by summation and served by
    ``/metrics``); alert and other events ship their payload whole.
    """

    def __init__(self, path):
        self._path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event: TelemetryEvent) -> None:
        record: Dict[str, object] = {
            "schemaVersion": LIVE_SCHEMA_VERSION,
            "timeUnixNano": int(event.unix_time * 1e9),
            "seq": event.seq,
            "kind": event.kind,
            "month": event.month,
        }
        if event.kind == "scrape":
            record["scrapeIndex"] = event.payload.get("scrape_index")
            record["deltas"] = event.payload.get("delta", {})
        else:
            record["payload"] = event.payload
        with self._lock:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


# ---------------------------------------------------------------------------
# the in-process HTTP endpoint
# ---------------------------------------------------------------------------

class MetricsHTTPServer:
    """``/metrics`` + ``/healthz`` on a stdlib threading HTTP server.

    *source* is called per ``/metrics`` request and must return a
    ``(metrics_payload, series_payload)`` pair in the export JSON
    shapes; *health* (optional) is called per ``/healthz`` request and
    returns a JSON-able dict merged into the default health body.
    Construction binds but does not serve; call :meth:`start`.
    """

    def __init__(
        self,
        source: Callable[[], Tuple[Dict[str, object], Dict[str, object]]],
        health: Optional[Callable[[], Dict[str, object]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._source = source
        self._health = health
        self._requests = 0
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                server._handle(self)

            def log_message(self, *args: object) -> None:
                pass  # quiet; the bus and CLI own user-facing output

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    # -- request plumbing ----------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        with self._lock:
            self._requests += 1
        if request.path == "/metrics":
            metrics_payload, series_payload = self._source()
            body = render_prometheus(metrics_payload, series_payload)
            self._respond(
                request, 200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif request.path == "/healthz":
            payload: Dict[str, object] = {"status": "ok", "requests": self._requests}
            if self._health is not None:
                payload.update(self._health())
            self._respond(
                request, 200, json.dumps(payload, sort_keys=True) + "\n",
                "application/json",
            )
        else:
            self._respond(
                request, 404, f"no route for {request.path}\n", "text/plain"
            )

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler, status: int, body: str, content_type: str
    ) -> None:
        encoded = body.encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(encoded)))
        request.end_headers()
        request.wfile.write(encoded)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` ephemeral binds)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    @property
    def request_count(self) -> int:
        """GET requests handled so far (any route)."""
        return self._requests

    def start(self) -> "MetricsHTTPServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and join the serving thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


# ---------------------------------------------------------------------------
# the composed pipeline
# ---------------------------------------------------------------------------

class LiveTelemetry:
    """Scraper + bus + sinks + optional alert engine, as one pipeline.

    Batch mode: :func:`install` the pipeline and the snapshot collector
    drives it via :func:`month_tick`; the orchestrator takes one final
    scrape before exporting so the stream's last cumulative payload
    equals the batch export.  Live mode: :meth:`start` scrapes on a
    wall-clock interval.  An attached alert engine (anything with an
    ``evaluate(metrics, series)`` returning alert events) runs on every
    scrape; each firing publishes an ``alert`` event and increments
    ``alerts.fired{rule=...}``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        series: Optional[SeriesRegistry] = None,
        capacity: int = DEFAULT_BUS_CAPACITY,
        alert_engine: Optional[object] = None,
    ):
        self._registry = registry if registry is not None else shared_registry()
        self.bus = EventBus(capacity)
        self.scraper = TelemetryScraper(registry=registry, series=series)
        self.alert_engine = alert_engine
        self._latest: Optional[Dict[str, object]] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._sinks_to_close: List[JsonlSink] = []

    def add_sink(self, sink: Callable[[TelemetryEvent], None]) -> None:
        """Subscribe *sink* to the bus; ``close()``-ables close with us."""
        self.bus.subscribe(sink)
        if hasattr(sink, "close"):
            self._sinks_to_close.append(sink)  # type: ignore[arg-type]

    # -- scraping ------------------------------------------------------------

    def scrape(self, month: Optional[int] = None) -> TelemetryEvent:
        """Scrape now; publish the scrape (and any alert firings)."""
        payload = self.scraper.scrape()
        self._latest = payload
        event = self.bus.publish("scrape", payload, month=month)
        if self.alert_engine is not None:
            fired = self.alert_engine.evaluate(
                metrics=payload["metrics"], series=payload["series"]
            )
            for alert in fired:
                self._registry.inc("alerts.fired", rule=alert.rule)
                self.bus.publish("alert", alert.to_json(), month=month)
        return event

    def latest(self) -> Optional[Dict[str, object]]:
        """The most recent scrape payload (None before the first)."""
        return self._latest

    # -- wall-clock live mode ------------------------------------------------

    def start(self, interval_seconds: float = 5.0) -> None:
        """Scrape every *interval_seconds* on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("live scraper already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_seconds):
                self.scrape()

        self._thread = threading.Thread(
            target=loop, name="repro-live-scraper", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the interval thread (if running) and close owned sinks."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        for sink in self._sinks_to_close:
            sink.close()

    # -- HTTP ----------------------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> MetricsHTTPServer:
        """Mount ``/metrics`` (scrape-on-demand) + ``/healthz``; start it."""

        def source() -> Tuple[Dict[str, object], Dict[str, object]]:
            payload = self.scrape().payload
            return payload["metrics"], payload["series"]  # type: ignore[index]

        def health() -> Dict[str, object]:
            return {
                "scrapes": self.scraper.scrapes,
                "events": self.bus.last_seq,
                "dropped": self.bus.dropped,
            }

        return MetricsHTTPServer(source, health=health, host=host, port=port).start()


# ---------------------------------------------------------------------------
# the batch-mode hook: one installed pipeline per process
# ---------------------------------------------------------------------------

_ACTIVE: Optional[LiveTelemetry] = None


def install(pipeline: LiveTelemetry) -> LiveTelemetry:
    """Make *pipeline* the process's month-tick target; returns it."""
    global _ACTIVE
    _ACTIVE = pipeline
    return pipeline


def uninstall() -> None:
    """Detach the installed pipeline (month ticks become no-ops)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[LiveTelemetry]:
    """The installed pipeline, if any."""
    return _ACTIVE


def month_tick(month: int) -> Optional[TelemetryEvent]:
    """Scrape the installed pipeline at a simulated-month boundary.

    The batch pipeline's only obligation to the live plane: call this
    when a month's work lands.  Costs one ``None`` check when no
    pipeline is installed.
    """
    pipeline = _ACTIVE
    if pipeline is None:
        return None
    return pipeline.scrape(month=month)
