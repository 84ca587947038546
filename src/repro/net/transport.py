"""The in-memory network: hostname routing.

A :class:`Network` is the simulated Internet: handlers (origin websites
or reverse proxies) register under hostnames, clients submit
:class:`~repro.net.http.Request` objects, and the network returns the
handler's response or raises a transport error.  Transport faults come
from one place, the fault plan :mod:`repro.net.chaos` arms.  Everything is synchronous and deterministic; at the scale of the
paper's sweeps (tens of thousands of sites) a full experiment runs in
seconds.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Protocol

from ..obs.metrics import metrics_enabled, shared_registry
from .errors import DNSFailure
from .http import Request, Response

__all__ = ["Handler", "Network", "current_month", "set_chaos_factory"]

#: When armed (see :func:`repro.net.chaos.activate`), every Network
#: constructed from then on gets ``factory(network)`` as its chaos
#: controller.  Lives here -- not in chaos.py -- so the transport never
#: imports the chaos module; the dependency points one way only.
_CHAOS_FACTORY: Optional[Callable[["Network"], object]] = None


def set_chaos_factory(
    factory: Optional[Callable[["Network"], object]]
) -> None:
    """Arm (or with None, disarm) chaos installation for new Networks."""
    global _CHAOS_FACTORY
    _CHAOS_FACTORY = factory

#: The simulated-month clock of the dispatch in progress:
#: :meth:`Network.request` sets it to its network's month for the
#: handler call and restores the previous value after.  Handlers read it
#: via :func:`current_month`, so the month a request is logged under is
#: always its network's, which drivers advance as simulated time passes.
_MONTH = -1


def current_month() -> int:
    """The simulated-month index of the request being dispatched.

    Returns -1 outside a :meth:`Network.request` dispatch (a direct
    ``handler.handle`` call, or a request the TCP bridge hands straight
    to a website).
    """
    return _MONTH


class Handler(Protocol):
    """Anything that can answer an HTTP request for a hostname."""

    def handle(self, request: Request) -> Response:  # pragma: no cover
        """Serve one request."""
        ...


class Network:
    """Hostname-to-handler routing, with an armed fault plan's controller.

    >>> from repro.net.server import Website
    >>> net = Network()
    >>> site = Website("example.com")
    >>> site.add_page("/", "<p>hi</p>")
    >>> net.register(site)
    >>> net.request(Request(host="example.com")).status
    200
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}
        self.now: float = 0.0
        #: Simulated-month index (the series/span logical clock); -1
        #: until a measurement loop or materialization sets it.
        self.month: int = -1
        self._registry = shared_registry()
        # Counter handles cached per status / error kind so the
        # per-request cost is one dict probe plus one add.
        self._status_counters: Dict[int, object] = {}
        self._error_counters: Dict[str, object] = {}
        # Per-host request tallies, kept as a plain dict (cheap) and
        # published as a requests-per-site histogram on demand.
        self._per_host_requests: Dict[str, int] = {}
        #: Installed fault-plan controller (see repro.net.chaos); one
        #: bool check per request when absent.
        self._chaos = _CHAOS_FACTORY(self) if _CHAOS_FACTORY is not None else None

    # -- topology -----------------------------------------------------------

    def register(self, handler: Handler, host: Optional[str] = None) -> None:
        """Register *handler* under *host* (default: ``handler.host``)."""
        if host is None:
            host = getattr(handler, "host", None)
            if host is None:
                raise ValueError("handler has no .host; pass host explicitly")
        self._handlers[host.lower()] = handler

    def register_many(self, pairs: Iterable[tuple]) -> None:
        """Bulk-register ``(handler, host)`` pairs.

        The population materializer registers thousands of handlers per
        snapshot; this path skips the per-call host inference and lets
        the dict grow in one pass.
        """
        handlers = self._handlers
        for handler, host in pairs:
            handlers[host.lower()] = handler

    def hosts(self) -> Iterator[str]:
        """All registered hostnames."""
        return iter(self._handlers)

    def __contains__(self, host: str) -> bool:
        return host.lower() in self._handlers

    # -- telemetry ----------------------------------------------------------

    def _count_response(self, status: int) -> None:
        counter = self._status_counters.get(status)
        if counter is None:
            counter = self._registry.counter("net.responses", status=status)
            self._status_counters[status] = counter
        counter.inc()

    def _count_error(self, kind: str) -> None:
        counter = self._error_counters.get(kind)
        if counter is None:
            counter = self._registry.counter("net.errors", kind=kind)
            self._error_counters[kind] = counter
        counter.inc()

    def publish_request_histogram(self) -> None:
        """Observe each host's request count into the
        ``net.requests_per_site`` histogram.

        Call once per network lifetime (e.g. after a snapshot crawl):
        the distribution of per-site request volume is the provenance a
        crawl report needs to show no site was over- or under-visited.
        """
        if not metrics_enabled() or not self._per_host_requests:
            return
        histogram = self._registry.histogram("net.requests_per_site")
        for count in self._per_host_requests.values():
            histogram.observe(count)

    # -- request dispatch ---------------------------------------------------

    def request(self, request: Request) -> Response:
        """Deliver *request* to its host's handler.

        Raises:
            DNSFailure: No handler is registered for the host.
            NetError: The armed fault plan injected a transport error.
        """
        global _MONTH
        key = request.host.lower()
        metered = metrics_enabled()
        if metered:
            self._per_host_requests[key] = self._per_host_requests.get(key, 0) + 1
        handler = self._handlers.get(key)
        if handler is None:
            if metered:
                self._count_error("DNSFailure")
            raise DNSFailure(request.host)
        chaos = self._chaos
        if chaos is not None:
            # After handler resolution (DNS wins over injected faults,
            # matching the real network's ordering) but before dispatch.
            exc = chaos.intercept(request)
            if exc is not None:
                if metered:
                    self._count_error(type(exc).__name__)
                raise exc
        # Propagate the simulation clocks: ``now`` to handlers that
        # keep logs, the month to the dispatch clock.
        if hasattr(handler, "now"):
            handler.now = self.now
        previous, _MONTH = _MONTH, self.month
        try:
            response = handler.handle(request)
        finally:
            _MONTH = previous
        if chaos is not None:
            response = chaos.mutate_response(request, response)
        if metered:
            self._count_response(response.status)
        return response
