"""HTTP substrate: messages, in-memory network, DNS, logs, faults.

The substrate has two interchangeable transports:

* the in-memory :class:`Network`, used for population-scale sweeps, and
* :class:`RealHttpServer` / :func:`fetch_real`, which expose the same
  handlers over genuine localhost TCP for integration tests,
  ``repro serve`` and ``repro serve-metrics``.

Server-side, each host's access log (:mod:`~repro.net.accesslog`)
records every request once; its appends feed the ``sim.requests``
series and the wide-event log store (:mod:`~repro.net.logstore`).
:mod:`~repro.net.chaos` injects transport faults.
"""

from .accesslog import AccessLog, LogEntry
from .chaos import ChaosController, FaultPlan, FaultRule
from .dns import DnsZone, ProviderInfra, Resolution
from .errors import (
    ConnectionRefused,
    ConnectionReset,
    DNSFailure,
    NetError,
)
from .http import Headers, Request, Response
from .realserver import NetworkHandler, RealHttpServer, RemoteNetwork, fetch_real
from .server import Page, Website, extract_links, render_page
from .transport import Handler, Network

__all__ = [
    "AccessLog",
    "LogEntry",
    "ChaosController",
    "FaultPlan",
    "FaultRule",
    "DnsZone",
    "ProviderInfra",
    "Resolution",
    "ConnectionRefused",
    "ConnectionReset",
    "DNSFailure",
    "NetError",
    "Headers",
    "Request",
    "Response",
    "NetworkHandler",
    "RealHttpServer",
    "RemoteNetwork",
    "fetch_real",
    "Page",
    "Website",
    "extract_links",
    "render_page",
    "Handler",
    "Network",
]
