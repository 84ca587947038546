"""Exception hierarchy for the network substrate.

The Section 6 methodology treats "any exceptions that occur" as a
blocking signal alongside status codes and content length, so transport
failures are first-class observable outcomes here, not incidental bugs.
"""

from __future__ import annotations

__all__ = [
    "NetError",
    "DNSFailure",
    "ConnectionRefused",
    "ConnectionReset",
]


class NetError(Exception):
    """Base class for all transport-level failures."""


class DNSFailure(NetError):
    """The hostname does not resolve."""

    def __init__(self, host: str):
        super().__init__(f"cannot resolve host: {host}")
        self.host = host


class ConnectionRefused(NetError):
    """The server refused the TCP connection."""

    def __init__(self, host: str):
        super().__init__(f"connection refused by {host}")
        self.host = host


class ConnectionReset(NetError):
    """The server reset the connection mid-exchange.

    Some anti-bot deployments drop automation traffic at the TCP level
    instead of returning an HTTP error; this is the exception the
    active-blocking detector observes in that case.
    """

    def __init__(self, host: str):
        super().__init__(f"connection reset by {host}")
        self.host = host

