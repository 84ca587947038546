"""Serve simulated websites over real TCP sockets.

The paper's Section 5 testbed is two real websites on a cloud host with
request logging.  For integration-level fidelity, this module exposes
any in-memory :class:`~repro.net.transport.Handler` (a website or a
reverse proxy stack) on a localhost socket using the standard library's
HTTP server, plus a matching blocking client built on ``http.client``.
The compliance experiment's integration tests run the crawler fleet over
genuine TCP through this bridge; the large sweeps use the in-memory
transport with identical semantics.

The bridge answers one request at a time and closes each connection
after its response, on one thread: the caller's
(:meth:`RealHttpServer.serve`, which ``repro serve`` and ``repro
serve-metrics`` run), or the one the context manager starts for an
in-process caller, which waits on its own requests.  So the serving
thread runs handlers only while its caller waits, nothing else in the
package runs concurrently, and this is the one module that imports
:mod:`threading`.
"""

from __future__ import annotations

import http.client
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Optional

from .http import Headers, Request, Response
from .transport import Handler

__all__ = ["RealHttpServer", "fetch_real"]

#: Seconds the bridge waits on a connection's socket before dropping
#: it.  With one serving thread, a client that connects and sends
#: nothing would otherwise hold the bridge from every later client.
READ_TIMEOUT_S = 3.0


class RealHttpServer:
    """Expose a handler on a localhost TCP port, one request at a time.

    In process, use it as a context manager, which serves on one
    background thread while the caller makes its requests::

        with RealHttpServer(site) as server:
            response = fetch_real(f"http://{server.address}/robots.txt")

    A command serves on its own thread instead, until a budget is met::

        RealHttpServer(site).serve(lambda: len(site.access_log) >= 10)

    The ``Host`` header (minus port) is used as the virtual-host routing
    key, falling back to the handler's own host, so a single socket can
    front a multi-host handler such as a Network adapter.
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0):
        self._handler = handler
        self._default_host = getattr(handler, "host", "")
        outer = self

        class _RequestBridge(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = READ_TIMEOUT_S

            def _serve(self, method: str) -> None:
                host_header = self.headers.get("Host", "")
                vhost = host_header.split(":", 1)[0] or outer._default_host
                # Standard proxy convention: an X-Forwarded-For header
                # carries the original client address across the bridge
                # (the RemoteNetwork client uses it so IP-sensitive
                # handlers behave identically over TCP).
                client_ip = (
                    self.headers.get("X-Forwarded-For")
                    or self.client_address[0]
                ).split(",")[0].strip()
                passthrough = {}
                for name in ("User-Agent", "X-Automation"):
                    value = self.headers.get(name)
                    if value is not None:
                        passthrough[name] = value
                request = Request(
                    host=vhost,
                    path=self.path,
                    method=method,
                    headers=Headers(passthrough),
                    client_ip=client_ip,
                    scheme="http",
                )
                try:
                    response = outer._handler.handle(request)
                except Exception:  # noqa: BLE001 - surface as 500 like a real server
                    self.send_error(500)
                    return
                assert isinstance(response.body, bytes)
                self.send_response(response.status)
                sent_type = False
                for name, value in response.headers:
                    self.send_header(name, value)
                    if name.lower() == "content-type":
                        sent_type = True
                if not sent_type:
                    self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(response.body)))
                # One request per connection: a kept-alive client would
                # hold the one serving thread.
                self.send_header("Connection", "close")
                self.end_headers()
                if method != "HEAD":
                    self.wfile.write(response.body)

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                self._serve("GET")

            def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
                self._serve("HEAD")

            def log_message(self, *args) -> None:  # silence stderr
                pass

        self._server = HTTPServer((host, port), _RequestBridge)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """``host:port`` the server listens on."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._server.server_address[1]

    def serve(self, done: Callable[[], bool]) -> None:
        """Answer requests on the calling thread until ``done()`` holds,
        then release the socket.

        Each response is written and its connection closed before
        *done* is asked again, so a budget the handler counts (such as
        access-log entries) never ends the loop before its client has
        the whole answer.
        """
        try:
            while not done():
                self._server.handle_request()
        finally:
            self._server.server_close()

    def start(self) -> "RealHttpServer":
        """Start serving on one background thread."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the serving thread, if one was started, and release the
        socket."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "RealHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def fetch_real(
    url: str,
    user_agent: str = "repro-client/1.0",
    host_header: Optional[str] = None,
    timeout: float = 10.0,
    extra_headers: Optional[dict] = None,
) -> Response:
    """Fetch *url* over real TCP with ``http.client``.

    Args:
        host_header: Override the ``Host`` header, enabling virtual-host
            selection while connecting to a localhost socket.
        extra_headers: Additional request headers to send.
    """
    scheme_rest = url.split("://", 1)
    rest = scheme_rest[1] if len(scheme_rest) == 2 else scheme_rest[0]
    netloc, _, path = rest.partition("/")
    path = "/" + path
    conn = http.client.HTTPConnection(netloc, timeout=timeout)
    try:
        headers = {"User-Agent": user_agent, "Connection": "close"}
        if host_header:
            headers["Host"] = host_header
        if extra_headers:
            headers.update(extra_headers)
        conn.request("GET", path, headers=headers)
        raw = conn.getresponse()
        body = raw.read()
        return Response(
            status=raw.status,
            body=body,
            headers=Headers({k: v for k, v in raw.getheaders()}),
            url=url,
        )
    finally:
        conn.close()


class NetworkHandler:
    """Adapter exposing a whole :class:`Network` as one Handler.

    Lets :class:`RealHttpServer` front an entire simulated internet on
    a single socket; virtual hosts are selected by the ``Host`` header.
    """

    def __init__(self, network):
        self._network = network
        self.host = ""
        self.now = 0.0

    def handle(self, request: Request) -> Response:
        self._network.now = self.now
        return self._network.request(request)


class RemoteNetwork:
    """A Network-compatible transport that sends requests over TCP.

    Point it at a :class:`RealHttpServer` fronting a
    :class:`NetworkHandler` and any crawler or measurement pipeline
    built against the in-memory :class:`~repro.net.transport.Network`
    runs unchanged over genuine sockets -- the transport-equivalence
    property the integration tests verify.
    """

    def __init__(self, address: str):
        self.address = address
        self.now: float = 0.0
        # Network-interface parity: crawlers stamp their series on the
        # transport's month clock; a remote transport is unclocked.
        self.month: int = -1

    def request(self, request: Request) -> Response:
        extra = {"X-Forwarded-For": request.client_ip}
        automation = request.headers.get("X-Automation")
        if automation is not None:
            extra["X-Automation"] = automation
        response = fetch_real(
            f"http://{self.address}{request.path}",
            user_agent=request.user_agent,
            host_header=request.host,
            extra_headers=extra,
        )
        response.url = request.url
        return response
