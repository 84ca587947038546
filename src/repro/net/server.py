"""In-memory websites: the origin servers of the simulated web.

A :class:`Website` is a virtual-host handler: it owns a set of pages, an
optional robots.txt, optional host-level redirects, and an access log.
Reverse proxies (:mod:`repro.proxy`) wrap a website and interpose on its
:meth:`Website.handle`; the :class:`~repro.net.transport.Network` routes
requests to whichever handler is registered for the hostname.

Pages are real HTML with real anchor tags, because the crawl engine
discovers links by parsing the returned documents -- the same way the
paper's testbed sites "contain basic text, images, and links to other
pages" (Section 5.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..obs.metrics import metrics_enabled, shared_registry
from .accesslog import AccessLog, LogEntry
from .http import Headers, Request, Response
from .transport import current_month

__all__ = ["Page", "Website", "extract_links", "render_page"]

_HREF_RE = re.compile(r'href="([^"]+)"')

#: Lazily-bound counter handles shared by every Website in the process
#: (robots.txt is the one server path hot enough to meter per request).
_ROBOTS_COUNTERS: dict = {}


def _count_robots_serve(status: int) -> None:
    counter = _ROBOTS_COUNTERS.get(status)
    if counter is None:
        counter = shared_registry().counter("server.robots_serves", status=status)
        _ROBOTS_COUNTERS[status] = counter
    counter.inc()


def render_page(
    title: str,
    paragraphs: Iterable[str] = (),
    links: Iterable[str] = (),
    images: Iterable[str] = (),
    meta_robots: Optional[str] = None,
) -> str:
    """Render a simple HTML page with the given links and images.

    Args:
        meta_robots: Content for a ``<meta name="robots">`` tag, e.g.
            ``"noai, noimageai"`` for the DeviantArt-style opt-out tags.
    """
    head = [f"<title>{title}</title>"]
    if meta_robots:
        head.append(f'<meta name="robots" content="{meta_robots}">')
    body = [f"<h1>{title}</h1>"]
    for text in paragraphs:
        body.append(f"<p>{text}</p>")
    for src in images:
        body.append(f'<img src="{src}" alt="">')
    for href in links:
        body.append(f'<a href="{href}">{href}</a>')
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        + "\n".join(head)
        + "\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


def extract_links(html: str) -> List[str]:
    """All ``href`` targets in *html*, in document order."""
    return _HREF_RE.findall(html)


@dataclass
class Page:
    """One page of a website.

    Attributes:
        body: HTML content.
        content_type: MIME type served.
        status: Status code served for this path (normally 200).
    """

    body: str
    content_type: str = "text/html; charset=utf-8"
    status: int = 200


class Website:
    """An origin web server for one hostname.

    >>> site = Website("example.com")
    >>> site.add_page("/", render_page("Home", links=["/about"]))
    >>> site.set_robots_txt("User-agent: *\\nDisallow: /private/")
    >>> site.handle(Request(host="example.com", path="/")).status
    200
    """

    def __init__(self, host: str):
        self.host = host
        self.pages: Dict[str, Page] = {}
        self._robots_txt: Optional[str] = None
        #: The host's one request log; proxies in front of this site
        #: adopt it, so every request lands here once.
        self.access_log = AccessLog()
        #: When set, every request is answered with a 301 to the same
        #: path on this host (e.g. apex -> www).  Common Crawl's crawler
        #: does not follow these (Appendix B.1).
        self.redirect_to_host: Optional[str] = None
        #: Clock for log entries; tests and drivers may set it directly.
        self.now: float = 0.0
        #: Site category (stamped by :meth:`SimSite.build_origin`); the
        #: ``site_category`` label on the ``sim.requests`` series.
        self.category: str = ""

    # -- content management -------------------------------------------------

    @classmethod
    def from_directory(cls, root, host: str = "localhost") -> "Website":
        """Build a website from files under *root*.

        Each file becomes a page at its relative path; ``index.html``
        files also serve their directory path; a ``robots.txt`` at the
        root is installed as the robots policy.  Content types are
        guessed from extensions.
        """
        import mimetypes
        import pathlib

        root = pathlib.Path(root)
        site = cls(host)
        for path in sorted(root.rglob("*")):
            if not path.is_file():
                continue
            rel = "/" + path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            if rel == "/robots.txt":
                site.set_robots_txt(text)
                continue
            content_type = (
                mimetypes.guess_type(path.name)[0] or "application/octet-stream"
            )
            if content_type.startswith("text/") or content_type.endswith(("xml", "json")):
                content_type += "; charset=utf-8"
            site.add_page(rel, text, content_type=content_type)
            if path.name == "index.html":
                directory = rel[: -len("index.html")] or "/"
                site.add_page(directory.rstrip("/") or "/", text)
        return site

    def add_page(self, path: str, body: str, content_type: str = "text/html; charset=utf-8") -> None:
        """Register a page at *path*."""
        if not path.startswith("/"):
            raise ValueError(f"page path must start with '/': {path!r}")
        self.pages[path] = Page(body=body, content_type=content_type)

    def set_robots_txt(self, text: Optional[str]) -> None:
        """Set (or remove, with None) the robots.txt file."""
        self._robots_txt = text

    @property
    def robots_txt(self) -> Optional[str]:
        """Current robots.txt content, or None when absent."""
        return self._robots_txt

    def paths(self) -> List[str]:
        """All registered page paths, sorted."""
        return sorted(self.pages)

    def page(self, path: str) -> Optional[Page]:
        """The page served at *path*, or None (a 404).  A subclass may
        render it on request instead of storing it in :attr:`pages`."""
        return self.pages.get(path)

    # -- request handling ---------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Serve one request and log it."""
        response = self._respond(request)
        if metrics_enabled() and request.path_only == "/robots.txt":
            _count_robots_serve(response.status)
        self.access_log.append(
            LogEntry(
                timestamp=self.now,
                client_ip=request.client_ip,
                path=request.path,
                status=response.status,
                user_agent=request.user_agent,
                host=self.host,
                month=current_month(),
                outcome="served" if response.status < 400 else "not_found",
                category=self.category,
            )
        )
        return response

    @staticmethod
    def _etag_for(text: str) -> str:
        import hashlib

        return '"' + hashlib.sha1(text.encode("utf-8")).hexdigest()[:16] + '"'

    def _respond(self, request: Request) -> Response:
        if self.redirect_to_host and self.redirect_to_host != request.host:
            location = f"{request.scheme}://{self.redirect_to_host}{request.path}"
            return Response(
                status=301,
                headers=Headers({"Location": location}),
                body=b"",
                url=request.url,
            )
        path = request.path_only
        if path == "/robots.txt":
            if self._robots_txt is None:
                return Response(status=404, body="not found", url=request.url)
            etag = self._etag_for(self._robots_txt)
            # Conditional revalidation: crawlers that cached robots.txt
            # can cheaply confirm freshness with If-None-Match.
            if request.headers.get("If-None-Match") == etag:
                return Response(
                    status=304,
                    body=b"",
                    headers=Headers({"ETag": etag}),
                    url=request.url,
                )
            return Response(
                status=200,
                body=self._robots_txt,
                headers=Headers(
                    {"Content-Type": "text/plain; charset=utf-8", "ETag": etag}
                ),
                url=request.url,
            )
        page = self.page(path)
        if page is None:
            return Response(status=404, body="<h1>404 Not Found</h1>", url=request.url)
        body = b"" if request.method == "HEAD" else page.body
        return Response(
            status=page.status,
            body=body,
            headers=Headers({"Content-Type": page.content_type}),
            url=request.url,
        )
