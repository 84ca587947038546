"""HTTP message model shared by the in-memory and real-socket stacks.

The measurement pipelines in this project care about exactly the
observable surface the paper's methodology uses: status codes (after
redirects), response body length, response body content (for block-page
detection), and the request's user agent and source IP.  The model here
carries that surface and nothing speculative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = ["Headers", "Request", "Response"]


class Headers:
    """Case-insensitive HTTP header collection preserving original names.

    >>> headers = Headers({"User-Agent": "GPTBot/1.1"})
    >>> headers["user-agent"]
    'GPTBot/1.1'
    """

    def __init__(self, items: Optional[Mapping[str, str]] = None):
        self._items: Dict[str, Tuple[str, str]] = {}
        if items:
            for name, value in items.items():
                self[name] = value

    def __setitem__(self, name: str, value: str) -> None:
        self._items[name.lower()] = (name, str(value))

    def __getitem__(self, name: str) -> str:
        return self._items[name.lower()][1]

    def __delitem__(self, name: str) -> None:
        del self._items[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._items

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return dict(self.lower_items()) == dict(other.lower_items())

    def __repr__(self) -> str:
        return f"Headers({dict(self)!r})"

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Value for *name* or *default*."""
        entry = self._items.get(name.lower())
        return entry[1] if entry else default

    def lower_items(self) -> Iterator[Tuple[str, str]]:
        """Iterate ``(lowercased-name, value)`` pairs."""
        for key, (_, value) in self._items.items():
            yield key, value


@dataclass
class Request:
    """One HTTP request.

    Attributes:
        host: Target hostname (virtual-host routing key).
        path: Path plus optional query string, starting with ``/``.
        method: HTTP method; the crawlers here use GET and HEAD.
        headers: Request headers; ``User-Agent`` is the one that matters.
        client_ip: Source address as dotted quad, used by IP-based
            blocking and verified-bot validation.
        scheme: ``https`` by default.
    """

    host: str
    path: str = "/"
    method: str = "GET"
    headers: Headers = field(default_factory=Headers)
    client_ip: str = "198.51.100.1"
    scheme: str = "https"

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            self.path = "/" + self.path
        if isinstance(self.headers, dict):
            self.headers = Headers(self.headers)

    @property
    def user_agent(self) -> str:
        """The ``User-Agent`` header, or ``""`` when absent."""
        return self.headers.get("User-Agent", "")

    @property
    def url(self) -> str:
        """The absolute URL of this request."""
        return f"{self.scheme}://{self.host}{self.path}"

    @property
    def path_only(self) -> str:
        """Path without the query string."""
        return self.path.split("?", 1)[0]


@dataclass
class Response:
    """One HTTP response.

    Attributes:
        status: Numeric status code.
        body: Response body.  Stored as bytes; string bodies are
            UTF-8-encoded on construction.
        headers: Response headers.
        url: The final URL that produced this response (after any
            redirects followed by the client).
    """

    status: int = 200
    body: Union[bytes, str] = b""
    headers: Headers = field(default_factory=Headers)
    url: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.body, str):
            self.body = self.body.encode("utf-8")
        if isinstance(self.headers, dict):
            self.headers = Headers(self.headers)

    @property
    def ok(self) -> bool:
        """Whether the status is a 2xx success."""
        return 200 <= self.status < 300

    @property
    def text(self) -> str:
        """Body decoded as UTF-8 (replacement on errors)."""
        assert isinstance(self.body, bytes)
        return self.body.decode("utf-8", errors="replace")

    @property
    def content_length(self) -> int:
        """Body length in bytes (the block-page detection feature)."""
        assert isinstance(self.body, bytes)
        return len(self.body)
