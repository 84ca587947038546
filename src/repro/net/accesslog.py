"""Server access logs: the one record of each simulated request.

The Section 5 testbed decides crawler compliance entirely from server
logs: which user agents arrived, from which IPs, whether robots.txt was
fetched before content, and which paths were retrieved.  This module
provides the log record and an appendable log with the query helpers
that analysis needs.

:meth:`AccessLog.append` is the one call that records a request.  Each
host has one log (a proxy adopts its origin's), and the layer that
terminates a request appends it there once.  The ``sim.requests``
series and the installed wide-event sink are projections of that
append, not separate records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..obs.metrics import metrics_enabled, shared_registry

__all__ = [
    "LogEntry",
    "AccessLog",
    "agent_label",
    "reset_agent_label_memo",
    "set_log_sink",
    "active_log_sink",
]

#: Lowered token -> canonical label, in registry order (first match wins).
_AGENT_TOKEN_TABLE = tuple(
    (token.lower(), token) for token in AI_USER_AGENT_TOKENS
)

#: Memo of raw UA string -> canonical label.  Bounded: synthetic UAs in
#: the simulation repeat across runs, but a cap keeps adversarial
#: cardinality (random UA suffixes) from growing the dict forever.
_AGENT_LABEL_MEMO: Dict[str, str] = {}
_AGENT_LABEL_MEMO_CAP = 8192


def agent_label(user_agent: str) -> str:
    """Normalize a raw User-Agent into the bounded agent vocabulary.

    Returns the canonical Table 1 crawler token whose name appears in
    the UA (case-insensitive substring, registry order), or ``"other"``
    -- the label normalization that keeps series cardinality bounded.
    """
    label = _AGENT_LABEL_MEMO.get(user_agent)
    if label is None:
        lowered = user_agent.lower()
        label = "other"
        for token_lower, token in _AGENT_TOKEN_TABLE:
            if token_lower in lowered:
                label = token
                break
        if len(_AGENT_LABEL_MEMO) < _AGENT_LABEL_MEMO_CAP:
            _AGENT_LABEL_MEMO[user_agent] = label
    return label


def clock_ticks(now: float) -> int:
    """Millisecond ticks on the simulated wall clock (never negative).

    The wide-event ``ticks`` column stores these: integral, monotonic
    per handler, and deterministic because every experiment/collection
    unit drives its own :class:`~repro.net.transport.Network` clock.
    """
    ticks = int(round(now * 1000))
    return ticks if ticks > 0 else 0


def reset_agent_label_memo() -> None:
    """Clear the process-wide UA->label memo and series-handle cache.

    Test fixtures that reset the shared registries must call this too:
    the memo caps cardinality per *process*, so UAs interned by one
    test would otherwise shadow a later test's view, and cached series
    handles would keep feeding registries that were already reset.
    """
    _AGENT_LABEL_MEMO.clear()
    _SIM_REQUEST_SERIES.clear()


#: ``(agent, outcome, category)`` -> series handle, cached because the
#: request path is hot and registry probes cost a sorted-tuple build.
_SIM_REQUEST_SERIES: Dict[tuple, object] = {}

#: The installed wide-event sink (duck-typed ``emit(...)``; normally a
#: :class:`repro.net.logstore.LogSink`).  Module-global like the shared
#: registries: the request path cannot thread a handle through every
#: server/proxy layer.
_LOG_SINK = None


def set_log_sink(sink):
    """Install *sink* as the process-wide wide-event sink.

    Returns the previously installed sink (or None) so callers can
    restore it.
    """
    global _LOG_SINK
    previous = _LOG_SINK
    _LOG_SINK = sink
    return previous


def active_log_sink():
    """The currently installed wide-event sink, or None."""
    return _LOG_SINK


@dataclass(frozen=True)
class LogEntry:
    """One logged request.

    Attributes:
        timestamp: Simulation time (seconds since epoch-of-run; the unit
            only needs to be monotonic and comparable).  The wide
            event's ``ticks`` are its milliseconds (:func:`clock_ticks`).
        client_ip: Source address.
        path: Request path including query.
        status: Response status sent (0 for a reset connection, which
            never produces a response).
        user_agent: The request's User-Agent header.
        host: The virtual host the request was addressed to.
        month: Simulated-month index (the logical clock spans and
            series use) at which the request was served; -1 when the
            serving handler was never clocked.
        outcome: What the client experienced, in the ``sim.requests``
            vocabulary: ``served``/``not_found`` at the origin;
            ``blocked_403``/``challenged``/``throttled`` at a proxy.
        category: The site's category; ``""`` projects as
            ``uncategorized``.
    """

    timestamp: float
    client_ip: str
    path: str
    status: int
    user_agent: str
    host: str = ""
    month: int = -1
    outcome: str = ""
    category: str = ""

    @property
    def is_robots_fetch(self) -> bool:
        """Whether this entry is a robots.txt retrieval."""
        return self.path.split("?", 1)[0] == "/robots.txt"


class AccessLog:
    """One host's append-only request log, in arrival order."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def append(self, entry: LogEntry) -> None:
        """Record one simulated request.

        Keeps *entry*, adds it to the ``sim.requests`` series when
        metrics are on, and emits it as a wide event to the installed
        log sink.  The layer that terminates a request calls this once,
        so the log, the series and the sink each see every request
        exactly once.
        """
        self._entries.append(entry)
        # Converted for every request, not only under a sink: the
        # LOG_OVERHEAD budget prices an installed sink as the label
        # lookup plus the emit.
        ticks = clock_ticks(entry.timestamp)
        sink = _LOG_SINK
        metrics_on = metrics_enabled()
        if sink is None and not metrics_on:
            return
        agent = agent_label(entry.user_agent)
        category = entry.category or "uncategorized"
        if metrics_on:
            handle_key = (agent, entry.outcome, category)
            series = _SIM_REQUEST_SERIES.get(handle_key)
            if series is None:
                series = shared_registry().series(
                    "sim.requests",
                    agent=agent,
                    outcome=entry.outcome,
                    site_category=category,
                )
                _SIM_REQUEST_SERIES[handle_key] = series
            series.add(entry.month)
        if sink is not None:
            sink.emit(
                entry.host,
                entry.path,
                entry.user_agent,
                agent,
                entry.outcome,
                category,
                entry.month,
                entry.status,
                ticks,
                entry.is_robots_fetch,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entries(self, user_agent_contains: Optional[str] = None) -> List[LogEntry]:
        """Entries whose User-Agent contains *user_agent_contains*.

        The match is a case-insensitive substring; None keeps every
        entry.
        """
        if user_agent_contains is None:
            return list(self._entries)
        needle = user_agent_contains.lower()
        return [e for e in self._entries if needle in e.user_agent.lower()]

    def fetched_robots(self, user_agent_contains: str) -> bool:
        """Whether any request matching the UA fetched /robots.txt."""
        return any(
            e.is_robots_fetch
            for e in self.entries(user_agent_contains=user_agent_contains)
        )

    def fetched_content(self, user_agent_contains: str) -> bool:
        """Whether any request matching the UA fetched a non-robots path."""
        return any(
            not e.is_robots_fetch
            for e in self.entries(user_agent_contains=user_agent_contains)
        )

    def content_paths(self, user_agent_contains: str) -> List[str]:
        """Non-robots paths fetched by requests matching the UA."""
        return [
            e.path
            for e in self.entries(user_agent_contains=user_agent_contains)
            if not e.is_robots_fetch
        ]
