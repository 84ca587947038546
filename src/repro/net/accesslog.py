"""Server access logs.

The Section 5 testbed decides crawler compliance entirely from server
logs: which user agents arrived, from which IPs, whether robots.txt was
fetched before content, and which paths were retrieved.  This module
provides the log record and an appendable log with the query helpers
that analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..obs.metrics import MetricsRegistry, metrics_enabled, shared_registry
from ..obs.series import SeriesRegistry, shared_series

__all__ = [
    "LogEntry",
    "AccessLog",
    "agent_label",
    "reset_agent_label_memo",
    "record_sim_request",
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


def record_sim_request(
    user_agent: str,
    outcome: str,
    category: str,
    month: int,
    host: str = "",
    path: str = "",
    status: int = 0,
    ticks: int = 0,
) -> None:
    """Record one simulated request: ``sim.requests`` series + wide event.

    Shared by the origin server (``served`` / ``not_found``) and the
    proxy layers (``blocked_403`` / ``challenged`` / ``decoy`` /
    ``reset``), so every request lands in the operator-view matrix --
    and the installed log sink -- exactly once, at the layer that
    terminated it.  The series half is gated on :func:`metrics_enabled`;
    the wide event fires whenever a sink is installed.  *ticks* is the
    simulated wall clock in milliseconds (see
    :func:`repro.net.logstore.clock_ticks`).
    """
    sink = _LOG_SINK
    if sink is None and not metrics_enabled():
        return
    agent = agent_label(user_agent)
    if metrics_enabled():
        handle_key = (agent, outcome, category)
        series = _SIM_REQUEST_SERIES.get(handle_key)
        if series is None:
            series = shared_series().series(
                "sim.requests",
                agent=agent,
                outcome=outcome,
                site_category=category or "uncategorized",
            )
            _SIM_REQUEST_SERIES[handle_key] = series
        series.add(month)
    if sink is not None:
        sink.emit(
            host,
            path,
            user_agent,
            agent,
            outcome,
            category or "uncategorized",
            month,
            status,
            ticks,
            path.split("?", 1)[0] == "/robots.txt",
        )


@dataclass(frozen=True)
class LogEntry:
    """One logged request.

    Attributes:
        timestamp: Simulation time (seconds since epoch-of-run; the unit
            only needs to be monotonic and comparable).
        client_ip: Source address.
        method: HTTP method.
        path: Request path including query.
        status: Response status sent.
        body_bytes: Response body size.
        user_agent: The request's User-Agent header.
        host: The virtual host that served the request.
        seq: Monotonic per-log sequence number, stamped by
            :meth:`AccessLog.append` (-1 while unattached).  Simulation
            timestamps tie constantly (many fetches share one logical
            month), so parallel analysis passes sort on ``(timestamp,
            seq)`` for a deterministic order.
        month: Simulated-month index (the logical clock spans and
            series use) at which the request was served; -1 when the
            serving handler was never clocked.
    """

    timestamp: float
    client_ip: str
    method: str
    path: str
    status: int
    body_bytes: int
    user_agent: str
    host: str = ""
    seq: int = -1
    month: int = -1

    @property
    def is_robots_fetch(self) -> bool:
        """Whether this entry is a robots.txt retrieval."""
        return self.path.split("?", 1)[0] == "/robots.txt"


class AccessLog:
    """An append-only request log with the queries analysis needs."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._next_seq = 0

    def append(self, entry: LogEntry) -> None:
        """Record one request, stamping its sequence number.

        Entries arriving with the default ``seq=-1`` get the log's next
        monotonic sequence number; pre-stamped entries (e.g. replayed
        from another log) keep theirs.
        """
        if entry.seq < 0:
            # The one sanctioned mutation of the frozen record: stamping
            # arrival order at the single append point.
            object.__setattr__(entry, "seq", self._next_seq)
        self._next_seq += 1
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def clear(self) -> None:
        """Drop all entries (sequence numbering restarts at zero)."""
        self._entries.clear()
        self._next_seq = 0

    def entries(
        self,
        user_agent_contains: Optional[str] = None,
        path: Optional[str] = None,
        predicate: Optional[Callable[[LogEntry], bool]] = None,
    ) -> List[LogEntry]:
        """Entries filtered by substring-of-UA, exact path, and predicate."""
        out = []
        for entry in self._entries:
            if user_agent_contains is not None and (
                user_agent_contains.lower() not in entry.user_agent.lower()
            ):
                continue
            if path is not None and entry.path.split("?", 1)[0] != path:
                continue
            if predicate is not None and not predicate(entry):
                continue
            out.append(entry)
        return out

    def user_agents_seen(self) -> List[str]:
        """Distinct user agents in arrival order."""
        seen: List[str] = []
        for entry in self._entries:
            if entry.user_agent not in seen:
                seen.append(entry.user_agent)
        return seen

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

    def ips_for(self, user_agent_contains: str) -> List[str]:
        """Distinct client IPs for a UA, in arrival order."""
        seen: List[str] = []
        for entry in self.entries(user_agent_contains=user_agent_contains):
            if entry.client_ip not in seen:
                seen.append(entry.client_ip)
        return seen

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-user-agent request and robots-fetch counts.

        Returns ``{user_agent: {"requests": n, "robots_fetches": n}}``
        in first-seen order -- the per-agent provenance the compliance
        analysis derives its verdicts from.
        """
        out: Dict[str, Dict[str, int]] = {}
        for entry in self._entries:
            counts = out.get(entry.user_agent)
            if counts is None:
                counts = {"requests": 0, "robots_fetches": 0}
                out[entry.user_agent] = counts
            counts["requests"] += 1
            if entry.is_robots_fetch:
                counts["robots_fetches"] += 1
        return out

    def monthly_summary(
        self, fill_gaps: bool = True
    ) -> Dict[str, Dict[int, Dict[str, int]]]:
        """Month-bucketed per-agent rollup of this log.

        Returns ``{agent_label: {month: {"requests": n,
        "robots_fetches": n, "blocked": n}}}`` with agents normalized
        through :func:`agent_label` and months ascending -- the same
        nested shape ``repro dashboard`` renders from ``SERIES.json``,
        so one renderer serves both sources.  ``blocked`` counts 403
        responses.

        With *fill_gaps* (the default) every agent carries an explicit
        zero-count entry for each month inside the log's observed
        month range, so consumers sampling the rollup -- series
        exports, dashboards -- see a contiguous axis rather
        than holes that are ambiguous between "no traffic" and "not
        yet sampled".  The unclocked ``-1`` bucket is never filled:
        it marks entries recorded outside any simulated month, not a
        month on the axis.  (Zero-count months feed
        :class:`~repro.obs.series.Series` as zero-amount adds, which
        record nothing -- SERIES.json bytes are unchanged.)
        """
        out: Dict[str, Dict[int, Dict[str, int]]] = {}
        for entry in self._entries:
            agent = agent_label(entry.user_agent)
            months = out.setdefault(agent, {})
            counts = months.get(entry.month)
            if counts is None:
                counts = {"requests": 0, "robots_fetches": 0, "blocked": 0}
                months[entry.month] = counts
            counts["requests"] += 1
            if entry.is_robots_fetch:
                counts["robots_fetches"] += 1
            if entry.status == 403:
                counts["blocked"] += 1
        if fill_gaps:
            clocked = [
                month
                for months in out.values()
                for month in months
                if month >= 0
            ]
            if clocked:
                axis = range(min(clocked), max(clocked) + 1)
                for months in out.values():
                    for month in axis:
                        months.setdefault(
                            month,
                            {"requests": 0, "robots_fetches": 0, "blocked": 0},
                        )
        return {
            agent: dict(sorted(months.items())) for agent, months in out.items()
        }

    def publish(
        self,
        registry: Optional[MetricsRegistry] = None,
        site: str = "",
        series: Optional[SeriesRegistry] = None,
    ) -> None:
        """Feed :meth:`summary` into a metrics registry as counters.

        Counters: ``accesslog.requests{agent=...}`` and
        ``accesslog.robots_fetches{agent=...}`` (plus ``site=`` when
        given).  The :meth:`monthly_summary` rollup additionally feeds
        the ``accesslog.requests`` *series* per month.  Call once per
        measurement window; repeated calls add.
        """
        if not metrics_enabled():
            return
        registry = registry if registry is not None else shared_registry()
        for user_agent, counts in self.summary().items():
            labels = {"agent": user_agent}
            if site:
                labels["site"] = site
            registry.inc("accesslog.requests", counts["requests"], **labels)
            if counts["robots_fetches"]:
                registry.inc(
                    "accesslog.robots_fetches", counts["robots_fetches"], **labels
                )
        series = series if series is not None else shared_series()
        for agent, months in self.monthly_summary().items():
            labels = {"agent": agent}
            if site:
                labels["site"] = site
            for month, counts in months.items():
                series.add(
                    "accesslog.requests", month, counts["requests"], **labels
                )

