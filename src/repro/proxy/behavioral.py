"""Behavioral bot detection: score traffic shape, not User-Agent strings.

UA-list blocking (Cloudflare's "Block AI Bots", Section 6) only stops
crawlers that *identify themselves*.  Real bot management scores
behavior -- request pacing, path structure, robots.txt discipline,
error probing, User-Agent churn ("Detecting Bot Detection", PAPERS.md)
-- which is also the only layer that can observe the *selective*
compliance Kim et al. 2025 document.  This module closes ROADMAP
item 3 on top of the PR-9 feature substrate:

* :class:`BehavioralScorer` turns one per-(agent, host) feature vector
  -- the exact vocabulary :func:`repro.obs.features.traffic_features`
  computes -- into a :class:`BehavioralVerdict` via deterministic
  integer signal weights and thresholds (no float accumulation, no RNG
  at score time, so verdicts are byte-identical in line and forked).
* :class:`BehavioralWindow` keeps a sliding window of the most recent
  requests, fed online with each request's final status by the proxy,
  and computes its features with that same function.
* :class:`BehavioralPolicy` keys windows by ``(agent label, host)``,
  grants each pair a seeded grace allowance (jittered per pair so every
  pair does not flip verdicts on the same request index), caches
  verdicts between rescore points to keep the hot path cheap, and
  tallies every verdict into the ``behavioral.verdicts{agent,verdict}``
  month series of the metrics registry.
* :func:`score_log_store` / :func:`write_verdicts` run the same scorer
  offline over a committed :class:`~repro.net.logstore.LogStore`,
  exporting a schema-versioned ``BEHAVIORAL.json`` next to
  ``FEATURES.json``.

The policy composes into :class:`~repro.proxy.reverse_proxy.ReverseProxy`
and :class:`~repro.proxy.cloudflare.CloudflareProxy` *ahead of* the
UA-list rules: a crawler that rotates its User-Agent past every list
still leaves a behavioral fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Deque, Dict, Mapping, Optional, Tuple, Union

from ..columnar import atomic_write
from ..net.accesslog import LogEntry, agent_label, clock_ticks
from ..obs.features import extract_features, traffic_features
from ..obs.metrics import metrics_enabled, shared_registry

if TYPE_CHECKING:  # annotation-only: net.logstore reaches back into proxy
    from ..net.logstore import LogStore

__all__ = [
    "BEHAVIORAL_SCHEMA_VERSION",
    "VERDICT_ALLOW",
    "VERDICT_THROTTLE",
    "VERDICT_CHALLENGE",
    "VERDICT_BLOCK",
    "BehavioralConfig",
    "BehavioralVerdict",
    "BehavioralScorer",
    "BehavioralWindow",
    "BehavioralPolicy",
    "score_log_store",
    "write_verdicts",
]

BEHAVIORAL_SCHEMA_VERSION = 1

#: Verdict vocabulary, in escalation order.
VERDICT_ALLOW = "allow"
VERDICT_THROTTLE = "throttle"
VERDICT_CHALLENGE = "challenge"
VERDICT_BLOCK = "block"


@dataclass(frozen=True)
class BehavioralConfig:
    """Tunables for the behavioral plane.

    Everything is integer-or-fixed-threshold so scoring is exactly
    reproducible; *seed* only feeds the per-(agent, host) grace jitter
    (a sha256 of ``seed|agent|host``), never a live RNG.

    Attributes:
        seed: Salt for the deterministic grace jitter.
        window: Sliding-window length (requests) per (agent, host).
        min_requests: Base grace allowance before any pair is scored;
            also the offline scorer's minimum sample size.
        grace_jitter: Per-pair grace is ``min_requests + sha256 %
            (grace_jitter + 1)`` so all pairs do not trip on the same
            request index.
        rescore_every: Cached verdicts are recomputed after this many
            new observations (amortizes the O(window) feature pass).
        fast_gap_ticks: Mean inter-request gap (simulated ms) below
            which pacing looks automated.
        broad_entropy_bits: Path entropy at or above which the client
            looks like a breadth-first crawler rather than a reader.
        robots_discipline: ``robots_before_content`` below this marks a
            client that takes content without ever consulting policy.
        max_error_ratio: Error ratio above this marks probing (or a
            client already being refused and not backing off).
        ua_churn_threshold: Distinct raw UA strings at or above this is
            rotation -- one logical client, many masks.
        weight_*: Integer score contributed by each tripped signal.
        throttle_at / challenge_at / block_at: Score thresholds for the
            escalating verdicts.
    """

    seed: int = 0
    window: int = 32
    min_requests: int = 6
    grace_jitter: int = 4
    rescore_every: int = 4
    fast_gap_ticks: int = 200
    broad_entropy_bits: float = 2.0
    robots_discipline: float = 0.5
    max_error_ratio: float = 0.3
    ua_churn_threshold: int = 2
    weight_pacing: int = 4
    weight_entropy: int = 2
    weight_robots: int = 2
    weight_errors: int = 2
    weight_churn: int = 4
    throttle_at: int = 4
    challenge_at: int = 6
    block_at: int = 9


@dataclass(frozen=True)
class BehavioralVerdict:
    """One scoring outcome: the verdict, its score, and why.

    ``signals`` names the tripped detectors (``"fast-pacing"``,
    ``"broad-crawl"``, ``"no-robots-discipline"``, ``"error-probing"``,
    ``"ua-churn"``) in a fixed evaluation order; a grace-period allow
    carries the single pseudo-signal ``"grace"``.
    """

    verdict: str
    score: int
    signals: Tuple[str, ...] = ()

    @property
    def gated(self) -> bool:
        """Whether this verdict stops the request at the proxy."""
        return self.verdict != VERDICT_ALLOW


#: Shared instance for the hot grace path: no allocation per request.
_GRACE_ALLOW = BehavioralVerdict(VERDICT_ALLOW, 0, ("grace",))


class BehavioralScorer:
    """Deterministic feature-vector -> verdict scoring.

    Operates on the FEATURES.json vocabulary, so the same instance
    scores offline :func:`~repro.obs.features.extract_features` output
    and online :meth:`BehavioralWindow.features` snapshots identically.
    """

    def __init__(self, config: Optional[BehavioralConfig] = None):
        self.config = config or BehavioralConfig()

    def score(self, features: Mapping[str, object]) -> BehavioralVerdict:
        """Score one per-(agent, host) feature vector."""
        cfg = self.config
        requests = features["requests"]
        if requests < cfg.min_requests:
            return _GRACE_ALLOW
        signals = []
        total = 0
        # gap_mean_ticks is 0.0 for single-request pairs, which is not
        # evidence of pacing; require at least one real gap.
        if requests >= 2 and features["gap_mean_ticks"] < cfg.fast_gap_ticks:
            signals.append("fast-pacing")
            total += cfg.weight_pacing
        if features["path_entropy_bits"] >= cfg.broad_entropy_bits:
            signals.append("broad-crawl")
            total += cfg.weight_entropy
        if features["robots_before_content"] < cfg.robots_discipline:
            signals.append("no-robots-discipline")
            total += cfg.weight_robots
        if features["error_ratio"] > cfg.max_error_ratio:
            signals.append("error-probing")
            total += cfg.weight_errors
        if features["ua_churn"] >= cfg.ua_churn_threshold:
            signals.append("ua-churn")
            total += cfg.weight_churn
        if total >= cfg.block_at:
            verdict = VERDICT_BLOCK
        elif total >= cfg.challenge_at:
            verdict = VERDICT_CHALLENGE
        elif total >= cfg.throttle_at:
            verdict = VERDICT_THROTTLE
        else:
            verdict = VERDICT_ALLOW
        return BehavioralVerdict(verdict, total, tuple(signals))


class BehavioralWindow:
    """Sliding window of one (agent, host) pair's most recent requests.

    ``observe`` cost is O(1) (deque append + evict); the O(window)
    feature pass runs only at :meth:`features` time, which the policy
    amortizes over ``rescore_every`` requests.  ``robots_ever`` is
    sticky beyond eviction, matching the offline semantics ("had the
    pair fetched robots.txt at least once"), so a long crawl does not
    lose its discipline credit when the robots fetch ages out.
    """

    __slots__ = ("size", "total", "_events", "_robots_ever")

    def __init__(self, size: int):
        self.size = size
        #: Lifetime observation count (grace + rescore bookkeeping).
        self.total = 0
        # Events in the :func:`~repro.obs.features.traffic_features`
        # shape, after_robots stamped at arrival so evicting the robots
        # fetch itself cannot rewrite history.
        self._events: Deque[tuple] = deque()
        self._robots_ever = False

    def add(
        self,
        ticks: int,
        path: str,
        user_agent: str,
        is_error: bool,
        is_robots: bool,
    ) -> None:
        """Record one request (evicting the oldest past the window)."""
        self.total += 1
        if is_robots:
            self._robots_ever = True
        events = self._events
        events.append(
            (ticks, path, user_agent, is_error, is_robots,
             self._robots_ever and not is_robots)
        )
        if len(events) > self.size:
            events.popleft()

    def __len__(self) -> int:
        return len(self._events)

    def features(self) -> Dict[str, object]:
        """The window's snapshot in the FEATURES.json vocabulary."""
        return traffic_features(self._events)


class BehavioralPolicy:
    """Online behavioral enforcement state for one proxy (or zone).

    The proxy calls :meth:`assess` at the top of ``handle`` (ahead of
    every UA-list rule) and :meth:`observe` once the request is
    answered, so windows see the request's *final* status --
    interstitials and throttles feed back into the error-ratio signal,
    which is what escalates a crawler that keeps hammering through
    refusals.

    Policies are plain per-proxy objects, never shared through cached
    world handlers: each experiment builds its own, which is what keeps
    verdicts identical in line and on forked workers.
    """

    def __init__(self, config: Optional[BehavioralConfig] = None):
        self.config = config or BehavioralConfig()
        self.scorer = BehavioralScorer(self.config)
        self._windows: Dict[Tuple[str, str], BehavioralWindow] = {}
        self._grace: Dict[Tuple[str, str], int] = {}
        self._cached: Dict[Tuple[str, str], Tuple[BehavioralVerdict, int]] = {}
        #: verdict -> count over every assessment this policy made.
        self.verdict_counts: Dict[str, int] = {}
        #: (agent label, verdict) -> count, the equilibrium matrix axis.
        self.agent_verdicts: Dict[Tuple[str, str], int] = {}
        self._series: Dict[Tuple[str, str], object] = {}

    # -- grace ---------------------------------------------------------------

    def _grace_threshold(self, agent: str, host: str) -> int:
        """Seeded, per-pair grace allowance (cached after first probe)."""
        key = (agent, host)
        grace = self._grace.get(key)
        if grace is None:
            digest = hashlib.sha256(
                f"{self.config.seed}|{agent}|{host}".encode("utf-8")
            ).hexdigest()
            grace = self.config.min_requests + (
                int(digest[:8], 16) % (self.config.grace_jitter + 1)
            )
            self._grace[key] = grace
        return grace

    # -- the two proxy hooks -------------------------------------------------

    def assess(
        self, user_agent: str, host: str, month: int = -1
    ) -> BehavioralVerdict:
        """Verdict for one incoming request, before it is served.

        Cheap by construction: within the grace allowance it is two
        dict probes; past it, the cached verdict is reused until
        ``rescore_every`` new observations have landed.
        """
        agent = agent_label(user_agent)
        key = (agent, host)
        window = self._windows.get(key)
        if window is None or window.total < self._grace_threshold(agent, host):
            verdict = _GRACE_ALLOW
        else:
            cached = self._cached.get(key)
            if (
                cached is not None
                and window.total - cached[1] < self.config.rescore_every
            ):
                verdict = cached[0]
            else:
                verdict = self.scorer.score(window.features())
                self._cached[key] = (verdict, window.total)
        self._tally(agent, verdict.verdict, month)
        return verdict

    def observe(self, entry: LogEntry) -> None:
        """Feed one finished request, with the status the proxy returned."""
        agent = agent_label(entry.user_agent)
        key = (agent, entry.host)
        window = self._windows.get(key)
        if window is None:
            window = BehavioralWindow(self.config.window)
            self._windows[key] = window
        window.add(
            clock_ticks(entry.timestamp),
            entry.path,
            entry.user_agent,
            entry.status >= 400,
            entry.is_robots_fetch,
        )

    def _tally(self, agent: str, verdict: str, month: int) -> None:
        self.verdict_counts[verdict] = self.verdict_counts.get(verdict, 0) + 1
        key = (agent, verdict)
        self.agent_verdicts[key] = self.agent_verdicts.get(key, 0) + 1
        if metrics_enabled():
            series = self._series.get(key)
            if series is None:
                series = shared_registry().series(
                    "behavioral.verdicts", agent=agent, verdict=verdict
                )
                self._series[key] = series
            series.add(month)

    # -- equilibrium accounting ----------------------------------------------

    def assessed(self) -> int:
        """Total requests this policy has assessed."""
        return sum(self.verdict_counts.values())

    def gated(self) -> int:
        """Assessments that stopped the request (any non-allow verdict)."""
        return sum(
            count
            for verdict, count in self.verdict_counts.items()
            if verdict != VERDICT_ALLOW
        )

    def detection_rate(self) -> float:
        """Fraction of assessed requests that were gated."""
        assessed = self.assessed()
        return self.gated() / assessed if assessed else 0.0

    def summary(self) -> Dict[str, int]:
        """``{verdict: count}``, verdicts sorted."""
        return dict(sorted(self.verdict_counts.items()))


# -- offline scoring over a committed log store ------------------------------


def score_log_store(
    store: LogStore, config: Optional[BehavioralConfig] = None
) -> Dict[str, Dict[str, BehavioralVerdict]]:
    """Score every (agent, host) pair in a committed store.

    Returns ``{agent: {host: BehavioralVerdict}}`` with both key levels
    sorted (inherited from :func:`extract_features`).
    """
    scorer = BehavioralScorer(config)
    return {
        agent: {host: scorer.score(vector) for host, vector in hosts.items()}
        for agent, hosts in extract_features(store).items()
    }


def write_verdicts(store: LogStore, path: Union[str, Path]) -> Path:
    """Write the schema-versioned ``BEHAVIORAL.json`` verdict export,
    scored at the default :class:`BehavioralConfig`.

    Deterministic bytes for a given store (sorted keys, fixed rounding
    upstream); written atomically like FEATURES.json.
    """
    config = BehavioralConfig()
    path = Path(path)
    verdicts: Dict[str, Dict[str, Dict[str, object]]] = {}
    summary: Dict[str, int] = {}
    for agent, hosts in score_log_store(store, config).items():
        verdicts[agent] = {}
        for host, verdict in hosts.items():
            verdicts[agent][host] = {
                "verdict": verdict.verdict,
                "score": verdict.score,
                "signals": list(verdict.signals),
            }
            summary[verdict.verdict] = summary.get(verdict.verdict, 0) + 1
    payload = {
        "schema_version": BEHAVIORAL_SCHEMA_VERSION,
        "config_digest": store.config_digest,
        "n_records": store.n_records,
        "thresholds": {
            "throttle_at": config.throttle_at,
            "challenge_at": config.challenge_at,
            "block_at": config.block_at,
        },
        "summary": dict(sorted(summary.items())),
        "verdicts": verdicts,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
