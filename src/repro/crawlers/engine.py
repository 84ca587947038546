"""The crawl engine: frontier management plus robots.txt discipline.

:class:`Crawler` executes crawls for one :class:`CrawlerProfile` over a
:class:`~repro.net.transport.Network`.  The engine implements the full
observable protocol surface the Section 5 testbed measures:

* whether and when robots.txt is requested (including wrong-path
  fetches by buggy crawlers),
* whether directives are obeyed per fetch,
* robots.txt caching with a TTL (stale-cache crawlers keep using old
  rules after the file changes),
* Crawl-delay politeness, charged to the simulated clock by pacing
  crawlers,
* BFS link discovery from returned HTML with a page budget.

All state a measurement would see ends up in the *server's* access
logs; the crawler additionally reports a :class:`CrawlResult` for
driver convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..core.compiled import shared_policy_cache
from ..core.policy import RobotsPolicy
from ..net.errors import NetError
from ..net.http import Headers, Request, Response
from ..net.server import extract_links
from ..net.transport import Network
from ..obs.metrics import shared_registry
from .profiles import CrawlerProfile, RobotsBehavior

__all__ = ["CrawlResult", "Crawler"]

#: The synthetic policy for unreachable robots.txt (RFC 9309 2.3.1),
#: parsed once for the whole fleet.
_DISALLOW_ALL = RobotsPolicy("User-agent: *\nDisallow: /")

#: Tokens that get their own metric label.  Anything else (e.g. the
#: thousands of synthetic GPT-store app bots) is bucketed under
#: ``other`` so label cardinality stays bounded by the Table 1 roster.
_KNOWN_AGENT_LABELS = frozenset(AI_USER_AGENT_TOKENS)


@dataclass
class CrawlResult:
    """Outcome of one crawl of one host.

    Attributes:
        host: Crawled hostname.
        fetched: Paths fetched with their response status, in order.
        robots_fetched: Whether a (correct-path) robots.txt request was
            made during this crawl (a cached policy may have been used
            instead -- see ``robots_from_cache``).
        robots_from_cache: Whether the policy came from the crawler's
            cache rather than a fresh fetch.
        skipped: Paths the crawler declined to fetch because of
            robots.txt.
        errors: Transport errors encountered, as strings.
    """

    host: str
    fetched: List[Tuple[str, int]] = field(default_factory=list)
    robots_fetched: bool = False
    robots_from_cache: bool = False
    skipped: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def content_fetches(self) -> List[str]:
        """Paths of non-robots fetches.

        Only the exact ``/robots.txt`` path is the policy file; lookalike
        paths (``/robots.txt.bak``, ``/robots.txt2``) are ordinary
        content a crawler fetched and must stay in this list.
        """
        return [path for path, _ in self.fetched if path != "/robots.txt"]


@dataclass
class _CacheEntry:
    policy: Optional[RobotsPolicy]
    fetched_at: float


class Crawler:
    """A crawler instance bound to one profile and one network.

    >>> # Crawl flow is exercised in tests/crawlers/test_engine.py.
    """

    def __init__(self, profile: CrawlerProfile, network: Network):
        self.profile = profile
        self.network = network
        self._robots_cache: Dict[str, _CacheEntry] = {}
        self._crawl_count: Dict[str, int] = {}
        # Lifetime request index; drives round-robin UA/IP rotation for
        # adversarial profiles (a plain attribute read otherwise).
        self._requests_sent = 0
        # Counter handles are resolved once per crawler; each increment
        # on the crawl hot path is then a bool check plus an add.
        agent = profile.token if profile.token in _KNOWN_AGENT_LABELS else "other"
        registry = shared_registry()
        self._fetches_counter = registry.counter("crawler.fetches", agent=agent)
        self._robots_fetch_counter = registry.counter(
            "crawler.robots_fetches", agent=agent
        )
        self._robots_cached_counter = registry.counter(
            "crawler.robots_cache_hits", agent=agent
        )
        self._allow_counter = registry.counter(
            "crawler.robots_decisions", agent=agent, decision="allow"
        )
        self._deny_counter = registry.counter(
            "crawler.robots_decisions", agent=agent, decision="deny"
        )
        # Crawler-side time series on the simulated-month clock: what
        # each agent attempted vs what robots.txt denied it.  Only the
        # crawler can record ``robots_disallowed`` -- a skipped fetch
        # never reaches the server.
        self._fetched_series = registry.series(
            "crawl.requests", agent=agent, outcome="fetched"
        )
        self._denied_series = registry.series(
            "crawl.requests", agent=agent, outcome="robots_disallowed"
        )
        self._error_series = registry.series(
            "crawl.requests", agent=agent, outcome="error"
        )

    # -- plumbing -------------------------------------------------------------

    def _request(self, host: str, path: str) -> Response:
        index = self._requests_sent
        self._requests_sent += 1
        return self.network.request(
            Request(
                host=host,
                path=path,
                headers=Headers({"User-Agent": self.profile.user_agent_for(index)}),
                client_ip=self.profile.source_ip_for(index),
            )
        )

    @property
    def now(self) -> float:
        """Simulation clock (delegates to the network)."""
        return self.network.now

    # -- robots.txt discipline --------------------------------------------------

    def _load_policy(self, host: str, result: CrawlResult) -> Optional[RobotsPolicy]:
        """Fetch/cache robots.txt per the profile's behavior.

        Returns the policy to obey, or None when the crawler either has
        no policy (404, transport error) or does not obey one.
        """
        behavior = self.profile.behavior

        if behavior is RobotsBehavior.NO_FETCH:
            return None

        if behavior is RobotsBehavior.BUGGY_FETCH:
            # Request the wrong path; whatever comes back is not a
            # usable policy, and the crawler proceeds unconstrained.
            try:
                self._request(host, self.profile.buggy_robots_path)
            except NetError as exc:
                result.errors.append(str(exc))
            return None

        if behavior is RobotsBehavior.INTERMITTENT_FETCH:
            count = self._crawl_count.get(host, 0)
            if count % self.profile.intermittent_period != 0:
                cached = self._robots_cache.get(host)
                if cached is not None:
                    result.robots_from_cache = True
                    self._robots_cached_counter.inc()
                    return cached.policy
                return None

        cached = self._robots_cache.get(host)
        if cached is not None and self.profile.robots_cache_ttl > 0:
            age = self.now - cached.fetched_at
            if age < self.profile.robots_cache_ttl:
                result.robots_from_cache = True
                self._robots_cached_counter.inc()
                return cached.policy

        try:
            response = self._request(host, "/robots.txt")
        except NetError as exc:
            result.errors.append(str(exc))
            return None
        result.robots_fetched = True
        self._robots_fetch_counter.inc()
        result.fetched.append(("/robots.txt", response.status))
        # RFC 9309 section 2.3.1: a 4xx means "no policy, crawl freely";
        # a 5xx means robots.txt is *unreachable* and the crawler MUST
        # assume complete disallow.  (Actively-blocking sites that 403
        # the robots.txt fetch therefore keep obedient bots out.)
        policy: Optional[RobotsPolicy]
        if response.ok:
            # Content-addressed compile cache: every crawler in the
            # fleet shares one compiled policy per distinct body, the
            # same objects the analysis pipelines classify.
            policy = shared_policy_cache().policy(response.text)
        elif 500 <= response.status < 600 or response.status == 403:
            # 403 is formally a 4xx, but a server that refuses the
            # robots.txt request is refusing the crawler; production
            # crawlers treat it as unreachable.
            policy = _DISALLOW_ALL
        else:
            policy = None
        self._robots_cache[host] = _CacheEntry(policy=policy, fetched_at=self.now)
        return policy

    def _may_fetch(self, policy: Optional[RobotsPolicy], path: str) -> bool:
        if not self.profile.behavior.obeys:
            return True
        if policy is None:
            return True
        allowed = policy.is_allowed(self.profile.token, path)
        # Only genuine robots consultations count as decisions; bots
        # with no policy (or none they obey) never "decided" anything.
        (self._allow_counter if allowed else self._deny_counter).inc()
        if not allowed:
            self._denied_series.add(self.network.month)
        return allowed

    # -- public API ---------------------------------------------------------------

    def fetch(self, host: str, path: str) -> CrawlResult:
        """Fetch a single URL with full robots.txt discipline.

        This is the operation a user-triggered assistant crawler
        performs (Section 5.1's active measurement).
        """
        result = CrawlResult(host=host)
        self._crawl_count[host] = self._crawl_count.get(host, 0) + 1
        policy = self._load_policy(host, result)
        if not self._may_fetch(policy, path):
            result.skipped.append(path)
            return result
        try:
            response = self._request(host, path)
        except NetError as exc:
            result.errors.append(str(exc))
            self._error_series.add(self.network.month)
            return result
        # Booked only once a response exists: an errored attempt is not
        # a fetch, or crawler-side totals drift from the server-side
        # ``sim.requests`` series they must reconcile against.
        self._fetches_counter.inc()
        self._fetched_series.add(self.network.month)
        result.fetched.append((path, response.status))
        return result

    def crawl(self, host: str, max_pages: int = 10) -> CrawlResult:
        """BFS-crawl a host from ``/`` up to *max_pages* pages.

        A pacing profile (``paces_on_clock``) charges a politeness gap
        to the simulated clock before each content fetch after the
        first: its default fetch interval, or the ``Crawl-delay`` when
        it honors one that is longer, plus any seeded stealth jitter.
        """
        result = CrawlResult(host=host)
        self._crawl_count[host] = self._crawl_count.get(host, 0) + 1
        policy = self._load_policy(host, result)

        interval = self.profile.default_fetch_interval
        if self.profile.honors_crawl_delay and policy is not None:
            delay = policy.crawl_delay(self.profile.token)
            if delay is not None:
                interval = max(interval, delay)

        frontier: List[str] = ["/"]
        seen: Set[str] = set(frontier)
        fetched_pages = 0
        while frontier and fetched_pages < max_pages:
            path = frontier.pop(0)
            if not self._may_fetch(policy, path):
                result.skipped.append(path)
                continue
            if fetched_pages > 0 and self.profile.paces_on_clock:
                # The politeness gap before this fetch: the base interval
                # plus any seeded stealth jitter (zero for normal
                # profiles).  Pacing is only worth anything if the
                # *server* sees it: charge the gap to the simulated wall
                # clock, which is exactly the evasion cost the
                # equilibrium experiments measure.
                self.network.now += interval + self.profile.gap_jitter_seconds(
                    host, fetched_pages
                )
            try:
                response = self._request(host, path)
            except NetError as exc:
                result.errors.append(str(exc))
                self._error_series.add(self.network.month)
                continue
            self._fetches_counter.inc()
            self._fetched_series.add(self.network.month)
            result.fetched.append((path, response.status))
            fetched_pages += 1
            if response.ok and b"href" in response.body:
                for link in extract_links(response.text):
                    if not link.startswith("/"):
                        continue
                    if link not in seen:
                        seen.add(link)
                        frontier.append(link)
        return result

    def raw_fetch(self, host: str, path: str) -> Response:
        """One request with no robots.txt discipline at all.

        Exists for modeling protocol anomalies (e.g. ChatGPT-User's
        single unprompted visit that skipped robots.txt, Section 5.2.1)
        and for test instrumentation.  Normal crawling must go through
        :meth:`fetch` / :meth:`crawl`.
        """
        return self._request(host, path)
