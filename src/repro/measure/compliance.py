"""Section 5: do AI crawlers respect robots.txt?

Reproduces the paper's testbed methodology end to end:

* **Setup** -- two logged websites (Section 5.1): one whose robots.txt
  disallows all crawlers with a wildcard rule, one that disallows every
  AI user agent individually.
* **Passive measurement** -- the crawler fleet roams for six months;
  compliance per crawler is then *derived from the server logs alone*
  (did the UA fetch robots.txt? did it fetch content it was forbidden?).
* **Active measurement** -- built-in assistants and GPT-store apps are
  triggered against per-app probe URLs; third-party crawlers are merged
  by shared registered domain or source IP (union-find), then each
  merged crawler is classified.

The output is the machine-checkable form of Table 1's "Respect in
Practice" column plus the Section 5.2.2 third-party breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..agents.registry import Compliance
from ..core.compiled import shared_policy_cache
from ..core.serialize import RobotsBuilder
from ..crawlers.assistant import GptAppStore
from ..crawlers.fleet import FleetMember
from ..net.server import Website, render_page
from ..net.transport import Network

__all__ = [
    "WILDCARD_HOST",
    "PER_AGENT_HOST",
    "Testbed",
    "build_testbed",
    "run_passive_measurement",
    "PassiveObservation",
    "analyze_passive",
    "ActiveObservation",
    "run_active_measurement",
    "merge_third_party_crawlers",
    "classify_merged_crawler",
]

WILDCARD_HOST = "testbed-wildcard.example"
PER_AGENT_HOST = "testbed-peragent.example"

#: Times each browsing app is asked to fetch its probe URL.
TRIGGERS_PER_APP = 3


@dataclass
class Testbed:
    """The two measurement websites on a shared network."""

    network: Network
    wildcard_site: Website
    per_agent_site: Website


def build_testbed(agent_tokens: Sequence[str]) -> Testbed:
    """Create the two testbed sites (Section 5.1's experiment setup) on
    a fresh network."""
    network = Network()

    wildcard = Website(WILDCARD_HOST)
    _fill_pages(wildcard)
    wildcard_robots = RobotsBuilder().group("*").disallow("/").build()
    wildcard.set_robots_txt(wildcard_robots)

    per_agent = Website(PER_AGENT_HOST)
    _fill_pages(per_agent)
    builder = RobotsBuilder()
    for token in agent_tokens:
        builder.group(token).disallow("/")
    per_agent_robots = builder.build()
    per_agent.set_robots_txt(per_agent_robots)

    # Pre-warm the content-addressed compile cache: every obedient
    # crawler in the fleet will resolve these two bodies to the same
    # compiled policy objects the analysis layer uses.
    cache = shared_policy_cache()
    cache.policy(wildcard_robots)
    cache.policy(per_agent_robots)

    network.register(wildcard)
    network.register(per_agent)
    return Testbed(network=network, wildcard_site=wildcard, per_agent_site=per_agent)


def _fill_pages(site: Website) -> None:
    site.add_page(
        "/",
        render_page(
            "Research testbed",
            paragraphs=["Basic text content."],
            links=["/page1", "/page2"],
            images=["/img/photo.png"],
        ),
    )
    site.add_page("/page1", render_page("Page 1", links=["/page2"]))
    site.add_page("/page2", render_page("Page 2"))


# -- passive measurement --------------------------------------------------------


def run_passive_measurement(
    fleet: Dict[str, FleetMember], testbed: Testbed, months: int = 6
) -> None:
    """Let unprompted crawlers roam the testbed for *months* steps."""
    for step in range(months):
        testbed.network.now = float(step * 30 * 86400)
        testbed.network.month = step
        for member in fleet.values():
            if not member.visits_unprompted:
                continue
            if member.passive_quirk == "single-visit-no-robots":
                # ChatGPT-User's anomaly: exactly one visit in the whole
                # window, fetching content without consulting robots.txt.
                if step == 0:
                    member.crawler.raw_fetch(WILDCARD_HOST, "/")
                continue
            member.crawler.crawl(WILDCARD_HOST)
            member.crawler.crawl(PER_AGENT_HOST)


@dataclass
class PassiveObservation:
    """Log-derived behavior of one user agent during the passive window.

    Attributes:
        token: Crawler token.
        visited: Any request seen from this UA.
        fetched_robots: robots.txt requested on at least one site.
        fetched_disallowed_content: Content fetched despite a robots.txt
            rule that forbids it.
        respects: Derived verdict (YES / NO / UNKNOWN-when-not-visited).
    """

    token: str
    visited: bool
    fetched_robots: bool
    fetched_disallowed_content: bool

    @property
    def respects(self) -> Compliance:
        if not self.visited:
            return Compliance.UNKNOWN
        if self.fetched_disallowed_content:
            return Compliance.NO
        return Compliance.YES


def analyze_passive(
    testbed: Testbed, agent_tokens: Sequence[str]
) -> Dict[str, PassiveObservation]:
    """Derive per-agent compliance from the testbed's server logs.

    Both testbed sites disallow every AI agent everywhere, so *any*
    content fetch by an AI UA is a violation; robots.txt fetches are
    always permitted.
    """
    logs = [testbed.wildcard_site.access_log, testbed.per_agent_site.access_log]
    out: Dict[str, PassiveObservation] = {}
    for token in agent_tokens:
        visited = any(log.entries(user_agent_contains=token) for log in logs)
        fetched_robots = any(log.fetched_robots(token) for log in logs)
        fetched_content = any(log.fetched_content(token) for log in logs)
        out[token] = PassiveObservation(
            token=token,
            visited=visited,
            fetched_robots=fetched_robots,
            fetched_disallowed_content=fetched_content,
        )
    return out


# -- active measurement -----------------------------------------------------------


@dataclass
class ActiveObservation:
    """What one triggered app's fetch looked like from the server side.

    Attributes:
        app_name: The GPT app triggered.
        contacted_domain: The backend domain the app declares/contacts.
        crawler_ips: Source IPs seen for this app's probe path.
        fetched_robots: Whether a correct robots.txt fetch occurred
            around the probe.
        fetched_buggy_robots: Whether a malformed robots path was hit.
        fetched_content: Whether the probe content path was retrieved.
    """

    app_name: str
    contacted_domain: str
    crawler_ips: Tuple[str, ...]
    fetched_robots: bool
    fetched_buggy_robots: bool
    fetched_content: bool


def run_active_measurement(
    store: GptAppStore, testbed: Testbed
) -> List[ActiveObservation]:
    """Trigger every browsing app against per-app probe URLs on the
    wildcard-disallow site.

    Each app is asked :data:`TRIGGERS_PER_APP` times (the paper used two
    prompt formats; more triggers expose intermittent robots.txt
    fetching), each against a distinct probe path so server log entries
    can be attributed to the app.
    """
    site = testbed.wildcard_site
    observations: List[ActiveObservation] = []
    for app in store.browsing_apps():
        before = len(site.access_log)
        for attempt in range(TRIGGERS_PER_APP):
            app.trigger_fetch(WILDCARD_HOST, f"/probe/{app.name}/{attempt}")
        entries = list(site.access_log)[before:]
        probe_prefix = f"/probe/{app.name}/"
        ips = tuple(dict.fromkeys(e.client_ip for e in entries))
        fetched_robots = any(e.path.split("?", 1)[0] == "/robots.txt" for e in entries)
        fetched_buggy = any(
            e.path.startswith("/robots.txt") and e.path != "/robots.txt"
            for e in entries
        )
        fetched_content = any(e.path.startswith(probe_prefix) for e in entries)
        observations.append(
            ActiveObservation(
                app_name=app.name,
                contacted_domain=app.service.registered_domain,
                crawler_ips=ips,
                fetched_robots=fetched_robots,
                fetched_buggy_robots=fetched_buggy,
                fetched_content=fetched_content,
            )
        )
    return observations


def merge_third_party_crawlers(
    observations: Sequence[ActiveObservation],
) -> List[List[ActiveObservation]]:
    """Union-find merge of apps sharing a registered domain or an IP.

    This is the Section 5.1 identity-resolution step that reduces
    hundreds of browsing apps to 23 distinct third-party crawlers.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for index in range(len(observations)):
        parent[index] = index
    by_domain: Dict[str, int] = {}
    by_ip: Dict[str, int] = {}
    for index, obs in enumerate(observations):
        if obs.contacted_domain in by_domain:
            union(by_domain[obs.contacted_domain], index)
        else:
            by_domain[obs.contacted_domain] = index
        for ip in obs.crawler_ips:
            if ip in by_ip:
                union(by_ip[ip], index)
            else:
                by_ip[ip] = index

    groups: Dict[int, List[ActiveObservation]] = {}
    for index, obs in enumerate(observations):
        groups.setdefault(find(index), []).append(obs)
    return list(groups.values())


def classify_merged_crawler(group: Sequence[ActiveObservation]) -> str:
    """Classify one merged crawler's robots.txt treatment.

    Returns one of ``"respects"``, ``"buggy-fetch"``,
    ``"intermittent"``, ``"no-fetch"``, or ``"no-traffic"``.
    """
    fetched_robots = [o for o in group if o.fetched_robots]
    fetched_buggy = [o for o in group if o.fetched_buggy_robots]
    fetched_content = [o for o in group if o.fetched_content]
    made_requests = [
        o for o in group
        if o.fetched_content or o.fetched_robots or o.fetched_buggy_robots
    ]
    if not made_requests:
        return "no-traffic"
    if fetched_buggy and not fetched_robots:
        return "buggy-fetch"
    if not fetched_robots:
        return "no-fetch"
    if fetched_content:
        # It saw the (fully disallowing) policy on some triggers yet
        # still fetched content on others: intermittent consultation.
        return "intermittent"
    return "respects"
