"""Traffic composition: the bot-vs-human load the paper's intro cites.

Section 1 motivates the study with industry measurements -- roughly
50-70% of website traffic is automated (Akamai, Imperva), and AI
crawlers are "effectively producing DDoS attacks on smaller websites".
This module simulates a site's traffic mix so that context is
reproducible too: human sessions with browser user agents, the AI
crawler fleet re-crawling on its own schedules (Bytespider famously
aggressively), plus classic SEO crawlers.  The analysis reads the
site's access log, exactly as an operator would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.accesslog import AccessLog
from ..net.http import Headers, Request
from ..net.server import Website
from ..net.transport import Network
from ..util import seeded_rng
from ..crawlers.engine import Crawler
from ..crawlers.profiles import CrawlerProfile, RobotsBehavior

__all__ = ["TrafficMix", "TrafficReport", "simulate_traffic", "analyze_traffic"]

_BROWSER_UAS = [
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/129.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/128.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 14_5) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.5 Safari/605.1.15",
    "Mozilla/5.0 (Windows NT 10.0; rv:130.0) Gecko/20100101 Firefox/130.0",
]

#: (token, crawls per simulated day) -- Bytespider's aggressiveness
#: reflects the DDoS-like reports [25, 26]; search crawlers re-visit
#: moderately; AI data crawlers sweep less often but deeply.
_CRAWLER_SCHEDULE: List[Tuple[str, RobotsBehavior, int]] = [
    ("Bytespider", RobotsBehavior.FETCH_AND_IGNORE, 14),
    ("GPTBot", RobotsBehavior.FETCH_AND_OBEY, 3),
    ("CCBot", RobotsBehavior.FETCH_AND_OBEY, 2),
    ("ClaudeBot", RobotsBehavior.FETCH_AND_OBEY, 3),
    ("Amazonbot", RobotsBehavior.FETCH_AND_OBEY, 2),
    ("Googlebot", RobotsBehavior.FETCH_AND_OBEY, 5),
    ("Bingbot", RobotsBehavior.FETCH_AND_OBEY, 3),
    ("AhrefsBot", RobotsBehavior.FETCH_AND_OBEY, 4),
    ("SemrushBot", RobotsBehavior.FETCH_AND_OBEY, 3),
]


@dataclass
class TrafficMix:
    """Parameters of one simulated traffic day.

    Attributes:
        human_sessions: Number of human visits.
        pages_per_session: Inclusive range of pageviews per human.
        crawler_page_budget: Max pages per crawler sweep.
    """

    human_sessions: int = 60
    pages_per_session: Tuple[int, int] = (1, 4)
    crawler_page_budget: int = 10


@dataclass
class TrafficReport:
    """Log-derived traffic composition.

    Attributes:
        total_requests: All logged requests.
        bot_requests: Requests from non-browser user agents.
        per_agent: Request counts by primary product token.
    """

    total_requests: int = 0
    bot_requests: int = 0
    per_agent: Dict[str, int] = field(default_factory=dict)

    @property
    def bot_share(self) -> float:
        """Bot fraction of all requests, in [0, 1]."""
        if not self.total_requests:
            return 0.0
        return self.bot_requests / self.total_requests

    def top_talkers(self, n: int = 5) -> List[Tuple[str, int]]:
        """The *n* most request-heavy agents."""
        ranked = sorted(self.per_agent.items(), key=lambda kv: -kv[1])
        return ranked[:n]


def simulate_traffic(
    site: Website,
    mix: Optional[TrafficMix] = None,
    days: int = 1,
    seed: int = 42,
) -> None:
    """Drive *days* of mixed traffic at *site* (log fills as a side effect)."""
    mix = mix or TrafficMix()
    rng = seeded_rng(seed, "traffic", site.host)
    network = Network()
    network.register(site)

    crawlers = [
        Crawler(
            CrawlerProfile(token=token, user_agent=f"{token}/1.0", behavior=behavior),
            network,
        )
        for token, behavior, _ in _CRAWLER_SCHEDULE
    ]

    paths = site.paths() or ["/"]
    for day in range(days):
        network.now = float(day * 86_400)
        network.month = day // 30
        for _ in range(mix.human_sessions):
            user_agent = rng.choice(_BROWSER_UAS)
            for _ in range(rng.randint(*mix.pages_per_session)):
                network.request(
                    Request(
                        host=site.host,
                        path=rng.choice(paths),
                        headers=Headers({"User-Agent": user_agent}),
                        client_ip=f"203.0.113.{rng.randint(1, 254)}",
                    )
                )
        for crawler, (_, _, sweeps) in zip(crawlers, _CRAWLER_SCHEDULE):
            for _ in range(sweeps):
                crawler.crawl(site.host, max_pages=mix.crawler_page_budget)


def analyze_traffic(log: AccessLog) -> TrafficReport:
    """Classify every logged request as human or bot from its UA."""
    from ..agents.useragent import looks_like_browser, primary_product

    report = TrafficReport()
    for entry in log:
        report.total_requests += 1
        token = primary_product(entry.user_agent)
        report.per_agent[token] = report.per_agent.get(token, 0) + 1
        if not looks_like_browser(entry.user_agent):
            report.bot_requests += 1
    return report
