"""Periodic crawl scheduling over simulated time.

Real crawlers revisit sites on schedules -- search crawlers every few
hours, AI data crawlers per sweep, Bytespider nearly continuously.  The
:class:`CrawlScheduler` is the orchestration layer for such behavior:
tasks are (crawler, host, interval) triples dispatched in simulated-time
order off a heap, the network clock advances to each task's due time
(so robots.txt cache TTLs and access-log timestamps are faithful), and
a :class:`SchedulerReport` aggregates what happened.

The passive compliance measurement and the traffic simulation can both
be expressed on top of this; it is also the natural place to model
long-running monitoring (the paper's six-month passive window).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..net.transport import Network
from .engine import Crawler, CrawlResult

__all__ = ["CrawlTask", "SchedulerReport", "CrawlScheduler"]


@dataclass
class CrawlTask:
    """One recurring crawl assignment.

    Attributes:
        crawler: The crawler to dispatch.
        host: Target host.
        interval: Simulated seconds between crawls.
        max_pages: Page budget per crawl.
        start_at: First dispatch time.
        repeat: Whether the task reschedules itself after each run.
    """

    crawler: Crawler
    host: str
    interval: float
    max_pages: int = 10
    start_at: float = 0.0
    repeat: bool = True

    @property
    def token(self) -> str:
        return self.crawler.profile.token


@dataclass
class SchedulerReport:
    """Aggregate outcome of a scheduler run.

    Attributes:
        crawls: Number of crawls per (crawler token, host).
        pages: Content pages fetched per (crawler token, host).
        robots_fetches: robots.txt requests per (crawler token, host).
        errors: Transport errors observed, as (token, host, message).
        finished_at: The simulation time when the run stopped.
    """

    crawls: Dict[Tuple[str, str], int] = field(default_factory=dict)
    pages: Dict[Tuple[str, str], int] = field(default_factory=dict)
    robots_fetches: Dict[Tuple[str, str], int] = field(default_factory=dict)
    errors: List[Tuple[str, str, str]] = field(default_factory=list)
    finished_at: float = 0.0

    def record(self, token: str, host: str, result: CrawlResult) -> None:
        key = (token, host)
        self.crawls[key] = self.crawls.get(key, 0) + 1
        self.pages[key] = self.pages.get(key, 0) + len(result.content_fetches)
        if result.robots_fetched:
            self.robots_fetches[key] = self.robots_fetches.get(key, 0) + 1
        for message in result.errors:
            self.errors.append((token, host, message))


class CrawlScheduler:
    """Dispatch recurring crawl tasks in simulated-time order.

    >>> # See tests/crawlers/test_scheduler.py for full usage.
    """

    def __init__(self, network: Network):
        self.network = network
        self._heap: List[Tuple[float, int, CrawlTask]] = []
        self._sequence = itertools.count()

    def add(self, task: CrawlTask) -> CrawlTask:
        """Register *task*; returns it for chaining."""
        if task.interval <= 0 and task.repeat:
            raise ValueError("repeating tasks need a positive interval")
        heapq.heappush(self._heap, (task.start_at, next(self._sequence), task))
        return task

    def schedule(self, crawler: Crawler, host: str, interval: float) -> CrawlTask:
        """Add a task crawling *host* every *interval* seconds from t=0."""
        return self.add(CrawlTask(crawler=crawler, host=host, interval=interval))

    def run_until(self, end_time: float) -> SchedulerReport:
        """Run every task due at or before *end_time*.

        The network clock is advanced to each dispatch time, so cache
        TTLs, politeness, and log timestamps all see the correct time.
        Tasks due beyond *end_time* stay queued for a later run.
        """
        report = SchedulerReport()
        while self._heap and self._heap[0][0] <= end_time:
            due, _, task = heapq.heappop(self._heap)
            self.network.now = max(self.network.now, due)
            result = task.crawler.crawl(task.host, max_pages=task.max_pages)
            report.record(task.token, task.host, result)
            if task.repeat:
                heapq.heappush(
                    self._heap, (due + task.interval, next(self._sequence), task)
                )
        report.finished_at = max(self.network.now, end_time)
        self.network.now = report.finished_at
        return report
