"""Tests for the periodic crawl scheduler."""

import pytest

from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile
from repro.crawlers.scheduler import CrawlScheduler, CrawlTask
from repro.net.server import Website, render_page
from repro.net.transport import Network

DAY = 86_400.0


def make_world():
    net = Network()
    site = Website("sched.example")
    site.add_page("/", render_page("Home", links=["/a"]))
    site.add_page("/a", render_page("A"))
    site.set_robots_txt("User-agent: *\nDisallow:\n")
    net.register(site)
    return net, site


class TestScheduling:
    def test_periodic_dispatch_counts(self):
        net, _ = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("DailyBot"), net)
        scheduler.schedule(crawler, "sched.example", interval=DAY)
        report = scheduler.run_until(6 * DAY)
        # Dispatches at t=0,1,...,6 days inclusive.
        assert report.crawls[("DailyBot", "sched.example")] == 7

    def test_clock_advances_with_dispatches(self):
        net, site = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("DailyBot"), net)
        scheduler.schedule(crawler, "sched.example", interval=DAY)
        scheduler.run_until(2 * DAY)
        timestamps = sorted({entry.timestamp for entry in site.access_log})
        assert timestamps == [0.0, DAY, 2 * DAY]

    def test_one_shot_task(self):
        net, _ = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("OnceBot"), net)
        scheduler.add(CrawlTask(crawler, "sched.example", interval=0, repeat=False,
                                start_at=DAY))
        report = scheduler.run_until(10 * DAY)
        assert report.crawls[("OnceBot", "sched.example")] == 1
        assert not scheduler._heap  # nothing left queued

    def test_future_tasks_stay_queued(self):
        net, _ = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("LateBot"), net)
        scheduler.add(CrawlTask(crawler, "sched.example", interval=DAY, start_at=5 * DAY))
        report = scheduler.run_until(2 * DAY)
        assert not report.crawls
        assert len(scheduler._heap) == 1
        report = scheduler.run_until(5 * DAY)
        assert report.crawls[("LateBot", "sched.example")] == 1

    def test_interleaved_crawlers_ordered_by_time(self):
        net, site = make_world()
        scheduler = CrawlScheduler(net)
        fast = Crawler(CrawlerProfile.defiant("FastBot", "FastBot"), net)
        slow = Crawler(CrawlerProfile.respectful("SlowBot"), net)
        scheduler.schedule(fast, "sched.example", interval=DAY / 4)
        scheduler.schedule(slow, "sched.example", interval=DAY)
        report = scheduler.run_until(DAY)
        assert report.crawls[("FastBot", "sched.example")] == 5
        assert report.crawls[("SlowBot", "sched.example")] == 2

    def test_invalid_repeat_interval_rejected(self):
        net, _ = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("X"), net)
        with pytest.raises(ValueError):
            scheduler.schedule(crawler, "sched.example", interval=0)

    def test_errors_collected(self):
        net, _ = make_world()
        scheduler = CrawlScheduler(net)
        crawler = Crawler(CrawlerProfile.respectful("GhostBot"), net)
        scheduler.add(CrawlTask(crawler, "missing.example", interval=DAY, repeat=False))
        report = scheduler.run_until(DAY)
        assert report.errors
        assert report.errors[0][0] == "GhostBot"


class TestCacheInterplay:
    def test_robots_cache_ttl_respected_across_dispatches(self):
        net, site = make_world()
        scheduler = CrawlScheduler(net)
        profile = CrawlerProfile.respectful("CachyBot", robots_cache_ttl=3 * DAY)
        crawler = Crawler(profile, net)
        scheduler.schedule(crawler, "sched.example", interval=DAY)
        report = scheduler.run_until(6 * DAY)
        # 7 crawls, but robots.txt fetched only when the cache expires:
        # t=0 (fresh), t=3d, t=6d.
        assert report.crawls[("CachyBot", "sched.example")] == 7
        assert report.robots_fetches[("CachyBot", "sched.example")] == 3

    def test_caching_bot_sees_policy_change_at_ttl(self):
        net, site = make_world()
        scheduler = CrawlScheduler(net)
        profile = CrawlerProfile.respectful("Reval", robots_cache_ttl=2 * DAY)
        crawler = Crawler(profile, net)
        scheduler.schedule(crawler, "sched.example", interval=DAY)
        warm = scheduler.run_until(DAY)        # cache warm, policy open
        key = ("Reval", "sched.example")
        assert warm.pages[key] == 4            # t=0 and t=1d, two pages each
        site.set_robots_txt("User-agent: *\nDisallow: /\n")
        report = scheduler.run_until(6 * DAY)  # the refetch at t=2d picks it up
        assert report.pages.get(key, 0) == 0   # every later crawl is kept out
