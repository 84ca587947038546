"""Tests for the crawl engine and behavior profiles."""

from contextlib import nullcontext

import pytest

from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile, RobotsBehavior
from repro.net.chaos import FaultPlan, FaultRule, chaos_active
from repro.net.server import Website, render_page
from repro.net.transport import Network


def make_world(robots=None, *rules):
    """One site, on a network built under a fault plan of *rules*."""
    with chaos_active(FaultPlan("test", rules)) if rules else nullcontext():
        net = Network()
    site = Website("target.com")
    site.add_page("/", render_page("Home", links=["/a", "/b"]))
    site.add_page("/a", render_page("A", links=["/a/deep"]))
    site.add_page("/a/deep", render_page("Deep"))
    site.add_page("/b", render_page("B"))
    if robots is not None:
        site.set_robots_txt(robots)
    net.register(site)
    return net, site


class TestRobotsBehaviorEnum:
    def test_obeys(self):
        assert RobotsBehavior.FETCH_AND_OBEY.obeys
        assert RobotsBehavior.INTERMITTENT_FETCH.obeys
        assert not RobotsBehavior.FETCH_AND_IGNORE.obeys
        assert not RobotsBehavior.NO_FETCH.obeys


class TestProfileDefaults:
    def test_source_ip_assigned_from_range(self):
        profile = CrawlerProfile.respectful("GPTBot")
        assert profile.source_ip.startswith("100.64.13.")

    def test_factories(self):
        assert CrawlerProfile.respectful("X").behavior is RobotsBehavior.FETCH_AND_OBEY
        assert CrawlerProfile.defiant("X").behavior is RobotsBehavior.FETCH_AND_IGNORE
        assert CrawlerProfile.oblivious("X").behavior is RobotsBehavior.NO_FETCH


class TestObedientCrawler:
    def test_fetches_robots_first(self):
        net, site = make_world("User-agent: *\nDisallow:")
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        crawler.crawl("target.com")
        paths = [e.path for e in site.access_log]
        assert paths[0] == "/robots.txt"

    def test_respects_full_disallow(self):
        net, site = make_world("User-agent: TestBot\nDisallow: /")
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        result = crawler.crawl("target.com")
        assert result.content_fetches == []
        assert "/" in result.skipped
        assert not site.access_log.fetched_content("TestBot")

    def test_respects_partial_disallow(self):
        net, site = make_world("User-agent: *\nDisallow: /a")
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        result = crawler.crawl("target.com")
        assert "/" in result.content_fetches
        assert "/b" in result.content_fetches
        assert "/a" not in result.content_fetches
        assert "/a" in result.skipped

    def test_crawls_everything_without_robots(self):
        net, site = make_world(None)
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        result = crawler.crawl("target.com")
        assert set(result.content_fetches) == {"/", "/a", "/b", "/a/deep"}

    def test_max_pages_budget(self):
        net, _ = make_world(None)
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        result = crawler.crawl("target.com", max_pages=2)
        assert len(result.content_fetches) == 2

    def test_single_fetch_respects_robots(self):
        net, _ = make_world("User-agent: TestBot\nDisallow: /")
        crawler = Crawler(CrawlerProfile.respectful("TestBot"), net)
        result = crawler.fetch("target.com", "/a")
        assert result.skipped == ["/a"]
        assert result.content_fetches == []

    def test_wildcard_group_governs_unnamed_crawler(self):
        net, _ = make_world("User-agent: *\nDisallow: /")
        crawler = Crawler(CrawlerProfile.respectful("RandomBot"), net)
        assert crawler.crawl("target.com").content_fetches == []


class TestDefiantCrawler:
    def test_fetches_robots_but_ignores_it(self):
        net, site = make_world("User-agent: Bytespider\nDisallow: /")
        crawler = Crawler(
            CrawlerProfile.defiant("Bytespider", "Bytespider"), net
        )
        result = crawler.crawl("target.com")
        assert result.robots_fetched
        assert site.access_log.fetched_robots("Bytespider")
        assert site.access_log.fetched_content("Bytespider")
        assert len(result.content_fetches) == 4


class TestObliviousCrawler:
    def test_never_touches_robots(self):
        net, site = make_world("User-agent: *\nDisallow: /")
        crawler = Crawler(CrawlerProfile.oblivious("Ghost"), net)
        result = crawler.crawl("target.com")
        assert not result.robots_fetched
        assert not site.access_log.fetched_robots("Ghost")
        assert len(result.content_fetches) == 4


class TestBuggyCrawler:
    def test_fetches_wrong_path(self):
        net, site = make_world("User-agent: *\nDisallow: /")
        profile = CrawlerProfile(
            token="Buggy",
            user_agent="BuggyBot/0.1",
            behavior=RobotsBehavior.BUGGY_FETCH,
        )
        result = Crawler(profile, net).crawl("target.com")
        # The wrong path shows in server logs but not as a robots fetch.
        wrong = [e for e in site.access_log if e.path == "/robots.txt/"]
        assert len(wrong) == 1
        assert not site.access_log.fetched_robots("BuggyBot")
        # And the crawler proceeds as if unrestricted.
        assert len(result.content_fetches) == 4


class TestIntermittentCrawler:
    def _profile(self):
        return CrawlerProfile(
            token="Flaky",
            user_agent="FlakyBot/1.0",
            behavior=RobotsBehavior.INTERMITTENT_FETCH,
            intermittent_period=3,
        )

    def test_fetches_only_every_nth_crawl(self):
        net, site = make_world("User-agent: *\nDisallow:")
        crawler = Crawler(self._profile(), net)
        for _ in range(6):
            crawler.fetch("target.com", "/")
        robots_hits = [
            e for e in site.access_log.entries(user_agent_contains="FlakyBot")
            if e.is_robots_fetch
        ]
        assert len(robots_hits) == 2  # crawls 3 and 6

    def test_obeys_when_it_has_a_policy(self):
        net, _ = make_world("User-agent: *\nDisallow: /")
        crawler = Crawler(self._profile(), net)
        first = crawler.fetch("target.com", "/a")   # no robots fetched yet
        assert first.content_fetches == ["/a"]
        second = crawler.fetch("target.com", "/a")
        third = crawler.fetch("target.com", "/a")   # fetches robots, obeys
        assert third.skipped == ["/a"] or second.skipped == ["/a"]


class TestRobotsCaching:
    def test_stale_cache_keeps_old_policy(self):
        net, site = make_world("User-agent: *\nDisallow:")
        profile = CrawlerProfile.respectful("Cachy", robots_cache_ttl=100.0)
        crawler = Crawler(profile, net)
        net.now = 0.0
        assert crawler.fetch("target.com", "/a").content_fetches == ["/a"]
        # Site tightens its policy; crawler cache is still warm.
        site.set_robots_txt("User-agent: *\nDisallow: /")
        net.now = 50.0
        result = crawler.fetch("target.com", "/a")
        assert result.robots_from_cache
        assert result.content_fetches == ["/a"]
        # After TTL expiry the new policy bites.
        net.now = 200.0
        result = crawler.fetch("target.com", "/a")
        assert result.skipped == ["/a"]

class TestErrorHandling:
    def test_dns_failure_recorded(self):
        net = Network()
        crawler = Crawler(CrawlerProfile.respectful("X"), net)
        result = crawler.fetch("missing.com", "/")
        assert result.errors
        assert result.content_fetches == []

    def test_robots_transport_error_treated_as_no_policy(self):
        net, _ = make_world(
            "User-agent: *\nDisallow: /", FaultRule("outage", hosts=("target.com",))
        )
        crawler = Crawler(CrawlerProfile.respectful("X"), net)
        result = crawler.crawl("target.com")
        assert result.errors


class TestRobotsStatusSemantics:
    """RFC 9309 section 2.3.1: 4xx vs 5xx on /robots.txt."""

    def _site_with_status(self, status):
        from repro.net.http import Response
        from repro.net.server import Website, render_page

        class StatusRobotsSite(Website):
            def _respond(self, request):
                if request.path_only == "/robots.txt":
                    return Response(status=status, body="err", url=request.url)
                return super()._respond(request)

        net = Network()
        site = StatusRobotsSite("target.com")
        site.add_page("/", render_page("Home"))
        net.register(site)
        return net

    def test_404_means_crawl_freely(self):
        net = self._site_with_status(404)
        result = Crawler(CrawlerProfile.respectful("Bot"), net).fetch("target.com", "/")
        assert result.content_fetches == ["/"]

    def test_500_means_complete_disallow(self):
        net = self._site_with_status(500)
        result = Crawler(CrawlerProfile.respectful("Bot"), net).fetch("target.com", "/")
        assert result.skipped == ["/"]
        assert result.content_fetches == []

    def test_503_means_complete_disallow(self):
        net = self._site_with_status(503)
        result = Crawler(CrawlerProfile.respectful("Bot"), net).fetch("target.com", "/")
        assert result.skipped == ["/"]

    def test_403_default_keeps_obedient_bot_out(self):
        net = self._site_with_status(403)
        result = Crawler(CrawlerProfile.respectful("Bot"), net).fetch("target.com", "/")
        assert result.skipped == ["/"]

    def test_5xx_does_not_constrain_defiant_bot(self):
        net = self._site_with_status(500)
        result = Crawler(CrawlerProfile.defiant("Bad"), net).fetch("target.com", "/")
        assert result.content_fetches == ["/"]


class TestCrawlDelayPoliteness:
    """Politeness gaps show on the simulated clock a pacing crawler pays."""

    ROBOTS = "User-agent: *\nCrawl-delay: 10\nDisallow: /private/\n"

    def _crawler(self, honors, net):
        profile = CrawlerProfile(
            token="SlowBot",
            user_agent="SlowBot/1.0",
            honors_crawl_delay=honors,
            paces_on_clock=True,
        )
        return Crawler(profile, net)

    def test_honoring_crawler_consumes_time(self):
        net, _ = make_world(self.ROBOTS)
        result = self._crawler(True, net).crawl("target.com")
        # Four pages: three inter-fetch gaps of 10s.
        assert len(result.content_fetches) == 4
        assert net.now == 30.0

    def test_rfc_compliant_crawler_ignores_crawl_delay(self):
        net, _ = make_world(self.ROBOTS)
        result = self._crawler(False, net).crawl("target.com")
        assert len(result.content_fetches) == 4
        assert net.now == 0.0

    def test_default_interval_applies_without_crawl_delay(self):
        net, _ = make_world("User-agent: *\nDisallow:")
        profile = CrawlerProfile(
            token="Paced", user_agent="Paced/1.0", default_fetch_interval=5.0,
            paces_on_clock=True,
        )
        result = Crawler(profile, net).crawl("target.com")
        assert len(result.content_fetches) == 4
        assert net.now == 15.0  # t=0, 5, 10, 15


class TestConditionalRevalidation:
    def test_server_emits_etag_and_304(self):
        from repro.net.http import Request

        net, site = make_world("User-agent: *\nDisallow:\n")
        first = net.request(Request(host="target.com", path="/robots.txt"))
        etag = first.headers["ETag"]
        second = net.request(
            Request(host="target.com", path="/robots.txt",
                    headers={"If-None-Match": etag})
        )
        assert second.status == 304
        assert second.content_length == 0

    def test_non_revalidating_crawler_refetches_fully(self):
        net, site = make_world("User-agent: *\nDisallow: /a\n")
        profile = CrawlerProfile.respectful("Plain", robots_cache_ttl=100.0)
        crawler = Crawler(profile, net)
        net.now = 0.0
        crawler.fetch("target.com", "/b")
        net.now = 200.0
        result = crawler.fetch("target.com", "/b")
        robots_hits = [s for p, s in result.fetched if p == "/robots.txt"]
        assert robots_hits == [200]


class TestFetchTelemetryOnErrors:
    def _flaky_world(self, *rules):
        return make_world("User-agent: *\nDisallow:", *rules)

    def test_errored_fetch_not_counted_as_fetched(self):
        from repro.obs.metrics import shared_registry

        net, site = self._flaky_world(
            FaultRule("reset", hosts=("target.com",), max_per_host=None)
        )
        crawler = Crawler(CrawlerProfile.defiant("ErrBot"), net)
        registry = shared_registry()
        fetched_before = registry.counter_value("crawler.fetches", agent="other")
        net.month = 3
        result = crawler.fetch("target.com", "/a")
        assert result.errors and not result.fetched
        assert (
            registry.counter_value("crawler.fetches", agent="other")
            == fetched_before
        )
        assert (
            registry.series("crawl.requests", agent="other", outcome="error")
            .points().get(3, 0) >= 1
        )

    def test_successful_fetch_still_counted(self):
        from repro.obs.metrics import shared_registry

        net, site = self._flaky_world()
        crawler = Crawler(CrawlerProfile.defiant("OkBot"), net)
        registry = shared_registry()
        before = registry.counter_value("crawler.fetches", agent="other")
        crawler.fetch("target.com", "/a")
        assert registry.counter_value("crawler.fetches", agent="other") == before + 1

    def test_crawl_errors_booked_as_errors_not_fetches(self):
        from repro.obs.metrics import shared_registry

        net, site = self._flaky_world(
            FaultRule("reset", hosts=("target.com",), max_per_host=None)
        )
        crawler = Crawler(CrawlerProfile.oblivious("CrawlErrBot"), net)
        registry = shared_registry()
        before = registry.counter_value("crawler.fetches", agent="other")
        result = crawler.crawl("target.com", max_pages=3)
        assert result.errors and not result.fetched
        assert registry.counter_value("crawler.fetches", agent="other") == before


class TestContentFetchesExactPath:
    def test_robots_lookalike_paths_are_content(self):
        net, site = make_world()
        site.add_page("/robots.txt.bak", "old robots backup")
        crawler = Crawler(CrawlerProfile.oblivious("LookalikeBot"), net)
        result = crawler.fetch("target.com", "/robots.txt.bak")
        assert result.content_fetches == ["/robots.txt.bak"]

    def test_exact_robots_path_excluded(self):
        net, site = make_world("User-agent: *\nDisallow:")
        crawler = Crawler(CrawlerProfile.respectful("ExactBot"), net)
        result = crawler.fetch("target.com", "/a")
        assert "/robots.txt" not in result.content_fetches
        assert result.content_fetches == ["/a"]
