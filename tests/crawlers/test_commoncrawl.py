"""Tests for the Common-Crawl-style snapshot crawler."""

from contextlib import nullcontext

from repro.crawlers.commoncrawl import (
    RETRY_PASSES,
    SNAPSHOT_SPECS,
    SnapshotCrawler,
    month_label,
)
from repro.net.chaos import FaultPlan, FaultRule, chaos_active
from repro.net.server import Website
from repro.net.transport import Network
from repro.proxy.reverse_proxy import ReverseProxy
from repro.proxy.rules import Action, BlockRule, RuleSet


def make_net(*rules):
    """The three-site test web, built under a fault plan of *rules*."""
    with chaos_active(FaultPlan("test", rules)) if rules else nullcontext():
        net = Network()
    with_robots = Website("a.com")
    with_robots.set_robots_txt("User-agent: GPTBot\nDisallow: /")
    with_robots.add_page("/", "<p>a</p>")
    net.register(with_robots)

    without_robots = Website("b.com")
    without_robots.add_page("/", "<p>b</p>")
    net.register(without_robots)

    blocker_origin = Website("c.com")
    blocker_origin.set_robots_txt("User-agent: *\nDisallow:")
    rules = RuleSet([BlockRule(Action.BLOCK, ua_patterns=["CCBot"])])
    proxy = ReverseProxy(blocker_origin, rules, "WAF")
    net.register(proxy)
    return net


class TestMonthLabel:
    def test_origin(self):
        assert month_label(0) == "2022-10"

    def test_year_rollover(self):
        assert month_label(3) == "2023-01"

    def test_end_of_window(self):
        assert month_label(24) == "2024-10"


class TestSnapshotSpecs:
    def test_fifteen_snapshots(self):
        assert len(SNAPSHOT_SPECS) == 15

    def test_monotonic_months(self):
        months = [s.month_index for s in SNAPSHOT_SPECS]
        assert months == sorted(months)
        assert months[0] == 0 and months[-1] == 24

    def test_ids_unique(self):
        ids = [s.snapshot_id for s in SNAPSHOT_SPECS]
        assert len(set(ids)) == 15


class TestSnapshotCrawler:
    def test_robots_captured(self):
        crawler = SnapshotCrawler(make_net())
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com", "b.com", "c.com"])
        assert snap.records["a.com"].ok
        assert "GPTBot" in snap.records["a.com"].robots_txt

    def test_missing_robots_recorded_as_404(self):
        crawler = SnapshotCrawler(make_net())
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["b.com"])
        record = snap.records["b.com"]
        assert not record.ok and record.missing

    def test_active_blocker_records_403(self):
        crawler = SnapshotCrawler(make_net())
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["c.com"])
        record = snap.records["c.com"]
        assert record.status == 403 and not record.ok

    def test_unresolvable_site_records_error(self):
        crawler = SnapshotCrawler(make_net())
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["ghost.com"])
        record = snap.records["ghost.com"]
        assert record.status == 0 and record.error

    def test_sites_with_robots(self):
        crawler = SnapshotCrawler(make_net())
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com", "b.com", "c.com"])
        assert [d for d, r in snap.records.items() if r.ok] == ["a.com"]

    def test_redirects_not_followed(self):
        net = make_net()
        apex = Website("apex.com")
        apex.redirect_to_host = "www.apex.com"
        www = Website("www.apex.com")
        www.set_robots_txt("User-agent: *\nDisallow:")
        net.register(apex)
        net.register(www)
        crawler = SnapshotCrawler(net)
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["apex.com", "www.apex.com"])
        assert snap.records["apex.com"].status == 301
        assert not snap.records["apex.com"].ok


def counted(crawler):
    """*crawler* with its fetches tallied per domain."""
    fetches = {}
    crawl_site = crawler.crawl_site

    def counting(domain):
        fetches[domain] = fetches.get(domain, 0) + 1
        return crawl_site(domain)

    crawler.crawl_site = counting
    return fetches


class TestRetryPassesAndErrorBudget:
    """Retry passes heal transient errors; the records and the fetch
    counts show what each pass did."""

    def test_transient_error_healed_by_retry_pass(self):
        net = make_net(FaultRule("reset", hosts=("a.com",), max_per_host=1))
        crawler = SnapshotCrawler(net)
        fetches = counted(crawler)
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com", "b.com"])
        assert snap.records["a.com"].ok
        assert snap.records["b.com"].missing
        # One retry pass, over the one errored site.
        assert fetches == {"a.com": 2, "b.com": 1}

    def test_flaky_host_heals_after_exactly_n_failures(self):
        # Every pass but the last retry errors; the last one heals.
        net = make_net(
            FaultRule("reset", hosts=("a.com",), max_per_host=RETRY_PASSES)
        )
        crawler = SnapshotCrawler(net)
        fetches = counted(crawler)
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com"])
        assert snap.records["a.com"].ok
        assert fetches == {"a.com": 1 + RETRY_PASSES}

    def test_permanent_error_survives_retries(self):
        net = make_net()
        crawler = SnapshotCrawler(net)
        fetches = counted(crawler)
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["ghost.example", "a.com"])
        assert snap.records["ghost.example"].error
        assert snap.records["ghost.example"].status == 0
        assert snap.records["a.com"].ok
        assert fetches == {"ghost.example": 1 + RETRY_PASSES, "a.com": 1}

    def test_clean_crawl_costs_no_retry_passes(self):
        crawler = SnapshotCrawler(make_net())
        fetches = counted(crawler)
        snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com", "b.com"])
        assert all(record.error is None for record in snap.records.values())
        assert fetches == {"a.com": 1, "b.com": 1}

    def test_retries_disabled_globally(self):
        from repro.net.chaos import retries_disabled

        net = make_net(FaultRule("reset", hosts=("a.com",), max_per_host=1))
        crawler = SnapshotCrawler(net)
        fetches = counted(crawler)
        with retries_disabled():
            snap = crawler.snapshot(SNAPSHOT_SPECS[0], ["a.com"])
        assert snap.records["a.com"].error
        assert fetches == {"a.com": 1}

    def test_healed_snapshot_equals_fault_free_snapshot(self):
        spec = SNAPSHOT_SPECS[0]
        clean = SnapshotCrawler(make_net()).snapshot(spec, ["a.com", "b.com"])
        flaky_net = make_net(
            FaultRule("reset", hosts=("a.com",), max_per_host=1)
        )
        healed = SnapshotCrawler(flaky_net).snapshot(
            spec, ["a.com", "b.com"]
        )
        # A healed snapshot is the same measurement as a fault-free one.
        assert clean == healed
