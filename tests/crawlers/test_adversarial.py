"""Adversarial crawler knobs: UA/IP rotation and paced stealth fetching."""

from dataclasses import replace

import pytest

from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile, RobotsBehavior
from repro.net.server import Website, render_page
from repro.net.transport import Network


def make_world():
    net = Network()
    site = Website("target.com")
    site.add_page("/", render_page("Home", links=["/a", "/b", "/c"]))
    site.add_page("/a", render_page("A"))
    site.add_page("/b", render_page("B"))
    site.add_page("/c", render_page("C"))
    site.set_robots_txt("User-agent: *\nDisallow:")
    net.register(site)
    return net, site


class TestIdentityRotation:
    def test_pools_round_robin(self):
        profile = CrawlerProfile.oblivious(
            "Rotator",
            ua_pool=("UA-a", "UA-b", "UA-c"),
            ip_pool=("10.0.0.1", "10.0.0.2"),
        )
        assert [profile.user_agent_for(i) for i in range(4)] == [
            "UA-a", "UA-b", "UA-c", "UA-a",
        ]
        assert [profile.source_ip_for(i) for i in range(4)] == [
            "10.0.0.1", "10.0.0.2", "10.0.0.1", "10.0.0.2",
        ]

    def test_empty_pools_fall_back_to_static_identity(self):
        profile = CrawlerProfile.oblivious("Plain")
        assert profile.user_agent_for(7) == profile.user_agent
        assert profile.source_ip_for(7) == profile.source_ip

    def test_engine_rotates_per_request(self):
        net, site = make_world()
        profile = CrawlerProfile.oblivious(
            "Rotator", ua_pool=("UA-a", "UA-b"), ip_pool=("10.0.0.1", "10.0.0.2")
        )
        Crawler(profile, net).crawl("target.com", max_pages=4)
        uas = [e.user_agent for e in site.access_log]
        ips = [e.client_ip for e in site.access_log]
        assert uas == ["UA-a", "UA-b", "UA-a", "UA-b"]
        assert ips == ["10.0.0.1", "10.0.0.2", "10.0.0.1", "10.0.0.2"]

    def test_rotation_index_is_lifetime_not_per_crawl(self):
        net, _ = make_world()
        profile = CrawlerProfile.oblivious("Rotator", ua_pool=("UA-a", "UA-b"))
        crawler = Crawler(profile, net)
        crawler.crawl("target.com", max_pages=3)
        sent = crawler._requests_sent
        assert sent == 3
        # The next crawl resumes the round-robin where the last left off.
        second = Website("second.com")
        second.add_page("/", render_page("Home"))
        net.register(second)
        crawler.crawl("second.com", max_pages=1)
        entry = next(iter(second.access_log))
        assert entry.user_agent == ("UA-a", "UA-b")[sent % 2]


class TestStealthPacing:
    def test_gap_jitter_is_seeded_and_bounded(self):
        profile = CrawlerProfile.stealth("Ghost", seed=11)
        same = CrawlerProfile.stealth("Ghost", seed=11)
        jitters = [profile.gap_jitter_seconds("h.example", i) for i in range(32)]
        assert jitters == [same.gap_jitter_seconds("h.example", i) for i in range(32)]
        assert all(0.0 <= j <= 0.4 for j in jitters)
        assert len(set(jitters)) > 1  # actually jitters
        other_seed = CrawlerProfile.stealth("Ghost", seed=12)
        assert jitters != [
            other_seed.gap_jitter_seconds("h.example", i) for i in range(32)
        ]

    def test_zero_jitter_profiles_pay_none(self):
        profile = CrawlerProfile.oblivious("Plain")
        assert profile.gap_jitter_seconds("h.example", 3) == 0.0

    def test_pacing_charges_the_simulated_clock(self):
        net, site = make_world()
        profile = replace(
            CrawlerProfile.stealth("Ghost", fetch_interval=2.0),
            stealth_gap_jitter_ms=0,
        )
        Crawler(profile, net).crawl("target.com", max_pages=4)
        # 3 gaps between 4 content fetches (robots fetch is free).
        assert net.now == pytest.approx(6.0)
        timestamps = [e.timestamp for e in site.access_log
                      if e.path != "/robots.txt"]
        gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
        assert gaps == [pytest.approx(2.0)] * 3

    def test_unpaced_profiles_leave_the_clock_alone(self):
        net, _ = make_world()
        profile = CrawlerProfile.oblivious("Plain", default_fetch_interval=2.0)
        Crawler(profile, net).crawl("target.com", max_pages=4)
        assert net.now == 0.0  # the interval is not charged to the clock

    def test_stealth_factory_shape(self):
        profile = CrawlerProfile.stealth("Ghost", seed=5)
        assert profile.behavior is RobotsBehavior.FETCH_AND_IGNORE
        assert profile.paces_on_clock
        assert profile.default_fetch_interval == 1.0
        assert profile.stealth_gap_jitter_ms == 400
        assert profile.stealth_seed == 5
