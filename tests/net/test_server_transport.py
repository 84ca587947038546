"""Tests for Website and Network."""

import pytest

from repro.net.chaos import FaultPlan, FaultRule, chaos_active
from repro.net.errors import (
    ConnectionRefused,
    ConnectionReset,
    DNSFailure,
)
from repro.net.http import Request
from repro.net.server import Website, extract_links, render_page
from repro.net.transport import Network


def armed_network(*rules):
    """A network built while a fault plan of *rules* is armed."""
    with chaos_active(FaultPlan("test", rules)):
        return Network()


def make_site(host="example.com"):
    site = Website(host)
    site.add_page("/", render_page("Home", links=["/about", "/art/one"]))
    site.add_page("/about", render_page("About"))
    site.add_page("/art/one", render_page("Art", images=["/img/1.png"]))
    return site


class TestRenderAndLinks:
    def test_links_extracted_in_order(self):
        html = render_page("T", links=["/a", "/b"])
        assert extract_links(html) == ["/a", "/b"]

    def test_meta_robots_rendered(self):
        html = render_page("T", meta_robots="noai, noimageai")
        assert '<meta name="robots" content="noai, noimageai">' in html

    def test_no_meta_by_default(self):
        assert "<meta" not in render_page("T")


class TestWebsite:
    def test_page_served(self):
        site = make_site()
        response = site.handle(Request(host="example.com", path="/about"))
        assert response.ok
        assert "About" in response.text

    def test_missing_page_404(self):
        assert make_site().handle(Request(host="example.com", path="/nope")).status == 404

    def test_robots_txt_404_when_absent(self):
        site = make_site()
        assert site.handle(Request(host="example.com", path="/robots.txt")).status == 404

    def test_robots_txt_served_as_plain_text(self):
        site = make_site()
        site.set_robots_txt("User-agent: *\nDisallow: /")
        response = site.handle(Request(host="example.com", path="/robots.txt"))
        assert response.ok
        assert "Disallow" in response.text
        assert response.headers["Content-Type"].startswith("text/plain")

    def test_robots_txt_removable(self):
        site = make_site()
        site.set_robots_txt("User-agent: *\nDisallow: /")
        site.set_robots_txt(None)
        assert site.handle(Request(host="example.com", path="/robots.txt")).status == 404

    def test_head_omits_body(self):
        site = make_site()
        response = site.handle(Request(host="example.com", path="/", method="HEAD"))
        assert response.ok and response.content_length == 0

    def test_redirect_host(self):
        site = make_site()
        site.redirect_to_host = "www.example.com"
        response = site.handle(Request(host="example.com", path="/a"))
        assert response.status == 301
        assert response.headers["Location"] == "https://www.example.com/a"

    def test_requests_logged(self):
        site = make_site()
        site.handle(Request(host="example.com", path="/", headers={"User-Agent": "GPTBot/1.1"}))
        site.handle(Request(host="example.com", path="/robots.txt", headers={"User-Agent": "GPTBot/1.1"}))
        assert len(site.access_log) == 2
        assert site.access_log.fetched_robots("GPTBot")
        assert site.access_log.fetched_content("GPTBot")

    def test_invalid_page_path_rejected(self):
        with pytest.raises(ValueError):
            make_site().add_page("no-slash", "x")


class TestNetwork:
    def test_routing(self):
        net = Network()
        net.register(make_site("a.com"))
        net.register(make_site("b.com"))
        assert net.request(Request(host="a.com")).ok
        assert net.request(Request(host="B.COM")).ok

    def test_unknown_host_raises_dns_failure(self):
        with pytest.raises(DNSFailure):
            Network().request(Request(host="nope.com"))

    def test_failure_injection(self):
        net = armed_network(FaultRule("outage", hosts=("a.com",)))
        net.register(make_site("a.com"))
        with pytest.raises(ConnectionRefused):
            net.request(Request(host="a.com"))
        # A network built once the plan is disarmed has no faults.
        healthy = Network()
        healthy.register(make_site("a.com"))
        assert healthy.request(Request(host="a.com")).ok

    def test_reset_injection(self):
        # Faults fire after handler lookup, so the host must exist.
        net = armed_network(
            FaultRule("reset", hosts=("x.com",), max_per_host=None)
        )
        net.register(make_site("x.com"))
        with pytest.raises(ConnectionReset):
            net.request(Request(host="x.com"))

    def test_clock_propagates_to_site_logs(self):
        net = Network()
        site = make_site("a.com")
        net.register(site)
        net.now = 42.0
        net.request(Request(host="a.com"))
        assert list(site.access_log)[0].timestamp == 42.0


class TestFlakyInjectionAndRetries:
    def test_flaky_heals_after_n_failures(self):
        net = armed_network(
            FaultRule("reset", hosts=("example.com",), max_per_host=2)
        )
        net.register(make_site("example.com"))
        for _ in range(2):
            with pytest.raises(ConnectionReset):
                net.request(Request(host="example.com"))
        assert net.request(Request(host="example.com")).ok
