"""Integration tests: serving simulated sites over real TCP sockets."""

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.net import realserver
from repro.net.http import Request
from repro.net.realserver import RealHttpServer, fetch_real
from repro.net.server import Website, render_page
from repro.net.transport import Network, current_month


def make_site():
    site = Website("testbed.local")
    site.add_page("/", render_page("Testbed", links=["/page1"]))
    site.add_page("/page1", render_page("Page 1"))
    site.set_robots_txt("User-agent: *\nDisallow: /\n")
    return site


class TestRealHttpServer:
    def test_serves_pages_over_tcp(self):
        site = make_site()
        with RealHttpServer(site) as server:
            response = fetch_real(f"http://{server.address}/", user_agent="IntTest/1.0")
        assert response.ok
        assert "Testbed" in response.text

    def test_serves_robots_txt(self):
        site = make_site()
        with RealHttpServer(site) as server:
            response = fetch_real(f"http://{server.address}/robots.txt")
        assert response.ok
        assert "Disallow: /" in response.text

    def test_404_for_missing_page(self):
        with RealHttpServer(make_site()) as server:
            response = fetch_real(f"http://{server.address}/missing")
        assert response.status == 404

    def test_user_agent_reaches_access_log(self):
        site = make_site()
        with RealHttpServer(site) as server:
            fetch_real(f"http://{server.address}/page1", user_agent="GPTBot/1.1")
        assert site.access_log.fetched_content("GPTBot")
        entries = site.access_log.entries(user_agent_contains="GPTBot")
        assert entries[0].client_ip == "127.0.0.1"

    def test_host_header_routes_virtual_host(self):
        site = make_site()
        with RealHttpServer(site) as server:
            response = fetch_real(
                f"http://{server.address}/", host_header="testbed.local"
            )
        assert response.ok

    def test_multiple_sequential_requests(self):
        site = make_site()
        with RealHttpServer(site) as server:
            for _ in range(5):
                assert fetch_real(f"http://{server.address}/").ok
        assert len(site.access_log) == 5


#: Serves a site with a budget of one access-log entry, through a
#: handler that stalls after the origin has logged the request, and
#: exits as soon as ``serve`` returns.
STALLING_SERVER = """
import time
from repro.net.realserver import RealHttpServer
from repro.net.server import Website

class LogsThenStalls:
    host = "testbed.local"

    def handle(self, request):
        response = site.handle(request)
        time.sleep(0.3)
        return response

site = Website("testbed.local")
site.add_page("/big", "x" * 200_000)
server = RealHttpServer(LogsThenStalls())
print(server.address, flush=True)
server.serve(lambda: len(site.access_log) >= 1)
"""


class TestServe:
    def test_budget_ends_serving_only_after_the_answer_is_sent(self):
        # The budget counts access-log entries, which the origin appends
        # before the bridge writes its response.  A loop that checked
        # the budget while the response was still being written would
        # let the child exit mid-body.
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", STALLING_SERVER],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            address = proc.stdout.readline().strip()
            response = fetch_real(f"http://{address}/big")
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert response.ok and response.text == "x" * 200_000
        assert response.headers.get("Connection") == "close"


class TestIdleClient:
    def test_an_idle_connection_holds_the_bridge_only_until_its_timeout(
        self, monkeypatch
    ):
        # A client that connects and sends nothing (a browser's
        # speculative preconnect) is dropped after the read timeout, so
        # the next client is answered, and the dropped connection logs
        # nothing toward the serving budget.
        monkeypatch.setattr(realserver, "READ_TIMEOUT_S", 0.5)
        site = make_site()
        server = RealHttpServer(site)
        serving = threading.Thread(
            target=server.serve, args=(lambda: len(site.access_log) >= 1,), daemon=True
        )
        serving.start()
        host, port = server.address.split(":")
        with socket.create_connection((host, int(port))):
            started = time.monotonic()
            response = fetch_real(f"http://{server.address}/page1")
            elapsed = time.monotonic() - started
            serving.join(timeout=10)
        assert response.ok
        assert elapsed < realserver.READ_TIMEOUT_S + 2.0
        assert not serving.is_alive()
        assert [entry.path for entry in site.access_log] == ["/page1"]


class TestMonthClock:
    def test_only_a_dispatch_reads_its_network_month(self):
        site = make_site()
        network = Network()
        network.register(site)
        network.month = 5
        network.request(Request(host="testbed.local", path="/page1"))
        # The dispatch restores the clock, so a direct call and a
        # request the bridge hands straight to the site are unclocked.
        assert current_month() == -1
        site.handle(Request(host="testbed.local", path="/page1"))
        with RealHttpServer(site) as server:
            assert fetch_real(f"http://{server.address}/page1").ok
        assert [entry.month for entry in site.access_log] == [5, -1, -1]
