"""Prometheus text exposition: the renderer and the HTTP handler."""

import json

from repro.net.http import Request
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import MetricsHandler, render_prometheus


class TestRenderPrometheus:
    def _payloads(self):
        registry = MetricsRegistry()
        registry.counter("net.responses", status="200").inc(5)
        registry.set_gauge("cache.hit_rate", 0.75)
        registry.observe("net.bytes", 10.0)
        registry.add("sim.requests", month=1, amount=2, agent="GPTBot")
        return registry.to_json(), registry.series_json()

    def test_counters_render_with_total_suffix_and_labels(self):
        metrics, series = self._payloads()
        text = render_prometheus(metrics, series)
        assert 'net_responses_total{status="200"} 5' in text
        assert "# TYPE net_responses_total counter" in text

    def test_gauges_render_bare(self):
        metrics, series = self._payloads()
        assert "cache_hit_rate 0.75" in render_prometheus(metrics, series)

    def test_histograms_render_cumulative_buckets(self):
        metrics, series = self._payloads()
        text = render_prometheus(metrics, series)
        assert 'net_bytes_bucket{le="+Inf"} 1' in text
        assert "net_bytes_count 1" in text
        assert "net_bytes_sum 10" in text

    def test_series_render_with_monthly_suffix(self):
        metrics, series = self._payloads()
        text = render_prometheus(metrics, series)
        assert 'sim_requests_monthly{agent="GPTBot",month="1"} 2' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("net.errors", kind='say "hi"\nnow')
        text = render_prometheus(registry.to_json(), None)
        assert 'kind="say \\"hi\\"\\nnow"' in text

    def test_every_line_is_comment_or_sample(self):
        metrics, series = self._payloads()
        for line in render_prometheus(metrics, series).splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


class TestMetricsHandler:
    def _handler(self):
        registry = MetricsRegistry()
        registry.counter("net.requests").inc(9)
        return MetricsHandler(
            registry.to_json(), registry.series_json(), health={"mode": "test"}
        )

    def _get(self, handler, path):
        return handler.handle(Request(host="127.0.0.1", path=path, scheme="http"))

    def test_metrics_route_serves_prometheus_text(self):
        response = self._get(self._handler(), "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "net_requests_total 9" in response.text

    def test_healthz_merges_custom_payload(self):
        handler = self._handler()
        self._get(handler, "/metrics")
        payload = json.loads(self._get(handler, "/healthz").text)
        assert payload == {"mode": "test", "requests": 2, "status": "ok"}

    def test_unknown_route_is_404(self):
        handler = self._handler()
        assert self._get(handler, "/nope").status == 404
        assert handler.requests == 1
