"""Tests for repro.net.accesslog."""

import pytest

from repro.net.accesslog import (
    AccessLog,
    LogEntry,
    reset_agent_label_memo,
    set_log_sink,
)
from repro.net.logstore import LogSink
from repro.obs.metrics import metrics_disabled, set_metrics_enabled, shared_registry


def entry(path="/", ua="GPTBot/1.1", ip="1.2.3.4", status=200, ts=0.0):
    return LogEntry(
        timestamp=ts,
        client_ip=ip,
        path=path,
        status=status,
        user_agent=ua,
    )


class TestLogEntry:
    def test_is_robots_fetch(self):
        assert entry("/robots.txt").is_robots_fetch
        assert entry("/robots.txt?x=1").is_robots_fetch
        assert not entry("/page").is_robots_fetch


class TestAccessLog:
    def _log(self):
        log = AccessLog()
        log.append(entry("/robots.txt", "GPTBot/1.1"))
        log.append(entry("/page", "GPTBot/1.1"))
        log.append(entry("/page", "Bytespider", ip="5.6.7.8"))
        return log

    def test_len_and_iter(self):
        log = self._log()
        assert len(log) == 3
        assert len(list(log)) == 3

    def test_filter_by_ua_substring_case_insensitive(self):
        assert len(self._log().entries(user_agent_contains="gptbot")) == 2

    def test_fetched_robots_and_content(self):
        log = self._log()
        assert log.fetched_robots("GPTBot")
        assert log.fetched_content("GPTBot")
        assert not log.fetched_robots("Bytespider")
        assert log.fetched_content("Bytespider")

    def test_content_paths(self):
        assert self._log().content_paths("GPTBot") == ["/page"]


class TestAgentLabel:
    def test_known_tokens_normalize(self):
        from repro.net.accesslog import agent_label

        assert agent_label("GPTBot/1.1") == "GPTBot"
        assert agent_label("Mozilla/5.0 (compatible; ccbot/2.0)") == "CCBot"
        assert agent_label("Bytespider") == "Bytespider"

    def test_unknown_ua_is_other(self):
        from repro.net.accesslog import agent_label

        assert agent_label("Mozilla/5.0 (X11; Linux) Firefox/130.0") == "other"
        assert agent_label("") == "other"


@pytest.fixture()
def recording():
    """Metrics on, a fresh ``sim.requests`` registry, and a log sink."""
    sink = LogSink()
    set_metrics_enabled(True)
    shared_registry().reset()
    reset_agent_label_memo()
    previous = set_log_sink(sink)
    yield sink
    set_log_sink(previous)
    shared_registry().reset()
    reset_agent_label_memo()


class TestAppend:
    def test_one_append_feeds_the_series_and_the_sink(self, recording):
        log = AccessLog()
        log.append(LogEntry(
            timestamp=1.5, client_ip="1.2.3.4", path="/robots.txt",
            status=200, user_agent="GPTBot/1.1", host="a.example",
            month=3, outcome="served", category="news",
        ))
        log.append(LogEntry(
            timestamp=2.0, client_ip="1.2.3.4", path="/x", status=403,
            user_agent="GPTBot/1.1", host="a.example", month=3,
            outcome="blocked_403",
        ))
        assert len(log) == 2
        series = shared_registry()
        served = series.series("sim.requests", agent="GPTBot", outcome="served",
                               site_category="news")
        assert served.points().get(3, 0) == 1
        # An empty category projects as "uncategorized".
        blocked = series.series("sim.requests", agent="GPTBot",
                                outcome="blocked_403",
                                site_category="uncategorized")
        assert blocked.points().get(3, 0) == 1
        events = recording.delta({})["main"]
        assert events == [
            ("a.example", "/robots.txt", "GPTBot/1.1", "GPTBot", "served",
             "news", 3, 200, 1500, True),
            ("a.example", "/x", "GPTBot/1.1", "GPTBot", "blocked_403",
             "uncategorized", 3, 403, 2000, False),
        ]

    def test_metrics_off_still_emits_but_records_no_series(self, recording):
        with metrics_disabled():
            AccessLog().append(entry())
        assert recording.event_count() == 1
        assert shared_registry().snapshot()["series"] == {}
