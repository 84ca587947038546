"""Tests for repro.net.accesslog."""

from repro.net.accesslog import AccessLog, LogEntry


def entry(path="/", ua="GPTBot/1.1", ip="1.2.3.4", status=200, ts=0.0):
    return LogEntry(
        timestamp=ts,
        client_ip=ip,
        method="GET",
        path=path,
        status=status,
        body_bytes=100,
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

    def test_filter_by_path(self):
        assert len(self._log().entries(path="/page")) == 2

    def test_filter_by_predicate(self):
        hits = self._log().entries(predicate=lambda e: e.client_ip == "5.6.7.8")
        assert len(hits) == 1

    def test_fetched_robots_and_content(self):
        log = self._log()
        assert log.fetched_robots("GPTBot")
        assert log.fetched_content("GPTBot")
        assert not log.fetched_robots("Bytespider")
        assert log.fetched_content("Bytespider")

    def test_content_paths(self):
        assert self._log().content_paths("GPTBot") == ["/page"]

    def test_user_agents_seen_order(self):
        assert self._log().user_agents_seen() == ["GPTBot/1.1", "Bytespider"]

    def test_ips_for(self):
        assert self._log().ips_for("Bytespider") == ["5.6.7.8"]

    def test_clear(self):
        log = self._log()
        log.clear()
        assert len(log) == 0

    def test_append_stamps_monotonic_sequence_numbers(self):
        log = self._log()
        assert [e.seq for e in log] == [0, 1, 2]

    def test_prestamped_entries_keep_their_seq(self):
        log = AccessLog()
        first = entry("/a")
        object.__setattr__(first, "seq", 41)
        log.append(first)
        log.append(entry("/b"))
        # The pre-stamped entry keeps 41; numbering still advances, so
        # the next fresh entry sorts after it within this log.
        assert [e.seq for e in log] == [41, 1]

    def test_clear_restarts_sequence_numbering(self):
        log = self._log()
        log.clear()
        log.append(entry("/x"))
        assert next(iter(log)).seq == 0

    def test_summary_counts_per_agent_in_first_seen_order(self):
        summary = self._log().summary()
        assert list(summary) == ["GPTBot/1.1", "Bytespider"]
        assert summary["GPTBot/1.1"] == {"requests": 2, "robots_fetches": 1}
        assert summary["Bytespider"] == {"requests": 1, "robots_fetches": 0}

    def test_publish_feeds_the_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        self._log().publish(registry, site="testbed-wildcard.example")
        labels = {"agent": "GPTBot/1.1", "site": "testbed-wildcard.example"}
        assert registry.counter_value("accesslog.requests", **labels) == 2
        assert registry.counter_value("accesslog.robots_fetches", **labels) == 1
        # Agents with zero robots fetches get no robots counter row.
        assert registry.counter_value(
            "accesslog.robots_fetches",
            agent="Bytespider",
            site="testbed-wildcard.example",
        ) == 0


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


class TestMonthlySummary:
    def _log(self):
        log = AccessLog()

        def month_entry(path, ua, status, month):
            record = entry(path, ua, status=status)
            object.__setattr__(record, "month", month)
            return record

        log.append(month_entry("/robots.txt", "GPTBot/1.1", 200, 0))
        log.append(month_entry("/page", "GPTBot/1.1", 200, 0))
        log.append(month_entry("/page", "GPTBot/1.1", 403, 3))
        log.append(month_entry("/page", "Bytespider", 200, 3))
        log.append(month_entry("/page", "SomeBrowser", 200, 3))
        return log

    def test_rollup_buckets_by_agent_and_month(self):
        summary = self._log().monthly_summary()
        assert summary["GPTBot"][0] == {
            "requests": 2, "robots_fetches": 1, "blocked": 0,
        }
        assert summary["GPTBot"][3] == {
            "requests": 1, "robots_fetches": 0, "blocked": 1,
        }
        assert summary["Bytespider"][3]["requests"] == 1
        assert summary["other"][3]["requests"] == 1

    def test_months_ascending_with_gaps_filled(self):
        log = AccessLog()
        for month in (24, 0, 12):
            record = entry("/page")
            object.__setattr__(record, "month", month)
            log.append(record)
        assert list(log.monthly_summary()["GPTBot"]) == list(range(25))

    def test_gap_months_are_explicit_zero_entries(self):
        summary = self._log().monthly_summary()
        # Months 1 and 2 saw no traffic from anyone; a dashboard axis
        # still needs them, as explicit zero rows rather than holes.
        for agent in ("GPTBot", "Bytespider", "other"):
            assert list(summary[agent]) == [0, 1, 2, 3]
            for month in (1, 2):
                assert summary[agent][month] == {
                    "requests": 0, "robots_fetches": 0, "blocked": 0,
                }

    def test_gap_fill_spans_all_agents(self):
        # Bytespider only appears in month 3, but the shared axis starts
        # at month 0 (GPTBot's first appearance).
        summary = self._log().monthly_summary()
        assert summary["Bytespider"][0]["requests"] == 0

    def test_fill_gaps_false_preserves_sparse_rollup(self):
        summary = self._log().monthly_summary(fill_gaps=False)
        assert list(summary["GPTBot"]) == [0, 3]
        assert list(summary["Bytespider"]) == [3]

    def test_unclocked_entries_land_in_minus_one(self):
        log = AccessLog()
        log.append(entry("/page"))
        assert list(log.monthly_summary()["GPTBot"]) == [-1]

    def test_unclocked_bucket_never_gap_filled(self):
        log = self._log()
        log.append(entry("/page"))  # unclocked -> month -1
        summary = log.monthly_summary()
        # The -1 bucket stays out of the filled axis: clocked months get
        # zeros, the sentinel does not leak into other agents' rows.
        assert list(summary["GPTBot"]) == [-1, 0, 1, 2, 3]
        assert -1 not in summary["Bytespider"]

    def test_publish_unchanged_by_gap_fill(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.series import SeriesRegistry

        series = SeriesRegistry()
        self._log().publish(registry=MetricsRegistry(), series=series)
        # Zero-amount adds are no-ops, so gap-filled months must not
        # materialize series points (SERIES.json bytes stay stable).
        snapshot = series.snapshot()
        assert snapshot  # publish did record the real traffic
        for months in snapshot.values():
            assert all(amount != 0 for amount in months.values())

    def test_publish_feeds_monthly_series(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.series import SeriesRegistry

        series = SeriesRegistry()
        self._log().publish(registry=MetricsRegistry(), series=series)
        assert series.value_at("accesslog.requests", 0, agent="GPTBot") == 2
        assert series.value_at("accesslog.requests", 3, agent="GPTBot") == 1
        assert series.value_at("accesslog.requests", 3, agent="other") == 1
