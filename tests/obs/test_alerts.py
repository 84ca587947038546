"""SLO/alerting rules: loading and per-kind evaluation."""

import json

import pytest

from repro.obs.alerts import AlertError, AlertRule, evaluate, load_rules


def _series_payload(entries):
    """``{rendered_key: {month: amount}}`` -> SERIES.json shape."""
    rendered = {}
    for key, points in entries.items():
        months = sorted(points)
        rendered[key] = {
            "months": months,
            "values": [points[m] for m in months],
            "total": sum(points.values()),
        }
    return {"schema_version": 1, "series": rendered}


def _metrics_payload(counters):
    return {"schema_version": 1, "counters": counters, "gauges": {},
            "histograms": {}}


class TestLoadRules:
    def test_toml_rule_tables(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[rule]]\n'
            'name = "burn"\n'
            'kind = "burn_rate"\n'
            'series = "sim.requests"\n'
            'labels = {outcome = "blocked_403"}\n'
            'total_labels = {}\n'
            'window = 2\n'
            'threshold = 0.1\n'
        )
        (rule,) = load_rules(path)
        assert rule.name == "burn"
        assert rule.labels == (("outcome", "blocked_403"),)
        assert rule.total_labels == ()
        assert rule.window == 2

    def test_json_rules_array(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rules": [
            {"name": "errs", "kind": "threshold", "counter": "net.errors",
             "threshold": 5},
        ]}))
        (rule,) = load_rules(path)
        assert rule.kind == "threshold"
        assert rule.threshold == 5.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(AlertError, match="missing rules file"):
            load_rules(tmp_path / "nope.toml")

    def test_unrecognized_suffix(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("rules: []")
        with pytest.raises(AlertError, match="unrecognized rules format"):
            load_rules(path)

    def test_empty_rules_rejected(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text('title = "nothing"\n')
        with pytest.raises(AlertError, match="defines no rules"):
            load_rules(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "kind": "sorcery", "counter": "c"},
        ]}))
        with pytest.raises(AlertError, match="unknown kind"):
            load_rules(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "kind": "threshold", "counter": "c", "widnow": 3},
        ]}))
        with pytest.raises(AlertError, match="unknown field"):
            load_rules(path)

    def test_burn_rate_needs_series(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "kind": "burn_rate", "counter": "c"},
        ]}))
        with pytest.raises(AlertError, match="needs a 'series' selector"):
            load_rules(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "kind": "threshold", "counter": "a"},
            {"name": "x", "kind": "threshold", "counter": "b"},
        ]}))
        with pytest.raises(AlertError, match="duplicate rule name"):
            load_rules(path)


class TestBurnRate:
    def _series(self):
        return _series_payload({
            "sim.requests{agent=GPTBot,outcome=blocked_403}":
                {0: 1, 1: 1, 2: 8, 3: 9},
            "sim.requests{agent=GPTBot,outcome=ok}":
                {0: 9, 1: 9, 2: 2, 3: 1},
        })

    def test_ratio_mode_fires_on_worst_window(self):
        rule = AlertRule(name="burn", kind="burn_rate", series="sim.requests",
                         labels=(("outcome", "blocked_403"),),
                         total_labels=(), window=2, threshold=0.5)
        (event,) = evaluate([rule], None, self._series())
        assert event.value == pytest.approx(17 / 20)  # months [2..3]
        assert event.context["window_start"] == 2

    def test_ratio_mode_clean_below_threshold(self):
        rule = AlertRule(name="burn", kind="burn_rate", series="sim.requests",
                         labels=(("outcome", "blocked_403"),),
                         total_labels=(), window=2, threshold=0.9)
        assert evaluate([rule], None, self._series()) == []

    def test_absolute_mode_sums_events(self):
        rule = AlertRule(name="burn", kind="burn_rate", series="sim.requests",
                         labels=(("outcome", "blocked_403"),),
                         window=2, threshold=16)
        (event,) = evaluate([rule], None, self._series())
        assert event.value == 17

    def test_no_matching_points_is_clean(self):
        rule = AlertRule(name="burn", kind="burn_rate", series="sim.requests",
                         labels=(("outcome", "challenged"),), threshold=0)
        assert evaluate([rule], None, self._series()) == []


class TestDrift:
    def _rule(self, threshold=0.1):
        return AlertRule(name="drift", kind="drift",
                         counter="web.robots_changes", threshold=threshold)

    def _evaluate(self, rule, current, baseline):
        baseline_metrics = None if baseline is None else _metrics_payload(baseline)
        return evaluate([rule], _metrics_payload(current), None,
                        baseline_metrics=baseline_metrics)

    def test_needs_baseline(self):
        with pytest.raises(AlertError, match="needs a baseline"):
            self._evaluate(self._rule(), {"web.robots_changes": 10}, None)

    def test_fires_on_relative_change(self):
        (event,) = self._evaluate(self._rule(), {"web.robots_changes": 15},
                                  {"web.robots_changes": 10})
        assert event.value == pytest.approx(0.5)

    def test_clean_when_within_threshold(self):
        assert self._evaluate(self._rule(threshold=0.6),
                              {"web.robots_changes": 15},
                              {"web.robots_changes": 10}) == []

    def test_appearing_from_zero_baseline_fires(self):
        (event,) = self._evaluate(self._rule(), {"web.robots_changes": 3}, {})
        assert event.value == float("inf")
        assert "appeared" in event.message


class TestCardinality:
    def test_overflow_bucket_fires(self):
        series = _series_payload({
            "sim.requests{agent=GPTBot}": {0: 1},
            "sim.requests{overflow=true}": {0: 5},
        })
        rule = AlertRule(name="card", kind="cardinality", series="sim.requests")
        (event,) = evaluate([rule], None, series)
        assert event.context["overflow"] is True

    def test_max_series_fires(self):
        series = _series_payload({
            f"sim.requests{{agent=A{i}}}": {0: 1} for i in range(4)
        })
        rule = AlertRule(name="card", kind="cardinality",
                         series="sim.requests", max_series=3)
        (event,) = evaluate([rule], None, series)
        assert event.value == 4.0

    def test_clean_under_limit(self):
        series = _series_payload({"sim.requests{agent=GPTBot}": {0: 1}})
        rule = AlertRule(name="card", kind="cardinality",
                         series="sim.requests", max_series=3)
        assert evaluate([rule], None, series) == []


class TestErrorBudget:
    def test_fires_over_budget(self):
        metrics = _metrics_payload({"net.errors": 30, "net.responses": 100})
        rule = AlertRule(name="budget", kind="error_budget",
                         counter="net.errors", total_counter="net.responses",
                         threshold=0.25)
        (event,) = evaluate([rule], metrics, None)
        assert event.value == pytest.approx(0.3)

    def test_clean_with_zero_total(self):
        rule = AlertRule(name="budget", kind="error_budget",
                         counter="net.errors", total_counter="net.responses",
                         threshold=0.25)
        assert evaluate([rule], _metrics_payload({}), None) == []


class TestThreshold:
    def test_above_fires(self):
        rule = AlertRule(name="t", kind="threshold", counter="net.errors",
                         threshold=5)
        metrics = _metrics_payload({"net.errors{kind=reset}": 4,
                                    "net.errors{kind=timeout}": 3})
        (event,) = evaluate([rule], metrics, None)
        assert event.value == 7.0  # label subsets sum across the family

    def test_below_fires(self):
        rule = AlertRule(name="t", kind="threshold", counter="sim.requests",
                         threshold=100, comparison="below")
        (event,) = evaluate([rule], _metrics_payload({"sim.requests": 10}), None)
        assert "below" in event.message


class TestLogVolume:
    #: Per (agent, month): CCBot 5, 3; GPTBot 10, 40 (30 + 10 across two
    #: request cells of month 1).
    SERIES = _series_payload({
        "sim.requests{agent=CCBot,outcome=served,site_category=news}":
            {0: 5, 1: 3},
        "sim.requests{agent=GPTBot,outcome=served,site_category=news}":
            {0: 10, 1: 30},
        "sim.requests{agent=GPTBot,outcome=blocked_403,site_category=blog}":
            {1: 10},
        "crawl.requests{agent=CCBot}": {1: 1000},
    })

    def _rule(self, **kwargs):
        base = dict(name="volume", kind="log_volume", threshold=20)
        base.update(kwargs)
        return AlertRule(**base)

    def test_breach_fires_worst_month_with_context(self):
        (event,) = evaluate([self._rule()], None, self.SERIES)
        assert event.value == 40.0
        assert event.context == {"agent": "GPTBot", "month": 1}
        assert "GPTBot" in event.message and "month 1" in event.message

    def test_agent_label_filters_timelines(self):
        rule = self._rule(labels=(("agent", "CCBot"),), threshold=2)
        (event,) = evaluate([rule], None, self.SERIES)
        assert event.context["agent"] == "CCBot"
        assert event.value == 5.0

    def test_below_comparison_flags_quiet_months(self):
        rule = self._rule(comparison="below", threshold=4)
        (event,) = evaluate([rule], None, self.SERIES)
        assert event.context == {"agent": "CCBot", "month": 1}
        assert event.value == 3.0

    def test_clean_threshold_is_silent(self):
        rule = self._rule(threshold=100)
        assert evaluate([rule], None, self.SERIES) == []

    def test_rule_rejects_series_selector(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[rule]]\n'
            'name = "volume"\n'
            'kind = "log_volume"\n'
            'series = "sim.requests"\n'
            'threshold = 1\n'
        )
        with pytest.raises(AlertError, match="reads the request cells of SERIES.json's sim.requests series"):
            load_rules(path)


class TestAlertEvent:
    def test_rules_evaluate_in_order(self):
        rules = [
            AlertRule(name="b", kind="threshold", counter="x", threshold=0),
            AlertRule(name="a", kind="threshold", counter="x", threshold=0),
        ]
        events = evaluate(rules, _metrics_payload({"x": 5}), None)
        assert [event.rule for event in events] == ["b", "a"]
