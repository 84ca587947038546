"""Tests for the deterministic fault-injection layer (repro.net.chaos)."""

from contextlib import nullcontext

import pytest

from repro.net import chaos
from repro.net.chaos import (
    FaultPlan,
    FaultRule,
    NAMED_PLANS,
    deterministic_fraction,
    plan,
    plan_names,
)
from repro.net.errors import ConnectionRefused, ConnectionReset, DNSFailure
from repro.net.http import Request
from repro.net.server import Website
from repro.net.transport import Network
from repro.obs.metrics import shared_registry


@pytest.fixture(autouse=True)
def _chaos_hygiene():
    """Every test leaves no armed plan and retries enabled."""
    yield
    chaos.deactivate()
    chaos.set_retries_enabled(True)


def make_net(*hosts, robots="User-agent: *\nDisallow: /private/",
             fault_plan=None, seed=0):
    """A network of *hosts*, built under *fault_plan* when one is given."""
    with chaos.chaos_active(fault_plan, seed) if fault_plan else nullcontext():
        net = Network()
    for host in hosts:
        site = Website(host)
        site.add_page("/", "<p>home</p>")
        site.set_robots_txt(robots)
        net.register(site)
    return net


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="meteor")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="reset", rate=1.5)

    def test_inverted_month_window_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="reset", months=(9, 6))

    def test_explicit_hosts_override_rate(self):
        rule = FaultRule(kind="reset", rate=0.0, hosts=("a.com",))
        assert rule.matches_host("a.com", 0, 0, "p")
        assert not rule.matches_host("b.com", 0, 0, "p")

    def test_host_suffix_filter(self):
        rule = FaultRule(kind="reset", host_suffix=".edu")
        assert rule.matches_host("lib.state.edu", 0, 0, "p")
        assert not rule.matches_host("lib.state.com", 0, 0, "p")

    def test_rate_sampling_is_deterministic(self):
        rule = FaultRule(kind="reset", rate=0.5)
        first = [rule.matches_host(f"h{i}.com", 3, 0, "p") for i in range(200)]
        second = [rule.matches_host(f"h{i}.com", 3, 0, "p") for i in range(200)]
        assert first == second
        # Roughly half the host space is affected.
        assert 60 < sum(first) < 140

    def test_different_seeds_sample_different_hosts(self):
        rule = FaultRule(kind="reset", rate=0.5)
        a = [rule.matches_host(f"h{i}.com", 0, 0, "p") for i in range(200)]
        b = [rule.matches_host(f"h{i}.com", 1, 0, "p") for i in range(200)]
        assert a != b

    def test_month_window_inclusive(self):
        rule = FaultRule(kind="outage", months=(6, 9))
        assert not rule.active_in(5)
        assert rule.active_in(6)
        assert rule.active_in(9)
        assert not rule.active_in(10)

    def test_no_window_always_active(self):
        assert FaultRule(kind="reset").active_in(-1)


class TestDeterministicFraction:
    def test_stable_across_calls(self):
        assert deterministic_fraction(1, "p", 0, "x.com") == deterministic_fraction(
            1, "p", 0, "x.com"
        )

    def test_in_unit_interval(self):
        for i in range(100):
            assert 0.0 <= deterministic_fraction(i, "plan", i, f"h{i}") < 1.0


def rule_plan(*rules, name="p"):
    return FaultPlan(name, rules)


class TestChaosController:
    def test_reset_fires_once_per_host_then_heals(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="reset", max_per_host=1)))
        with pytest.raises(ConnectionReset):
            net.request(Request(host="a.com"))
        assert net.request(Request(host="a.com")).ok

    def test_refuse_kind_raises_refused(self):
        net = make_net("a.com", fault_plan=rule_plan(FaultRule(kind="refuse")))
        with pytest.raises(ConnectionRefused):
            net.request(Request(host="a.com"))

    def test_outage_is_persistent(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="outage", max_per_host=1)))
        for _ in range(5):
            with pytest.raises(ConnectionRefused):
                net.request(Request(host="a.com"))

    def test_outage_respects_month_window(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="outage", months=(6, 9))))
        net.month = 5
        assert net.request(Request(host="a.com")).ok
        net.month = 7
        with pytest.raises(ConnectionRefused):
            net.request(Request(host="a.com"))
        net.month = 10
        assert net.request(Request(host="a.com")).ok

    def test_latency_advances_simulated_clock_only(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="latency", latency_seconds=2.5, max_per_host=None)))
        assert net.request(Request(host="a.com")).ok
        assert net.now == 2.5
        assert net.request(Request(host="a.com")).ok
        assert net.now == 5.0

    def test_agent_filter_only_hits_matching_ua(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="reset", agent_contains="claude")))
        ok = net.request(
            Request(host="a.com", headers={"User-Agent": "Mozilla/5.0"})
        )
        assert ok.ok
        with pytest.raises(ConnectionReset):
            net.request(
                Request(host="a.com", headers={"User-Agent": "Claudebot/1.0"})
            )

    def test_truncate_robots_cuts_body(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="truncate_robots", truncate_at=4)))
        response = net.request(Request(host="a.com", path="/robots.txt"))
        assert response.status == 200
        assert response.content_length == 4

    def test_garbage_robots_is_deterministic_junk(self):
        plan_obj = rule_plan(FaultRule(kind="garbage_robots"))
        first = make_net("a.com", fault_plan=plan_obj, seed=7)
        second = make_net("a.com", fault_plan=plan_obj, seed=7)
        a = first.request(Request(host="a.com", path="/robots.txt"))
        b = second.request(Request(host="a.com", path="/robots.txt"))
        assert a.body == b.body
        assert a.body != make_net("a.com").request(
            Request(host="a.com", path="/robots.txt")
        ).body

    def test_non_robots_paths_never_mutated(self):
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="garbage_robots")))
        assert "home" in net.request(Request(host="a.com", path="/")).text

    def test_dns_failure_wins_over_chaos(self):
        net = make_net(fault_plan=rule_plan(FaultRule(kind="reset")))
        with pytest.raises(DNSFailure):
            net.request(Request(host="ghost.example"))

    def test_injected_errors_flow_through_net_error_counters(self):
        registry = shared_registry()
        before = registry.counter_value("net.errors", kind="ConnectionReset")
        net = make_net("a.com", fault_plan=rule_plan(FaultRule(kind="reset")))
        with pytest.raises(ConnectionReset):
            net.request(Request(host="a.com"))
        after = registry.counter_value("net.errors", kind="ConnectionReset")
        assert after == before + 1

    def test_chaos_fault_counter_labeled_by_plan(self):
        registry = shared_registry()
        before = registry.counter_value("chaos.faults", kind="reset", plan="px")
        net = make_net("a.com", fault_plan=rule_plan(
            FaultRule(kind="reset"), name="px"))
        with pytest.raises(ConnectionReset):
            net.request(Request(host="a.com"))
        assert (
            registry.counter_value("chaos.faults", kind="reset", plan="px")
            == before + 1
        )

    def test_same_seed_same_faults_across_networks(self):
        plan_obj = rule_plan(FaultRule(kind="reset", rate=0.4))
        hosts = [f"h{i}.com" for i in range(50)]

        def faulted(seed):
            net = make_net(*hosts, fault_plan=plan_obj, seed=seed)
            out = set()
            for host in hosts:
                try:
                    net.request(Request(host=host))
                except ConnectionReset:
                    out.add(host)
            return out

        assert faulted(0) == faulted(0)
        assert faulted(0) != faulted(1)


class TestActivation:
    def test_activation_installs_on_new_networks(self):
        chaos.activate(FaultPlan("p", (FaultRule(kind="reset"),)), seed=0)
        net = make_net("a.com")
        with pytest.raises(ConnectionReset):
            net.request(Request(host="a.com"))
        chaos.deactivate()
        # A network built with no plan armed injects nothing.
        assert make_net("a.com").request(Request(host="a.com")).ok

    def test_chaos_active_context_restores_previous(self):
        inner = FaultPlan("inner", (FaultRule(kind="reset"),))
        outer = FaultPlan("outer", (FaultRule(kind="refuse"),))
        chaos.activate(outer, seed=3)
        with chaos.chaos_active(inner, seed=0):
            assert chaos.active_plan() == (inner, 0)
        assert chaos.active_plan() == (outer, 3)
        chaos.deactivate()
        assert chaos.active_plan() is None

    def test_retries_disabled_context(self):
        assert chaos.retries_enabled()
        with chaos.retries_disabled():
            assert not chaos.retries_enabled()
        assert chaos.retries_enabled()


class TestNamedPlans:
    def test_lookup_and_unknown(self):
        assert plan("flaky-resets").name == "flaky-resets"
        with pytest.raises(KeyError):
            plan("nope")

    def test_plan_names_sorted(self):
        names = plan_names()
        assert list(names) == sorted(names)
        assert "flaky-resets" in names

    def test_all_named_plans_have_valid_rules(self):
        for name, p in NAMED_PLANS.items():
            assert p.name == name
            assert p.rules
            assert p.description

    def test_transient_plans_are_heal_bounded(self):
        # The byte-identity guarantee rests on every fault of these
        # plans being bounded per host (a retry pass can always heal).
        for name in ("flaky-resets", "flaky-refusals", "ai-probe-resets",
                     "mixed-storm"):
            for rule in NAMED_PLANS[name].rules:
                if rule.kind in ("reset", "refuse"):
                    assert rule.max_per_host is not None, (name, rule)

    def test_ai_probe_resets_spare_browser_traffic(self):
        net = make_net("a.com", fault_plan=NAMED_PLANS["ai-probe-resets"])
        assert net.request(
            Request(host="a.com", headers={"User-Agent": "Mozilla/5.0 Chrome"})
        ).ok
        with pytest.raises(ConnectionReset):
            net.request(
                Request(host="a.com", headers={"User-Agent": "Claudebot/1.0"})
            )
        with pytest.raises(ConnectionReset):
            net.request(
                Request(host="a.com", headers={"User-Agent": "anthropic-ai"})
            )
