"""Tests for active-blocking detection and the Cloudflare audit."""

import pytest

from repro.agents.catalogs import CLOUDFLARE_AI_BOTS_BLOCKED, generic_crawler_user_agents
from repro.agents.darkvisitors import build_registry
from repro.measure.active_blocking import (
    detect_active_blocking,
    survey_active_blocking,
)
from repro.measure.cloudflare_audit import (
    BlockAISetting,
    audit_cloudflare_sites,
    infer_blocked_agents,
    infer_site_setting,
)
from repro.net.chaos import NAMED_PLANS, FaultPlan, FaultRule, chaos_active
from repro.net.server import Website, render_page
from repro.net.transport import Network
from repro.proxy.cloudflare import CloudflareProxy, CloudflareSettings
from repro.proxy.reverse_proxy import ReverseProxy
from repro.proxy.rules import Action, BlockRule, RuleSet
from repro.web.population import PopulationConfig, build_web_population
from repro.web.site import BlockingConfig, SimSite


def armed_network(fault_plan):
    """A network built while *fault_plan* is armed."""
    with chaos_active(fault_plan):
        return Network()


def plain_site(host):
    site = Website(host)
    site.add_page("/", render_page("Home", paragraphs=["content " * 30]))
    return site


class TestDetectActiveBlocking:
    def test_open_site_not_flagged(self):
        net = Network()
        net.register(plain_site("open.com"))
        verdict = detect_active_blocking(net, "open.com")
        assert not verdict.excluded and not verdict.blocks_ai

    def test_ua_blocking_site_flagged(self):
        net = Network()
        rules = RuleSet([BlockRule(Action.BLOCK, ["Claudebot", "anthropic-ai"])])
        net.register(ReverseProxy(plain_site("waf.com"), rules))
        verdict = detect_active_blocking(net, "waf.com")
        assert verdict.blocks_ai and not verdict.excluded

    def test_automation_blocking_site_excluded(self):
        net = Network()
        net.register(ReverseProxy(plain_site("fp.com"), block_all_automation=True))
        verdict = detect_active_blocking(net, "fp.com")
        assert verdict.excluded

    def test_transport_error_counts_as_blocking(self):
        # Every ClaudeBot connection is dropped, re-probes included.
        net = armed_network(FaultPlan("drop", (FaultRule(
            "reset", agent_contains="claudebot", max_per_host=None
        ),)))
        net.register(plain_site("reset.com"))
        verdict = detect_active_blocking(net, "reset.com")
        assert verdict.ai_probes["Claudebot/1.0"].failed
        assert verdict.blocks_ai

    def test_block_page_with_same_status_detected_via_length(self):
        # A site that serves a tiny block page with status 200.
        class SneakyProxy(ReverseProxy):
            def handle(self, request):
                if "claudebot" in request.user_agent.lower():
                    from repro.net.http import Response

                    return Response(status=200, body="<p>denied</p>")
                return self.origin.handle(request)

        net = Network()
        net.register(SneakyProxy(plain_site("sneaky.com")))
        verdict = detect_active_blocking(net, "sneaky.com")
        assert verdict.blocks_ai

    def test_unresolvable_site_excluded(self):
        verdict = detect_active_blocking(Network(), "ghost.example")
        assert verdict.excluded


class TestSurveyOverPopulation:
    @pytest.fixture(scope="class")
    def audit_world(self):
        config = PopulationConfig(
            universe_size=1200, list_size=800, top5k_cut=100, audit_size=500, seed=3
        )
        population = build_web_population(config)
        net = Network()
        population.materialize(net, month=24, sites=population.audit_sites)
        return population, net

    def test_rates_in_paper_bands(self, audit_world):
        population, net = audit_world
        hosts = [s.domain for s in population.audit_sites]
        survey = survey_active_blocking(net, hosts)
        excluded_rate = survey.n_excluded / survey.n_sites
        blocking_rate = survey.n_blocking / survey.n_sites
        assert 0.08 < excluded_rate < 0.25   # paper: 15%
        assert 0.07 < blocking_rate < 0.25   # paper: 14%

    def test_blockers_rarely_use_robots(self, audit_world):
        population, net = audit_world
        hosts = [s.domain for s in population.audit_sites]
        survey = survey_active_blocking(net, hosts)
        from repro.core.classify import classify

        both = 0
        for host in survey.blocking_hosts():
            text = population.by_domain[host].robots_at(24)
            if text and any(
                classify(text, a).level.disallows
                for a in ("ClaudeBot", "anthropic-ai")
            ):
                both += 1
        # Section 6.2: only ~2% of blockers also restrict via robots.txt.
        assert both / max(survey.n_blocking, 1) < 0.25


class TestGreyBox:
    def _zone_factory(self, enabled):
        net = Network()
        origin = plain_site("own.example")
        net.register(
            CloudflareProxy(origin, CloudflareSettings(block_ai_bots=enabled)),
            host="own.example",
        )
        return net

    def test_recovers_cloudflare_ai_list(self):
        registry = build_registry()
        candidates = [a.full_user_agent for a in registry.real_crawlers()]
        candidates += generic_crawler_user_agents()[:100]
        flipped = infer_blocked_agents(self._zone_factory, candidates, "own.example")
        # Every flipped UA matches a documented pattern and vice versa
        # for the Table 1 crawlers present in the list.
        from repro.agents.useragent import matches_any

        for user_agent in flipped:
            assert matches_any(user_agent, CLOUDFLARE_AI_BOTS_BLOCKED)
        blocked_tokens = {"Bytespider", "ClaudeBot", "GPTBot", "CCBot", "PerplexityBot"}
        for agent in registry.real_crawlers():
            if agent.token in blocked_tokens:
                assert agent.full_user_agent in flipped, agent.token

    def test_exempt_verified_bots_not_flipped(self):
        registry = build_registry()
        candidates = [a.full_user_agent for a in registry.real_crawlers()]
        flipped = infer_blocked_agents(self._zone_factory, candidates, "own.example")
        applebot = registry.get("Applebot").full_user_agent
        searchbot = registry.get("OAI-SearchBot").full_user_agent
        assert applebot not in flipped
        assert searchbot not in flipped


class TestFigure7Inference:
    def _zone(self, **kwargs):
        confound = kwargs.pop("confound", False)
        site = SimSite(domain="zone.example", rank=1)
        site.blocking = BlockingConfig(
            cloudflare=CloudflareSettings(**kwargs), cf_custom_confound=confound
        )
        net = Network()
        net.register(site.build_handler(24), host="zone.example")
        return net

    def test_off_zone(self):
        audit = infer_site_setting(self._zone(), "zone.example")
        assert audit.setting is BlockAISetting.OFF
        assert audit.definitely_automated is False

    def test_on_zone(self):
        audit = infer_site_setting(self._zone(block_ai_bots=True), "zone.example")
        assert audit.setting is BlockAISetting.ON

    def test_definitely_automated_only(self):
        audit = infer_site_setting(
            self._zone(definitely_automated=True), "zone.example"
        )
        assert audit.setting is BlockAISetting.OFF
        assert audit.definitely_automated is True

    def test_both_enabled_reads_on(self):
        audit = infer_site_setting(
            self._zone(block_ai_bots=True, definitely_automated=True),
            "zone.example",
        )
        assert audit.setting is BlockAISetting.ON

    def test_confound_indeterminate(self):
        audit = infer_site_setting(self._zone(confound=True), "zone.example")
        assert audit.setting is BlockAISetting.INDETERMINATE

    def test_population_audit_bands(self):
        config = PopulationConfig(
            universe_size=1200, list_size=800, top5k_cut=100, audit_size=500, seed=9
        )
        population = build_web_population(config)
        net = Network()
        population.materialize(net, month=24, sites=population.audit_sites)
        cf_hosts = [
            s.domain for s in population.audit_sites if s.blocking.on_cloudflare
        ]
        summary = audit_cloudflare_sites(net, cf_hosts)
        determined_rate = summary.n_determined / summary.n_sites
        assert determined_rate > 0.8           # paper: 93%
        enabled_rate = summary.n_enabled / max(summary.n_determined, 1)
        assert 0.01 < enabled_rate < 0.15      # paper: 5.7%


def flaky_control(failures):
    """The first *failures* requests to ``open.com`` reset."""
    return FaultPlan(
        "flaky", (FaultRule("reset", hosts=("open.com",), max_per_host=failures),)
    )


class TestConfirmationProbes:
    def _open_net(self, fault_plan=None):
        net = armed_network(fault_plan) if fault_plan else Network()
        net.register(plain_site("open.com"))
        return net

    def test_transient_ai_reset_is_not_blocking(self):
        net = self._open_net(NAMED_PLANS["ai-probe-resets"])
        verdict = detect_active_blocking(net, "open.com")
        assert not verdict.blocks_ai and not verdict.excluded
        # Confirmation fired: the first Claudebot probe reset, the
        # re-probe agreed with the control.
        assert verdict.probe_attempts["Claudebot/1.0"] == 2
        assert verdict.probe_attempts["anthropic-ai"] == 2

    def test_transient_reset_survey_zero_false_positives(self):
        hosts = [f"site{i}.example" for i in range(30)]
        net = armed_network(FaultPlan(
            "transient",
            (FaultRule(kind="reset", rate=1.0, max_per_host=1),),
        ))
        for host in hosts:
            net.register(plain_site(host))
        survey = survey_active_blocking(net, hosts)
        assert survey.n_blocking == 0
        assert survey.n_excluded == 0

    def test_without_confirmation_false_positive_returns(self):
        from repro.net.chaos import retries_disabled

        net = self._open_net(NAMED_PLANS["ai-probe-resets"])
        with retries_disabled():
            verdict = detect_active_blocking(net, "open.com")
        assert verdict.blocks_ai
        # No re-probe: every case was observed once.
        assert set(verdict.probe_attempts.values()) == {1}

    def test_persistent_blocker_still_detected_under_chaos(self):
        net = armed_network(NAMED_PLANS["flaky-resets"])
        rules = RuleSet([BlockRule(Action.BLOCK, ["Claudebot", "anthropic-ai"])])
        net.register(ReverseProxy(plain_site("waf.com"), rules))
        verdict = detect_active_blocking(net, "waf.com")
        assert verdict.blocks_ai

    def test_transient_control_failure_not_excluded(self):
        net = self._open_net(flaky_control(1))
        verdict = detect_active_blocking(net, "open.com")
        assert not verdict.excluded
        assert verdict.probe_attempts["control"] == 2

    def test_deliberate_tool_block_still_excluded_without_retry(self):
        net = Network()
        net.register(ReverseProxy(plain_site("fp.com"), block_all_automation=True))
        verdict = detect_active_blocking(net, "fp.com")
        assert verdict.excluded
        # An HTTP answer is accepted at face value -- no re-probe.
        assert verdict.probe_attempts["control"] == 1

    def test_spacing_charged_to_simulated_clock(self):
        from repro.measure.active_blocking import (
            CONFIRMATION_ATTEMPTS,
            CONFIRMATION_SPACING_SECONDS,
        )

        net = self._open_net(flaky_control(CONFIRMATION_ATTEMPTS))
        verdict = detect_active_blocking(net, "open.com")
        assert not verdict.excluded
        # Every allowed control re-probe ran, each spaced on the clock.
        assert verdict.probe_attempts["control"] == 1 + CONFIRMATION_ATTEMPTS
        assert net.now == CONFIRMATION_ATTEMPTS * CONFIRMATION_SPACING_SECONDS
