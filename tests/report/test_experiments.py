"""Unit tests for the experiment runners (tiny populations).

The benches exercise the runners at full scale with band assertions;
these tests pin down the *structure* of every runner's output -- ids,
rendered text, metric keys -- quickly enough for the main suite.
"""

import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import lexer
from repro.core.compiled import shared_policy_cache
from repro.core.diagnostics import has_mistakes
from repro.core.legacy import LegacyPolicy
from repro.core.policy import RobotsPolicy
from repro.report.experiments import (
    build_longitudinal_bundle,
    run_appb2_parser_comparison,
    run_change_taxonomy,
    run_ext_adoption_by_category,
    run_figure2,
    run_figure3,
    run_figure4,
    run_sec22_meta_tags,
    run_sec62_active_blocking,
    run_sec63_cloudflare,
    run_sec81_mistakes,
    run_survey_crosstabs,
    run_survey_tables,
    run_table1_compliance,
    run_table2_artists,
    run_table3,
    run_tables9_12_codebooks,
)
from repro.report.tables import render_table
from repro.web.population import PopulationConfig, build_web_population

TINY = PopulationConfig(
    universe_size=700, list_size=450, top5k_cut=60, audit_size=120, seed=23
)


@pytest.fixture(scope="module")
def bundle():
    return build_longitudinal_bundle(TINY)


@pytest.fixture(scope="module")
def population():
    return build_web_population(TINY)


class TestLongitudinalRunners:
    def test_figure2_structure(self, bundle):
        result = run_figure2(bundle.series)
        assert result.experiment_id == "figure2"
        assert "Figure 2" in result.text and "CSV:" in result.text
        assert {"final_top5k_pct", "final_other_pct"} <= set(result.metrics)

    def test_figure3_structure(self, bundle):
        result = run_figure3(bundle.series)
        assert result.experiment_id == "figure3"
        assert "GPTBot" in result.text
        assert "final_GPTBot" in result.metrics

    def test_figure4_structure(self, bundle):
        result = run_figure4(bundle.series)
        assert "Table 4" in result.text
        assert result.metrics["total_removals"] >= 0

    def test_table3_structure(self, bundle):
        result = run_table3(bundle.series)
        assert result.metrics["n_snapshots"] == 15

    def test_change_taxonomy_structure(self, bundle):
        result = run_change_taxonomy(bundle)
        assert "change kind" in result.text
        assert "n_no-change" in result.metrics

    def test_category_adoption_structure(self, bundle):
        result = run_ext_adoption_by_category(bundle)
        assert any(key.startswith("pct_") for key in result.metrics)


class TestPopulationRunners:
    def test_sec62(self, population):
        result = run_sec62_active_blocking(population=population)
        assert "95% CI" in result.text
        assert 0 <= result.metrics["pct_blocking"] <= 100

    def test_sec63(self, population):
        result = run_sec63_cloudflare(population=population)
        assert result.metrics["n_greybox_blocked_uas"] > 0

    def test_sec22(self, population):
        result = run_sec22_meta_tags(population=population)
        assert "noai" in result.text

    def test_appb2(self, population):
        result = run_appb2_parser_comparison(population=population)
        assert result.metrics["pct_sites_disagree"] >= 0

    def test_sec81(self, population):
        result = run_sec81_mistakes(population=population)
        assert 0 <= result.metrics["pct_mistakes"] <= 100


def _month24_bodies(population):
    return [
        text for text in (site.robots_at(24) for site in population.stable)
        if text is not None
    ]


def _appb2_reference(population):
    """Appendix B.2's four numbers as the per-site loop computes them:
    15 decisions per site, both parsers built from the site's text and
    asked through ``is_allowed``."""
    probes = ["/", "/page", "/images/a.png"]
    agents = ["GPTBot", "CCBot", "anthropic-ai", "Claudebot", "randombot"]
    n_sites = n_disagree = decisions = disagreements = 0
    for text in _month24_bodies(population):
        n_sites += 1
        compliant = RobotsPolicy(text)
        legacy = LegacyPolicy(text)
        site_disagrees = False
        for agent in agents:
            for path in probes:
                decisions += 1
                if compliant.is_allowed(agent, path) != legacy.is_allowed(agent, path):
                    disagreements += 1
                    site_disagrees = True
        n_disagree += site_disagrees
    return (
        n_sites,
        n_disagree,
        100.0 * n_disagree / max(n_sites, 1),
        100.0 * disagreements / max(decisions, 1),
    )


def _sites_serving(*bodies):
    """A stand-in population whose stable sites serve *bodies* at month
    24 (None: no robots.txt)."""
    return SimpleNamespace(
        stable=[SimpleNamespace(robots_at=lambda month, b=body: b) for body in bodies]
    )


#: Repeated bodies that the legacy parser misreads (Appendix B.2 Cases
#: 1 and 2) or that hold an author mistake, beside a clean one.
_LAST_AGENT_ONLY = "User-agent: GPTBot\nUser-agent: anthropic-ai\nDisallow: /\n"
_COMMENT_BREAKS = "User-agent: *\n# rules\nDisallow: /\nUser-agent: CCBot\nDisallow: /\n"
_MISTAKE = "User-agent: *\nDisallow: secret/\n"
_CLEAN = "User-agent: GPTBot\nDisallow: /\n"
_REPEATS = _sites_serving(
    _LAST_AGENT_ONLY, _CLEAN, _LAST_AGENT_ONLY, None, _COMMENT_BREAKS,
    _MISTAKE, _LAST_AGENT_ONLY, _MISTAKE, _CLEAN, _COMMENT_BREAKS,
)


class TestMonth24Sweeps:
    """appb2 and sec81 answer once per distinct month-24 body and weight
    by the sites serving it; the per-site loops are the reference."""

    def test_appb2_matches_the_per_site_loop(self, population):
        for world in (population, _REPEATS):
            n_sites, n_disagree, pct_sites, pct_decisions = _appb2_reference(world)
            assert n_disagree > 0 and n_sites > len(set(_month24_bodies(world)))
            result = run_appb2_parser_comparison(population=world)
            assert result.metrics == {
                "pct_sites_disagree": pct_sites,
                "pct_decisions_disagree": pct_decisions,
            }
            assert result.text == render_table(
                ["measurement", "value"],
                [
                    ("sites compared", n_sites),
                    ("sites with interpretation differences", n_disagree),
                    ("% of sites misinterpreted by legacy parser", pct_sites),
                    ("per-decision disagreement rate (%)", pct_decisions),
                ],
                title="Appendix B.2: compliant vs home-grown parser",
            )

    def test_sec81_matches_the_per_site_loop(self, population):
        for world in (population, _REPEATS):
            bodies = _month24_bodies(world)
            n_mistakes = sum(has_mistakes(text) for text in bodies)
            result = run_sec81_mistakes(population=world)
            assert result.metrics == {"pct_mistakes": 100.0 * n_mistakes / len(bodies)}

    def test_cold_sweeps_tokenize_each_distinct_body_at_most_once(
        self, population, monkeypatch
    ):
        calls = []
        real = lexer.tokenize

        def counting(source):
            calls.append(source)
            return real(source)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "tokenize", None) is real:
                monkeypatch.setattr(module, "tokenize", counting)
        shared_policy_cache().clear()
        run_appb2_parser_comparison(population=population)
        run_sec81_mistakes(population=population)
        assert calls, "the sweeps must parse something"
        assert max(Counter(calls).values()) == 1
        assert set(calls) <= set(_month24_bodies(population))


class TestStandaloneRunners:
    def test_table1(self):
        result = run_table1_compliance(n_apps=600)
        assert "Bytespider" in result.text
        assert result.metrics["n_visited"] == 9

    def test_table2(self):
        result = run_table2_artists()
        assert "Squarespace" in result.text
        assert "ToS on AI training" in result.text

    def test_survey(self):
        result = run_survey_tables()
        assert "Table 5" in result.text and "Table 8" in result.text

    def test_codebooks(self):
        result = run_tables9_12_codebooks()
        assert "Table 12" in result.text

    def test_crosstabs(self):
        result = run_survey_crosstabs()
        assert "chi2" in result.text
