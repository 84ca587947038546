"""Unit tests for the experiment runners (tiny populations).

The benches exercise the runners at full scale with band assertions;
these tests pin down the *structure* of every runner's output -- ids,
rendered text, metric keys -- quickly enough for the main suite.
"""

import pytest

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


class TestStandaloneRunners:
    def test_table1(self):
        result = run_table1_compliance(n_apps=600)
        assert "Bytespider" in result.text
        assert result.metrics["n_visited"] == 9

    def test_table2(self):
        result = run_table2_artists(n_artists=400)
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
