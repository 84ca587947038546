"""Tests for the Section 3 longitudinal pipeline (small population)."""

import pytest

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS
from repro.measure.longitudinal import (
    allow_and_removal_trend,
    collect_snapshots,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from repro.web.events import DATA_DEALS, GPTBOT_ANNOUNCEMENT
from repro.web.population import PopulationConfig, build_web_population

from . import oracle

CONFIG = PopulationConfig(
    universe_size=900, list_size=600, top5k_cut=80, audit_size=150, seed=5
)


@pytest.fixture(scope="module")
def world():
    population = build_web_population(CONFIG)
    series = collect_snapshots(population)
    return population, series


class TestSeriesConstruction:
    def test_fifteen_snapshots(self, world):
        _, series = world
        assert len(series.specs) == 15

    def test_analysis_set_is_subset_of_stable(self, world):
        population, series = world
        assert set(series.analysis_domains) <= set(series.stable_domains)
        assert len(series.analysis_domains) > 0

    def test_analysis_set_has_robots_everywhere(self, world):
        _, series = world
        corpus = oracle.from_columns(series)
        for domain in series.analysis_domains[:25]:
            for spec_index in range(len(corpus.specs)):
                assert oracle.body_of(corpus, spec_index, domain) is not None

    def test_flaky_sites_filtered_out(self, world):
        population, series = world
        flaky = [s.domain for s in population.stable if s.missing_months]
        excluded = set(series.stable_domains) - set(series.analysis_domains)
        # Flaky sites whose missing month coincides with a snapshot month
        # must be excluded.
        snapshot_months = {s.month_index for s in SNAPSHOT_SPECS}
        for site in population.stable:
            if site.missing_months & snapshot_months:
                assert site.domain in excluded


class TestFigure2Trend:
    def test_trend_shape(self, world):
        _, series = world
        rows = full_disallow_trend(series).rows
        assert len(rows) == 15
        first_other = rows[0][2]
        last_other = rows[-1][2]
        assert last_other > first_other
        # Surge after the GPTBot announcement: the last pre-announcement
        # snapshot vs. the end of the window.
        pre = next(
            r for r, spec in zip(rows, SNAPSHOT_SPECS)
            if spec.month_index >= GPTBOT_ANNOUNCEMENT
        )
        assert rows[-1][2] >= pre[2]

    def test_top5k_above_other_at_end(self, world):
        _, series = world
        rows = full_disallow_trend(series).rows
        assert rows[-1][1] > rows[-1][2]

    def test_tiers_come_from_the_population(self, world):
        population, series = world
        top5k = {s.domain for s in population.stable_top5k}
        assert [d in top5k for d in series.stable_domains] == [
            tier == 1 for tier in series.shard.tiers
        ]

    def test_wildcard_ablation_inflates_rates(self, world):
        _, series = world
        explicit = full_disallow_trend(series, require_explicit=True).rows
        ablated = full_disallow_trend(series, require_explicit=False).rows
        assert ablated[-1][2] > explicit[-1][2]


class TestFigure3Trend:
    def test_gptbot_among_most_restricted_at_end(self, world):
        # At this tiny population scale, GPTBot's deal-driven removals
        # are over-weighted, so assert the paper's ordering loosely:
        # GPTBot and CCBot are the two most-restricted agents.
        _, series = world
        trends = per_agent_trend(series)
        finals = {agent: rows[-1][1] for agent, rows in trends.items()}
        top_two = sorted(finals, key=finals.get, reverse=True)[:2]
        assert set(top_two) == {"GPTBot", "CCBot"}
        assert finals["GPTBot"] > finals["Bytespider"]
        assert finals["GPTBot"] > finals["ChatGPT-User"]

    def test_no_gptbot_restrictions_before_announcement(self, world):
        _, series = world
        trends = per_agent_trend(series)
        for (snapshot_id, pct), spec in zip(trends["GPTBot"], SNAPSHOT_SPECS):
            if spec.month_index < GPTBOT_ANNOUNCEMENT:
                assert pct == 0.0

    def test_ccbot_restricted_from_the_start(self, world):
        _, series = world
        trends = per_agent_trend(series)
        assert trends["CCBot"][0][1] > 0.0

    def test_eu_ai_act_uptick(self, world):
        # Measured on anthropic-ai: unlike GPTBot it is not affected by
        # the data-deal removals, which are over-represented at this
        # tiny population scale (each deal is floored at one site).
        _, series = world
        trends = per_agent_trend(series)
        by_id = dict(trends["anthropic-ai"])
        # 2024-26 (Jul 2024, pre-act) vs 2024-42 (Oct 2024, post-act).
        assert by_id["2024-42"] > by_id["2024-26"]


class TestFigure4Trend:
    def test_removals_spike_at_deal_months(self, world):
        _, series = world
        trend = allow_and_removal_trend(series)
        total_removed = sum(count for _, count in trend.removals_per_period)
        assert total_removed > 0
        assert len(trend.removal_domains) == total_removed

    def test_deal_domains_detected_as_removers(self, world):
        population, series = world
        deal = DATA_DEALS[3]  # Dotdash Meredith
        analysis = set(series.analysis_domains)
        for domain in population.deal_domains[deal.publisher]:
            if domain in analysis:
                assert domain in trend_domains(series)

    def test_explicit_allows_grow(self, world):
        _, series = world
        trend = allow_and_removal_trend(series)
        counts = [count for _, count in trend.explicit_allow_counts]
        assert counts[-1] > counts[0]

    def test_first_allow_table_consistent(self, world):
        _, series = world
        trend = allow_and_removal_trend(series)
        rows = trend.first_allows
        assert len(rows) >= trend.explicit_allow_counts[0][1]
        domains = [d for d, _ in rows]
        assert len(domains) == len(set(domains))


def trend_domains(series):
    return set(allow_and_removal_trend(series).removal_domains)


class TestTable3:
    def test_coverage_rows(self, world):
        _, series = world
        rows = snapshot_coverage_table(series)
        assert len(rows) == 15
        for snapshot_id, label, n_sites, n_robots in rows:
            assert n_robots <= n_sites
            assert n_robots >= len(series.analysis_domains)


class TestStableWithRobots:
    def test_direct(self, world):
        _, series = world
        assert series.analysis_domains == oracle.analysis_domains(
            oracle.from_columns(series)
        )
