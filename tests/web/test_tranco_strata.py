"""Strata boundaries must be explicit, deterministic, and shard-free.

A stratum's membership is a pure function of the rankings (hence of the
seed and scale) -- never of shard or worker counts -- and the scaled
configs the orchestrator derives from a stratum name keep every rate
parameter of the base config.
"""

import dataclasses

import pytest

from repro.web.population import PopulationConfig, stratum_config
from repro.web.tranco import (
    RankingModel,
    STRATUM_SIZES,
    stable_sites,
    strata_names,
    stratum_cutoff,
)

MONTHS = list(range(6))


def _rankings(seed=3, universe=800, list_size=500):
    model = RankingModel(universe_size=universe, list_size=list_size, seed=seed)
    return {month: model.monthly_ranking(month) for month in MONTHS}


class TestBoundaries:
    def test_names_smallest_first(self):
        assert strata_names() == ["top-1k", "top-10k", "top-100k", "top-1m"]
        assert [STRATUM_SIZES[s] for s in strata_names()] == [
            1_000, 10_000, 100_000, 1_000_000
        ]

    def test_cutoff_scales(self):
        assert stratum_cutoff("top-100k") == 100_000
        assert stratum_cutoff("top-1k", scale=0.04) == 40
        assert stratum_cutoff("top-1k", scale=0.0001) == 1  # floor at 1

    def test_unknown_stratum_names_the_known_ones(self):
        with pytest.raises(KeyError, match="top-1k, top-10k"):
            stratum_cutoff("top-5k")


class TestMembership:
    def test_deterministic_for_a_seed(self):
        a = stable_sites(_rankings(seed=9), stratum_cutoff("top-1k", 0.005))
        b = stable_sites(_rankings(seed=9), stratum_cutoff("top-1k", 0.005))
        assert a == b and a  # non-empty and repeatable

    def test_different_seeds_differ(self):
        # At a boundary where churn bites (cutoff 100 of a 500-list),
        # two seeds must disagree on membership.
        a = stable_sites(_rankings(seed=9), stratum_cutoff("top-10k", 0.01))
        b = stable_sites(_rankings(seed=10), stratum_cutoff("top-10k", 0.01))
        assert a != b

    def test_strata_nest(self):
        rankings = _rankings()
        small = set(stable_sites(rankings, stratum_cutoff("top-1k", 0.01)))
        large = set(stable_sites(rankings, stratum_cutoff("top-10k", 0.01)))
        assert small <= large


class TestStratumConfig:
    BASE = PopulationConfig(
        universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=7
    )

    def test_top_100k_is_the_base_itself(self):
        scaled = stratum_config("top-100k", self.BASE)
        assert scaled.list_size == self.BASE.list_size
        assert scaled == dataclasses.replace(
            self.BASE, universe_size=scaled.universe_size
        )

    def test_scaling_preserves_seed_and_rates(self):
        scaled = stratum_config("top-1k", self.BASE)
        assert scaled.seed == self.BASE.seed
        assert scaled.evolution == self.BASE.evolution
        assert scaled.list_size == stratum_cutoff("top-1k", self.BASE.paper_scale)
        assert scaled.list_size < scaled.universe_size

    def test_strata_order_by_size(self):
        sizes = [stratum_config(s, self.BASE).list_size for s in strata_names()]
        assert sizes == sorted(sizes)
