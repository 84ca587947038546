"""Tranco-style popularity rankings with month-to-month churn.

The paper's "Stable Top 100K" filter (Section 3.1) exists because top
lists churn [96]: a site in this month's top 100k may drop out next
month.  This module generates monthly rankings with realistic churn so
that the stable-set filter actually filters, then exposes the same
stable-set operation the paper performs.

Popularity is modeled as a latent Zipf-like base score per site plus
monthly log-normal noise; ranking a month means sorting by that month's
noisy score.  Churn is concentrated near rank boundaries, exactly as in
real lists.
"""

from __future__ import annotations

import math
import random

from ..util import seeded_rng
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from .domains import domain_names

__all__ = [
    "RankingModel",
    "stable_sites",
    "STRATUM_SIZES",
    "strata_names",
    "stratum_cutoff",
]

#: The paper-scale top-k strata the scale plane measures, smallest
#: first.  The paper itself studies the top-100k; Common Crawl robots
#: studies sweep every stratum up to 1M, which is what the sharded
#: archive plane reproduces.
STRATUM_SIZES: Dict[str, int] = {
    "top-1k": 1_000,
    "top-10k": 10_000,
    "top-100k": 100_000,
    "top-1m": 1_000_000,
}


def strata_names() -> List[str]:
    """Stratum identifiers, smallest first."""
    return sorted(STRATUM_SIZES, key=STRATUM_SIZES.get)


def stratum_cutoff(stratum: str, scale: float = 1.0) -> int:
    """The rank cutoff for *stratum* at simulation *scale*.

    *scale* is the simulated list's size relative to the paper's 100k
    (``PopulationConfig.paper_scale``); the default config's 1:25 scale
    maps ``top-100k`` to 4,000 simulated sites and ``top-1k`` to 40.

    >>> stratum_cutoff("top-100k")
    100000
    >>> stratum_cutoff("top-1k", scale=0.04)
    40
    """
    try:
        size = STRATUM_SIZES[stratum]
    except KeyError:
        known = ", ".join(strata_names())
        raise KeyError(f"unknown stratum {stratum!r} (known: {known})") from None
    return max(1, round(size * scale))


@dataclass
class RankingModel:
    """Generator of monthly top-``list_size`` rankings.

    Args:
        universe_size: Total sites in the modeled web (must exceed
            ``list_size`` so churn has somewhere to come from).
        list_size: Length of each monthly list (the paper's 100k,
            scaled).
        noise_sigma: Std-dev of the per-month log-score noise; larger
            values produce more churn.
        seed: RNG seed.
    """

    universe_size: int
    list_size: int
    noise_sigma: float = 0.12
    seed: int = 42

    def __post_init__(self) -> None:
        if self.list_size >= self.universe_size:
            raise ValueError("universe must be larger than the ranked list")
        # Latent log-popularity: Zipf-ish with a small per-site jitter so
        # neighboring ranks are genuinely contested.
        rng = random.Random(self.seed)
        self._base_log_score: List[float] = [
            -math.log(rank + 1) + rng.gauss(0.0, 0.02)
            for rank in range(self.universe_size)
        ]
        # Named once: every month's ranking shares these strings.
        self._names: List[str] = domain_names(self.universe_size)

    def domain(self, site_index: int) -> str:
        """Domain of site *site_index* in the universe."""
        return self._names[site_index]

    def monthly_ranking(self, month: int) -> List[str]:
        """The top-``list_size`` domains for *month*, best first."""
        rng = seeded_rng(self.seed, "month", month)
        noisy = [
            (self._base_log_score[i] + rng.gauss(0.0, self.noise_sigma), i)
            for i in range(self.universe_size)
        ]
        noisy.sort(reverse=True)
        names = self._names
        return [names[i] for _, i in noisy[: self.list_size]]

    def monthly_rankings(self, months: Sequence[int]) -> Dict[int, List[str]]:
        """Rankings for each month in *months*."""
        return {month: self.monthly_ranking(month) for month in months}


def stable_sites(
    rankings: Dict[int, List[str]], cutoff: int
) -> List[str]:
    """Domains within the top *cutoff* in **every** month's ranking.

    This is the paper's stable-set operation: the Stable Top 100K is
    ``stable_sites(rankings, 100_000)``, the Stable Top 5K is
    ``stable_sites(rankings, 5_000)``.  Order follows the first month's
    ranking.
    """
    if not rankings:
        return []
    months = sorted(rankings)
    surviving: Set[str] = set(rankings[months[0]][:cutoff])
    for month in months[1:]:
        surviving &= set(rankings[month][:cutoff])
    first = rankings[months[0]]
    return [d for d in first[:cutoff] if d in surviving]
