"""The site-operator behavior model: how robots.txt files evolve.

This is the generative counterpart of Section 3's findings.  Given a
site's popularity tier and a seeded RNG, the model produces the site's
robots.txt *schedule* -- the list of (month, text) edits an operator
made over October 2022-October 2024 -- by composing the behaviors the
paper documents:

* a pre-existing baseline robots.txt (SEO-oriented; ~2% wildcard
  disallow-all; ~1% with author mistakes),
* early CCBot blocking by a small population that predates the window,
* an adoption surge after the GPTBot/ChatGPT-User announcement, more
  pronounced in the Stable Top 5K (Section 3.2),
* per-agent blocking propensities that reproduce the Figure 3 ordering
  (GPTBot > CCBot > ChatGPT-User > ...),
* maintainers who extend their lists when new agents are announced,
* an EU-AI-Act adoption/extension uptick (August 2024),
* publisher data-deal removals and explicit allows (Sections 3.3-3.4),
  applied by the population builder via :meth:`apply_deal_removal` and
  :meth:`apply_explicit_allow`.

Everything is deterministic per (seed, domain).
"""

from __future__ import annotations

import random

from ..util import seeded_rng
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.serialize import (
    RobotsBuilder,
    add_allow_group,
    add_disallow_group,
    remove_agent_rules,
)
from ..obs.metrics import metrics_enabled, shared_registry
from .events import AGENT_ANNOUNCED, EU_AI_ACT, GPTBOT_ANNOUNCEMENT
from .site import SimSite

__all__ = ["EvolutionParams", "OperatorModel", "CATEGORY_ADOPTION_WEIGHTS"]

#: Per-agent probability that an adopter includes the agent in its
#: blocklist (given the agent is announced by then).  The ordering
#: reproduces Figure 3: GPTBot and CCBot most-blocked, then
#: ChatGPT-User, anthropic-ai, Google-Extended, Bytespider, ...
AGENT_BLOCK_WEIGHTS: Dict[str, float] = {
    "GPTBot": 0.90,
    "CCBot": 0.62,
    "ChatGPT-User": 0.50,
    "anthropic-ai": 0.36,
    "Google-Extended": 0.34,
    "Bytespider": 0.28,
    "ClaudeBot": 0.26,
    "Claude-Web": 0.24,
    "cohere-ai": 0.22,
    "PerplexityBot": 0.20,
    "omgili": 0.16,
    "FacebookBot": 0.16,
    "Meta-ExternalAgent": 0.14,
    "Diffbot": 0.12,
    "Applebot-Extended": 0.12,
    "Amazonbot": 0.10,
    "OAI-SearchBot": 0.10,
    "AI2Bot": 0.07,
    "YouBot": 0.07,
    "Timpibot": 0.05,
    "Meta-ExternalFetcher": 0.05,
    "Webzio-Extended": 0.04,
    "Kangaroo Bot": 0.03,
}

#: Paths used by partial (non-blanket) AI restrictions.
_PARTIAL_PATHS = (["/images/", "/photos/"], ["/articles/"], ["/archive/", "/gallery/"])

#: Category multipliers on adoption propensity.  News sites react most
#: (Fletcher [32] found most top news sites block AI crawlers);
#: misinformation sites *court* AI crawlers (Section 3.4).  The weights
#: average to ~1.0 over the category mix, preserving population-level
#: calibration.
CATEGORY_ADOPTION_WEIGHTS: Dict[str, float] = {
    "news": 1.75,
    "reference": 1.00,
    "corporate": 0.90,
    "blog": 0.78,
    "shopping": 0.80,
    "misinfo": 0.35,
    "general": 1.00,
}


@dataclass
class EvolutionParams:
    """Tunable probabilities of the operator model.

    The defaults are calibrated so the population-level statistics land
    in the paper's reported bands (Figure 2: 12-14% for the Stable Top
    5K and 8-10% for the rest, by mid-2024).
    """

    #: P(site always serves a robots.txt).
    p_has_robots: float = 0.78
    #: P(robots.txt exists but is missing in some snapshots), making the
    #: site fail the every-snapshot filter.
    p_flaky_robots: float = 0.05
    #: P(baseline file uses a wildcard disallow-all), Section 3.1's <2%.
    p_wildcard_disallow_all: float = 0.018
    #: P(baseline file contains an author mistake), Section 8.1's ~1%.
    p_mistake: float = 0.01
    #: P(adopting AI restrictions post-announcement), by tier.
    p_adopt_top5k: float = 0.145
    p_adopt_other: float = 0.075
    #: P(site blocked CCBot before the study window), by tier.
    p_early_ccbot_top5k: float = 0.030
    p_early_ccbot_other: float = 0.018
    #: Geometric lag parameter for adoption after the trigger month.
    adoption_lag_p: float = 0.45
    #: Fraction of adopters using a blanket Disallow: / (rest partial).
    p_full_block: float = 0.85
    #: P(adopter keeps maintaining the list as new agents appear).
    p_maintainer: float = 0.55
    #: P(maintainer adds a newly announced agent, scaled by the agent's
    #: block weight).
    p_add_new_agent: float = 0.8
    #: Fresh adoption probability in the EU-AI-Act wave (non-adopters).
    p_eu_adopt_top5k: float = 0.020
    p_eu_adopt_other: float = 0.012
    #: P(existing adopter extends its list in the EU-AI-Act wave).
    p_eu_extend: float = 0.30
    #: P(adopter uses a managed robots.txt service that auto-syncs the
    #: full AI-agent list on every announcement), Section 2.2.
    p_managed_service: float = 0.10


class OperatorModel:
    """Generates robots.txt schedules for sites.

    >>> model = OperatorModel(seed=1)
    >>> site = SimSite(domain="example.com", rank=10, tier="top5k")
    >>> model.populate(site)
    >>> site.robots_at(24) is not None or True
    True
    """

    def __init__(self, params: Optional[EvolutionParams] = None, seed: int = 42):
        self.params = params or EvolutionParams()
        self.seed = seed

    def _rng(self, site: SimSite, purpose: str = "") -> random.Random:
        return seeded_rng(self.seed, site.domain, purpose)

    # -- baseline ------------------------------------------------------------

    def _baseline_text(self, site: SimSite, rng: random.Random) -> str:
        params = self.params
        if rng.random() < params.p_wildcard_disallow_all:
            return RobotsBuilder().group("*").disallow("/").build()
        builder = RobotsBuilder()
        builder.group("*")
        paths = rng.sample(
            ["/admin/", "/cgi-bin/", "/cart/", "/login", "/tmp/", "/search",
             "/private/", "/wp-admin/", "/checkout/", "/api/internal/"],
            k=rng.randint(1, 4),
        )
        builder.disallow(*sorted(paths))
        if rng.random() < 0.25:
            builder.group(rng.choice(["AhrefsBot", "SemrushBot", "MJ12bot"]))
            builder.disallow("/")
        if rng.random() < 0.5:
            builder.sitemap(f"https://{site.domain}/sitemap.xml")
        text = builder.build()
        if rng.random() < params.p_mistake:
            text += rng.choice(
                [
                    "User-agent: *\nDisallow: secret/\n",
                    "Noindex: /old/\nUser-agent: *\nDisallow: /x/\n",
                    "Disallow /broken\n",
                ]
            )
        return text

    # -- adoption -------------------------------------------------------------

    def _geometric_lag(self, rng: random.Random, p: float, cap: int = 12) -> int:
        lag = 0
        while rng.random() > p and lag < cap:
            lag += 1
        return lag

    def _pick_agents(
        self, rng: random.Random, month: int, scale: float = 1.0
    ) -> List[str]:
        """Agents an adopter blocks at *month*, respecting announcements."""
        picked = []
        for token, weight in AGENT_BLOCK_WEIGHTS.items():
            if AGENT_ANNOUNCED.get(token, 99) > month:
                continue
            if rng.random() < weight * scale:
                picked.append(token)
        if not picked:
            picked.append("GPTBot" if AGENT_ANNOUNCED["GPTBot"] <= month else "CCBot")
        return picked

    def populate(self, site: SimSite) -> None:
        """Fill in *site*'s robots schedule and missing months."""
        self._populate(site)
        self._record_schedule(site)

    def _record_schedule(self, site: SimSite) -> None:
        """Feed the site's in-window robots changes to the series plane.

        ``web.robots_changes{tier,category}`` counts, per simulated
        month, how many sites changed their robots.txt that month --
        the evolution-model side of the Figure 2 adoption story.
        """
        if not metrics_enabled():
            return
        registry = shared_registry()
        for month, _text in site.robots_schedule:
            if month >= 0:
                registry.add(
                    "web.robots_changes",
                    month,
                    tier=site.tier,
                    category=site.category,
                )

    def _populate(self, site: SimSite) -> None:
        params = self.params
        rng = self._rng(site)

        # Baseline presence.
        has_roll = rng.random()
        if has_roll < params.p_has_robots:
            pass  # always present
        elif has_roll < params.p_has_robots + params.p_flaky_robots:
            n_missing = rng.randint(1, 3)
            site.missing_months = frozenset(
                rng.randint(0, 24) for _ in range(n_missing)
            )
        else:
            # Never serves robots.txt.
            site.set_robots(-1, None)
            return

        text = self._baseline_text(site, rng)

        # Early CCBot blockers predate the window.
        top = site.tier == "top5k"
        p_early = params.p_early_ccbot_top5k if top else params.p_early_ccbot_other
        if rng.random() < p_early:
            agents = ["CCBot"]
            if rng.random() < 0.3:
                agents.append("omgili")
            text = add_disallow_group(text, agents)
        site.set_robots(-1, text)

        # Post-announcement adoption, scaled by editorial category.
        p_adopt = params.p_adopt_top5k if top else params.p_adopt_other
        p_adopt *= CATEGORY_ADOPTION_WEIGHTS.get(site.category, 1.0)
        adopted_month: Optional[int] = None
        is_maintainer = rng.random() < params.p_maintainer
        full_block = rng.random() < params.p_full_block
        partial_paths = list(rng.choice(_PARTIAL_PATHS))

        uses_manager = rng.random() < params.p_managed_service

        if rng.random() < p_adopt:
            adopted_month = GPTBOT_ANNOUNCEMENT + self._geometric_lag(
                rng, params.adoption_lag_p
            )
            if adopted_month > 24:
                adopted_month = None
            elif uses_manager:
                # Managed robots.txt (Dark Visitors / YoastSEO style,
                # Section 2.2): the service blocks every announced AI
                # agent and auto-syncs on each later announcement.
                from .managed import ManagedRobotsService

                service = ManagedRobotsService()
                for month, managed in service.schedule(text, adopted_month):
                    site.set_robots(month, managed)
                return
            else:
                agents = self._pick_agents(rng, adopted_month)
                paths = ["/"] if full_block else partial_paths
                text = add_disallow_group(text, agents, paths=paths)
                site.set_robots(adopted_month, text)

        # Maintainers add newly announced agents as they appear.
        if adopted_month is not None and is_maintainer:
            blocked = set(a.lower() for a in self._agents_blocked(site))
            for token, announce in sorted(AGENT_ANNOUNCED.items(), key=lambda kv: kv[1]):
                if announce <= adopted_month or announce > 24 or announce < 0:
                    continue
                weight = AGENT_BLOCK_WEIGHTS.get(token, 0.05)
                if token.lower() in blocked:
                    continue
                if rng.random() < params.p_add_new_agent * weight:
                    month = min(24, announce + self._geometric_lag(rng, 0.6, cap=3))
                    paths = ["/"] if full_block else partial_paths
                    text = add_disallow_group(text, [token], paths=paths)
                    site.set_robots(month, text)
                    blocked.add(token.lower())

        # EU AI Act wave: fresh adopters and list extensions.
        if adopted_month is None:
            p_eu = params.p_eu_adopt_top5k if top else params.p_eu_adopt_other
            if rng.random() < p_eu:
                month = min(24, EU_AI_ACT + self._geometric_lag(rng, 0.7, cap=2))
                agents = self._pick_agents(rng, month)
                paths = ["/"] if full_block else partial_paths
                text = add_disallow_group(text, agents, paths=paths)
                site.set_robots(month, text)
        elif rng.random() < params.p_eu_extend:
            month = min(24, EU_AI_ACT + self._geometric_lag(rng, 0.7, cap=2))
            extras = [
                token
                for token in self._pick_agents(rng, month, scale=0.5)
                if token.lower() not in {a.lower() for a in self._agents_blocked(site)}
            ][:3]
            if extras:
                paths = ["/"] if full_block else partial_paths
                text = add_disallow_group(text, extras, paths=paths)
                site.set_robots(month, text)

    def _agents_blocked(self, site: SimSite) -> Tuple[str, ...]:
        from ..core.serialize import agents_mentioned

        text = site.robots_at(24)
        return agents_mentioned(text) if text else ()

    # -- deal edits (driven by the population builder) -----------------------------

    def apply_deal_removal(
        self,
        site: SimSite,
        month: int,
        agents: Sequence[str] = ("GPTBot", "ChatGPT-User"),
    ) -> None:
        """Remove *agents*' rules at *month* (a data-licensing deal).

        Guarantees the site had adopted restrictions on the agents
        beforehand (forcing adoption two months prior when necessary),
        so the removal is observable.
        """
        prior_month = max(GPTBOT_ANNOUNCEMENT, month - 4)
        prior = site.robots_at(month - 1)
        if prior is None:
            prior = self._baseline_text(site, self._rng(site, "deal"))
        from ..core.serialize import agents_mentioned

        present = set(agents_mentioned(prior))
        missing = [a for a in agents if a.lower() not in present]
        if missing:
            prior = add_disallow_group(prior, missing)
            site.set_robots(prior_month, prior)
        # Surgical removal: the rest of the file stays unchanged.
        site.set_robots(month, remove_agent_rules(prior, agents))

    def apply_explicit_allow(self, site: SimSite, month: int) -> None:
        """Add an explicit ``Allow: /`` group for GPTBot at *month*.

        Any existing restrictions on GPTBot are removed first so the
        file expresses the Section 3.4 reverse intent unambiguously.
        """
        prior = site.robots_at(month)
        if prior is None:
            prior = ""
        cleaned = remove_agent_rules(prior, ("GPTBot",))
        site.set_robots(month, add_allow_group(cleaned, ["GPTBot"]))
