"""Population builders: the simulated web the measurements run against.

:func:`build_web_population` assembles the Section 3 / Section 6 world:

1. monthly Tranco-style rankings with churn (Oct 2022-Oct 2024),
2. the stable set (sites ranked every month) split into a Top-5K tier
   and the rest, each with an operator-model robots.txt schedule,
3. publisher data-deal removals and explicit-allow sites (Sections
   3.3-3.4), scaled to the population size,
4. audit attributes (Cloudflare settings, custom UA blocking,
   automation blocking, NoAI meta tags) for the most-recent month's top
   sites -- the Section 6 and meta-tag study population.

Every attribute is sampled deterministically from (seed, domain), so
the same config always yields the same web.
"""

from __future__ import annotations

import random

from ..util import seeded_rng
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..net.transport import Network
from ..proxy.cloudflare import CloudflareSettings
from .events import DATA_DEALS, GPTBOT_ANNOUNCEMENT, MONTHS
from .evolution import EvolutionParams, OperatorModel
from .site import BlockingConfig, SimSite
from .tranco import RankingModel, stable_sites, stratum_cutoff

__all__ = [
    "PopulationConfig",
    "WebPopulation",
    "build_web_population",
    "stratum_config",
]

_CATEGORIES = [
    ("news", 0.25),
    ("shopping", 0.15),
    ("reference", 0.10),
    ("corporate", 0.20),
    ("blog", 0.28),
    ("misinfo", 0.02),
]


@dataclass
class PopulationConfig:
    """Size and sampling parameters of the simulated web.

    The defaults are a 1:25 scale model of the paper's setting (list of
    4,000 standing in for the Tranco 100k; audit prefix of 1,000 for
    the top 10k).  All reported statistics are rates, so the scale only
    affects absolute counts, which experiment outputs scale back up.
    """

    universe_size: int = 6000
    list_size: int = 4000
    top5k_cut: int = 400
    audit_size: int = 1000
    seed: int = 42
    evolution: EvolutionParams = field(default_factory=EvolutionParams)

    #: Audit-population rates (per the paper's top-10k measurements).
    p_blocks_automation: float = 0.15
    p_waf_blocks_anthropic: float = 0.145
    p_cloudflare: float = 0.20
    p_cf_block_ai: float = 0.057
    p_cf_confound: float = 0.07
    p_cf_definitely_automated: float = 0.10
    rate_meta_noai: float = 17 / 10_000
    rate_meta_noimageai: float = 16 / 10_000
    #: Among non-Cloudflare audit sites: firewall the published IP
    #: ranges of AI crawlers (invisible to the UA-based detector).
    p_ip_blocks_published_ai: float = 0.04
    #: Automation blocking among non-audit stable sites (what excludes
    #: some sites from Common Crawl coverage, Section 3.1 footnote 2).
    p_tail_blocks_automation: float = 0.01

    @property
    def paper_scale(self) -> float:
        """This population's size relative to the paper's 100k list."""
        return self.list_size / 100_000


@dataclass(frozen=True)
class WebPopulation:
    """The assembled simulated web.

    The builder fills plain lists and dicts;
    :func:`~repro.web.worldstore.freeze_population` turns them into
    tuples and read-only mappings for the world store.
    """

    config: PopulationConfig
    rankings: Mapping[int, Sequence[str]]
    stable: Sequence[SimSite]
    stable_top5k: Sequence[SimSite]
    audit_sites: Sequence[SimSite]
    by_domain: Mapping[str, SimSite]
    deal_domains: Mapping[str, Sequence[str]] = field(default_factory=dict)
    explicit_allow_domains: Sequence[str] = ()

    def materialize(
        self, network: Network, month: int, sites: Optional[Sequence[SimSite]] = None
    ) -> None:
        """Register handlers for *sites* (default: all stable) at *month*.

        Only the network is written: each site builds a fresh handler
        (see :meth:`SimSite.build_handler`) that the network alone
        holds, so the handlers go when the network goes -- per spec in
        the snapshot crawl, per runner in the audit experiments.
        """
        network.month = month
        network.register_many(
            (site.build_handler(month), site.domain)
            for site in (sites if sites is not None else self.stable)
        )


def _pick_category(rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for name, weight in _CATEGORIES:
        acc += weight
        if roll < acc:
            return name
    return _CATEGORIES[-1][0]


def _sample(rng: random.Random, pool: List[SimSite], count: int) -> List[SimSite]:
    count = min(count, len(pool))
    return rng.sample(pool, count) if count else []


def stratum_config(
    stratum: str, base: Optional[PopulationConfig] = None
) -> PopulationConfig:
    """A :class:`PopulationConfig` scaled to one top-k *stratum*.

    *base* (default: the paper-scale default config) fixes the
    simulation scale and every rate parameter; the stratum only resizes
    the population.  The base config models the paper's top-100k, so
    ``stratum_config("top-100k")`` is the base itself, ``"top-1k"`` is
    a 100x smaller world, and ``"top-1m"`` a 10x larger one -- same
    seed, same rates, same evolution parameters.
    """
    base = base or PopulationConfig()
    list_size = stratum_cutoff(stratum, base.paper_scale)
    factor = list_size / base.list_size
    return replace(
        base,
        universe_size=max(list_size + 1, round(base.universe_size * factor)),
        list_size=list_size,
        top5k_cut=max(1, min(list_size, round(base.top5k_cut * factor))),
        audit_size=max(1, round(base.audit_size * factor)),
    )


#: One unit of per-site construction: ``(domain, rank, tier)``.
_SiteTask = Tuple[str, int, str]


def _build_site(config: PopulationConfig, operator: OperatorModel,
                task: _SiteTask) -> SimSite:
    """Construct and populate one site (pure in ``(seed, domain)``)."""
    domain, rank, tier = task
    rng = seeded_rng(config.seed, "site", domain)
    site = SimSite(
        domain=domain, rank=rank, tier=tier, category=_pick_category(rng)
    )
    operator.populate(site)
    return site


def build_web_population(config: Optional[PopulationConfig] = None) -> WebPopulation:
    """Build the simulated web per *config* (see module docstring)."""
    config = config or PopulationConfig()
    model = RankingModel(
        universe_size=config.universe_size,
        list_size=config.list_size,
        seed=config.seed,
    )
    rankings = model.monthly_rankings(MONTHS)
    stable_domains = stable_sites(rankings, config.list_size)
    top5k_domains = set(stable_sites(rankings, config.top5k_cut))

    # -- per-site stage: stable sites plus the audit-tier extras (sites
    # in the final month's top list but not the stable set).  Both are
    # pure per-(seed, domain) constructions; everything order-dependent
    # (data deals, explicit allows, audit quotas) follows in canonical
    # rank order.
    last_month = max(rankings)
    audit_domains = rankings[last_month][: config.audit_size]
    stable_set = set(stable_domains)
    tasks: List[_SiteTask] = [
        (domain, rank, "top5k" if domain in top5k_domains else "other")
        for rank, domain in enumerate(stable_domains)
    ]
    tasks.extend(
        (domain, config.list_size + position, "other")
        for position, domain in enumerate(audit_domains)
        if domain not in stable_set
    )
    operator = OperatorModel(params=config.evolution, seed=config.seed)
    built = {task[0]: _build_site(config, operator, task) for task in tasks}
    sites: List[SimSite] = [built[domain] for domain in stable_domains]
    by_domain: Dict[str, SimSite] = {domain: built[domain] for domain in stable_domains}

    rng = seeded_rng(config.seed, "deals")

    # -- publisher data deals (Section 3.3) --------------------------------------
    always_robots = [s for s in sites if not s.missing_months and s.robots_at(0) is not None]
    # Deal/allower counts scale against the sites the analysis will keep
    # (robots.txt present in every snapshot), mirroring the paper's
    # 40,455-site denominator.
    scale = max(len(always_robots) / 40_455, 1e-9)
    news_pool = [s for s in always_robots if s.category == "news" and s.publisher is None]
    deal_domains: Dict[str, List[str]] = {}
    for deal in DATA_DEALS:
        count = max(1, round(deal.n_domains * scale))
        chosen = _sample(rng, [s for s in news_pool if s.publisher is None], count)
        for site in chosen:
            site.publisher = deal.publisher
            operator.apply_deal_removal(site, deal.month, deal.agents_unblocked)
            if deal.adds_explicit_allow:
                operator.apply_explicit_allow(site, deal.month)
        deal_domains[deal.publisher] = [s.domain for s in chosen]

    # -- independent removers (smaller publishers, private deals) ----------------
    n_independent = max(1, round(207 * scale))
    independent_pool = [
        s for s in always_robots if s.publisher is None and s.category in ("news", "blog")
    ]
    for site in _sample(rng, independent_pool, n_independent):
        site.publisher = "(independent)"
        month = rng.randint(17, 24)
        operator.apply_deal_removal(site, month, ("GPTBot",))

    # -- explicit allowers (Section 3.4) -----------------------------------------
    explicit_allow_domains: List[str] = []
    n_persistent = max(1, round(5 * scale))
    n_late = max(1, round(30 * scale))
    allow_pool = [
        s
        for s in always_robots
        if s.publisher is None and s.category in ("misinfo", "shopping", "reference")
    ]
    persistent = _sample(rng, allow_pool, n_persistent)
    for site in persistent:
        operator.apply_explicit_allow(site, GPTBOT_ANNOUNCEMENT + rng.randint(2, 4))
        explicit_allow_domains.append(site.domain)
    remaining = [s for s in allow_pool if s.domain not in set(explicit_allow_domains)]
    for site in _sample(rng, remaining, n_late):
        operator.apply_explicit_allow(site, rng.randint(19, 24))
        explicit_allow_domains.append(site.domain)
    for publisher, domains in deal_domains.items():
        deal = next(d for d in DATA_DEALS if d.publisher == publisher)
        if deal.adds_explicit_allow:
            explicit_allow_domains.extend(domains)

    # -- audit attributes for the most-recent month's top sites ------------------
    audit_sites: List[SimSite] = []
    for domain in audit_domains:
        site = by_domain.get(domain)
        if site is None:
            # Built in the per-site stage alongside the stable sites.
            site = built[domain]
            by_domain[domain] = site
        _assign_audit_attributes(site, config)
        audit_sites.append(site)
    _assign_block_ai_quota(audit_sites, config)

    # Light automation blocking in the non-audit tail (Common Crawl's
    # excluded sites).
    audit_set = set(audit_domains)
    for site in sites:
        if site.domain in audit_set:
            continue
        rng_site = seeded_rng(config.seed, "tailblock", site.domain)
        if rng_site.random() < config.p_tail_blocks_automation:
            site.blocking = replace(site.blocking, blocks_automation=True)

    stable_list = [by_domain[d] for d in stable_domains]
    return WebPopulation(
        config=config,
        rankings=rankings,
        stable=stable_list,
        stable_top5k=[s for s in stable_list if s.tier == "top5k"],
        audit_sites=audit_sites,
        by_domain=by_domain,
        deal_domains=deal_domains,
        explicit_allow_domains=explicit_allow_domains,
    )


def _assign_audit_attributes(site: SimSite, config: PopulationConfig) -> None:
    """Sample Section 6 / meta-tag attributes for one audit-tier site."""
    rng = seeded_rng(config.seed, "audit", site.domain)

    on_cloudflare = rng.random() < config.p_cloudflare

    # Keyword arguments evaluate left to right, so each constructor
    # below draws from *rng* in the order its fields are listed.
    if on_cloudflare:
        # Block AI Bots enablement is assigned by quota afterwards (see
        # _assign_block_ai_quota) so the enabler count and its robots.txt
        # correlation are stable at small audit scales.
        site.blocking = BlockingConfig(
            cloudflare=CloudflareSettings(
                definitely_automated=rng.random() < config.p_cf_definitely_automated
            ),
            cf_custom_confound=rng.random() < config.p_cf_confound,
        )
    else:
        # Independent automation blocking lives on non-Cloudflare sites
        # (Cloudflare zones rely on the managed features); rescale so
        # the *overall* excluded rate still matches the paper's 15%.
        p_auto = config.p_blocks_automation / max(1.0 - config.p_cloudflare, 1e-9)

        # Sites that restrict AI crawlers in robots.txt mostly do NOT
        # also UA-block them (only 35 of 1,433 blockers had robots
        # restrictions): suppress custom WAF blocking for adopters.
        final_robots = (site.robots_at(24) or "").lower()
        robots_mentions_anthropic = any(
            token in final_robots for token in ("claudebot", "anthropic-ai")
        )
        p_waf = config.p_waf_blocks_anthropic * (
            0.15 if robots_mentions_anthropic else 1.0
        )
        site.blocking = BlockingConfig(
            blocks_automation=rng.random() < p_auto,
            waf_blocks_anthropic=rng.random() < p_waf,
            ip_blocks_published_ai=rng.random() < config.p_ip_blocks_published_ai,
        )

    p_both = config.rate_meta_noimageai
    p_noai_only = config.rate_meta_noai - p_both
    roll = rng.random()
    if roll < p_both:
        site.meta_noai = True
        site.meta_noimageai = True
    elif roll < p_both + p_noai_only:
        site.meta_noai = True


def _site_has_ai_robots(site: SimSite) -> bool:
    text = (site.robots_at(24) or "").lower()
    return any(
        token in text
        for token in ("gptbot", "ccbot", "anthropic-ai", "claudebot", "bytespider")
    )


def _assign_block_ai_quota(audit_sites: List[SimSite], config: PopulationConfig) -> None:
    """Enable Block AI Bots on a fixed share of Cloudflare zones.

    The paper observes 5.7% of determinable Cloudflare sites with the
    feature on, and that enablers restrict AI crawlers in robots.txt at
    twice the rate of other Cloudflare sites (24% vs 12%).  A quota
    with a 1:3 with/without-robots composition reproduces both even
    when the audit tier is small.
    """
    rng = seeded_rng(config.seed, "block-ai-quota")
    cf_sites = [s for s in audit_sites if s.blocking.on_cloudflare]
    determinable = [s for s in cf_sites if not s.blocking.cf_custom_confound]
    target = max(1, round(config.p_cf_block_ai * len(determinable)))
    # One scan of each site's final-month text feeds both partitions.
    has_ai_robots = {s.domain: _site_has_ai_robots(s) for s in determinable}
    with_robots = [s for s in determinable if has_ai_robots[s.domain]]
    without = [s for s in determinable if not has_ai_robots[s.domain]]
    n_with = min(len(with_robots), max(1, round(0.24 * target)))
    chosen = _sample(rng, with_robots, n_with)
    chosen += _sample(rng, without, target - len(chosen))
    for site in chosen:
        site.blocking = replace(
            site.blocking,
            cloudflare=replace(site.blocking.cloudflare, block_ai_bots=True),
        )
