"""Every runner outside Section 3: one per paper table or figure.

Each ``run_*`` function executes a full experiment -- building the
simulated world, running the measurement pipeline over HTTP, and
rendering the paper's artifact -- and returns an
:class:`~repro.report.longitudinal.ExperimentResult` carrying rendered
text plus headline metrics.  The Section 3 runners (Figures 2-4 and
Table 3) live in :mod:`repro.report.longitudinal`, so a run of only
those, such as every strata run, never imports this module.  The
benchmark harness (``benchmarks/``) times these runners and asserts
the metrics fall in the paper's bands; ``examples/reproduce_all.py``
uses them to regenerate EXPERIMENTS.md data.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..agents.catalogs import generic_crawler_user_agents
from ..agents.darkvisitors import AI_USER_AGENT_TOKENS, build_registry
from ..agents.registry import Compliance
from ..core.compiled import shared_policy_cache
from ..core.diagnostics import has_mistakes
from ..core.legacy import LegacyPolicy
from ..crawlers.assistant import build_app_store
from ..crawlers.engine import Crawler, CrawlResult
from ..crawlers.fleet import build_builtin_assistants, build_fleet
from ..crawlers.profiles import CrawlerProfile
from ..measure.active_blocking import survey_active_blocking
from ..measure.artists import measure_artist_sites
from ..measure.cloudflare_audit import audit_cloudflare_sites, infer_blocked_agents
from ..measure.compliance import (
    analyze_passive,
    build_testbed,
    classify_merged_crawler,
    merge_third_party_crawlers,
    run_active_measurement,
    run_passive_measurement,
)
from ..measure.cache import PolicyCache
from ..measure.meta_tags import scan_meta_tags
from ..net.server import Website, render_page
from ..net.transport import Network
from ..proxy.behavioral import BehavioralConfig, BehavioralPolicy
from ..proxy.cloudflare import CloudflareProxy, CloudflareSettings
from ..proxy.reverse_proxy import ReverseProxy
from ..survey.analysis import analyze
from ..survey.respondents import filter_valid, generate_respondents
from ..web.artists import build_artist_population
from ..web.population import WebPopulation
from .longitudinal import ExperimentResult, LongitudinalBundle
from .tables import render_table

__all__ = [
    "run_table1_compliance",
    "run_table2_artists",
    "run_sec62_active_blocking",
    "run_sec63_cloudflare",
    "run_sec22_meta_tags",
    "run_survey_tables",
    "run_appb2_parser_comparison",
    "run_sec81_mistakes",
    "run_change_taxonomy",
    "run_survey_crosstabs",
    "run_ext_adoption_by_category",
    "run_behavioral_equilibrium",
    "run_selective_compliance",
]


# ---------------------------------------------------------------- Table 1 ----


def run_table1_compliance(seed: int = 42, months: int = 6, n_apps: int = 2000) -> ExperimentResult:
    """Section 5 / Table 1: passive + active compliance measurement."""
    registry = build_registry()
    testbed = build_testbed(AI_USER_AGENT_TOKENS)
    fleet = build_fleet(testbed.network)
    run_passive_measurement(fleet, testbed, months=months)
    passive = analyze_passive(testbed, AI_USER_AGENT_TOKENS)

    # Built-in assistants (active).
    assistants = build_builtin_assistants(testbed.network)
    builtin_respects = {}
    for name, crawler in assistants.items():
        result = crawler.fetch("testbed-wildcard.example", "/page1")
        builtin_respects[name] = bool(result.skipped) and result.robots_fetched

    # Third-party assistant crawlers via the GPT app store (active).
    store = build_app_store(testbed.network, seed=seed, n_apps=n_apps)
    observations = run_active_measurement(store, testbed)
    groups = merge_third_party_crawlers(observations)
    breakdown: Dict[str, int] = {}
    for group in groups:
        label = classify_merged_crawler(group)
        if label != "no-traffic":
            breakdown[label] = breakdown.get(label, 0) + 1

    rows: List[Sequence[object]] = []
    for agent in registry:
        if agent.is_control_token:
            measured = "-"
        else:
            observation = passive[agent.token]
            if agent.token == "ChatGPT-User":
                # Verdict from the active measurement (the passive visit
                # is the documented anomaly).
                measured = "Yes" if builtin_respects["ChatGPT"] else "No"
            elif observation.respects is Compliance.UNKNOWN:
                measured = "-"
            else:
                measured = observation.respects.value
        rows.append(
            (
                agent.token,
                agent.category.value,
                agent.company,
                agent.publishes_ips.value,
                agent.claims_respect.value,
                measured,
            )
        )
    text = render_table(
        ["User Agent", "Category", "Company", "Publish IP", "Claim Respect",
         "Respect in Practice (measured)"],
        rows,
        title="Table 1: AI user agents and measured robots.txt compliance",
    )
    third_party_lines = [
        f"third-party assistant crawlers: {sum(breakdown.values())} distinct",
        f"  respects robots.txt: {breakdown.get('respects', 0)}",
        f"  buggy robots.txt fetch: {breakdown.get('buggy-fetch', 0)}",
        f"  fetches robots.txt some of the time: {breakdown.get('intermittent', 0)}",
        f"  never fetches robots.txt: {breakdown.get('no-fetch', 0)}",
    ]
    metrics = {
        "n_visited": float(sum(1 for o in passive.values() if o.visited)),
        "n_respect_yes": float(
            sum(
                1
                for row in rows
                if row[5] == "Yes"
            )
        ),
        "bytespider_respects": 1.0 if passive["Bytespider"].respects is Compliance.YES else 0.0,
        "third_party_total": float(sum(breakdown.values())),
        "third_party_no_fetch": float(breakdown.get("no-fetch", 0)),
        "builtin_respect": float(sum(builtin_respects.values())),
    }
    return ExperimentResult(
        "table1", "AI crawler compliance (Table 1, Section 5)",
        text + "\n\n" + "\n".join(third_party_lines), metrics
    )


# ---------------------------------------------------------------- Table 2 ----


def run_table2_artists(seed: int = 42) -> ExperimentResult:
    """Section 4.4 / Table 2: artist hosting providers."""
    population = build_artist_population(seed=seed)
    study = measure_artist_sites(population)
    rows = [
        (
            row.provider,
            row.pct_sites,
            row.edit_option,
            row.pct_disallow_ai,
            ",".join(row.blocks_uas) or "-",
            row.challenges_automation,
            row.tos_ai_stance,
        )
        for row in study.rows
    ]
    text = render_table(
        ["Hosting Provider", "% Sites", "Edit?", "% Disallow AI",
         "Edge-blocked UAs", "Challenges automation", "ToS on AI training"],
        rows,
        title="Table 2: artist website hosting providers",
    )
    metrics = {
        "squarespace_pct_disallow": study.row("Squarespace").pct_disallow_ai,
        "carbonmade_pct_disallow": study.row("Carbonmade").pct_disallow_ai,
        "wix_paid_pct_disallow": study.row("Wix (Paid)").pct_disallow_ai,
        "top8_share_pct": float(sum(r.pct_sites for r in study.rows)),
    }
    return ExperimentResult("table2", "Artist hosting providers (Table 2)", text, metrics)


# ------------------------------------------------------------- Section 6 ----


def run_sec62_active_blocking(population: WebPopulation) -> ExperimentResult:
    """Section 6.2: prevalence of active blocking in the audit tier."""
    network = Network()
    population.materialize(network, month=24, sites=population.audit_sites)
    hosts = [s.domain for s in population.audit_sites]
    survey = survey_active_blocking(network, hosts)

    cache = PolicyCache()
    robots_overlap = 0
    for host in survey.blocking_hosts():
        text = population.by_domain[host].robots_at(24)
        if text and cache.row(text).disallows_any(("ClaudeBot", "anthropic-ai")):
            robots_overlap += 1

    from .stats import proportion_summary

    rows = [
        ("sites probed", survey.n_sites, "100%"),
        ("excluded (tool blocked)", survey.n_excluded,
         proportion_summary(survey.n_excluded, survey.n_sites)),
        ("actively block AI UAs", survey.n_blocking,
         proportion_summary(survey.n_blocking, survey.n_sites)),
        ("blockers also restricting via robots.txt", robots_overlap,
         proportion_summary(robots_overlap, max(survey.n_blocking, 1))),
    ]
    text = render_table(
        ["population", "count", "% [95% CI]"], rows,
        title="Section 6.2: active blocking of Anthropic AI user agents",
    )
    metrics = {
        "pct_excluded": 100.0 * survey.n_excluded / survey.n_sites,
        "pct_blocking": 100.0 * survey.n_blocking / survey.n_sites,
        "pct_blockers_with_robots": 100.0 * robots_overlap / max(survey.n_blocking, 1),
    }
    return ExperimentResult("sec62", "Active blocking prevalence (Section 6.2)", text, metrics)


def _proportion(successes: int, total: int) -> str:
    from .stats import proportion_summary

    return proportion_summary(successes, max(total, 1))


def run_sec63_cloudflare(population: WebPopulation) -> ExperimentResult:
    """Section 6.3: grey-box UA coverage + Block-AI-Bots adoption."""
    registry = build_registry()

    # Grey-box on our own zone.
    def zone_factory(enabled: bool) -> Network:
        network = Network()
        origin = Website("own.example")
        origin.add_page("/", render_page("Own site", paragraphs=["x" * 100]))
        network.register(
            CloudflareProxy(origin, CloudflareSettings(block_ai_bots=enabled)),
            host="own.example",
        )
        return network

    candidates = [a.full_user_agent for a in registry.real_crawlers()]
    candidates += generic_crawler_user_agents()
    flipped = infer_blocked_agents(zone_factory, candidates, "own.example")

    # Adoption audit over the population's Cloudflare sites.
    network = Network()
    population.materialize(network, month=24, sites=population.audit_sites)
    cf_hosts = [s.domain for s in population.audit_sites if s.blocking.on_cloudflare]
    summary = audit_cloudflare_sites(network, cf_hosts)

    cache = PolicyCache()

    def robots_disallow_rate(hosts: List[str]) -> float:
        if not hosts:
            return 0.0
        hits = 0
        for host in hosts:
            text = population.by_domain[host].robots_at(24)
            if text and cache.row(text).disallows_any(AI_USER_AGENT_TOKENS):
                hits += 1
        return 100.0 * hits / len(hosts)

    enabled_hosts = summary.enabled_hosts()
    off_hosts = summary.determined_off_hosts()
    rows = [
        ("UA strings blocked by Block AI Bots (grey-box)", len(flipped), ""),
        ("Cloudflare-hosted audit sites", summary.n_sites,
         f"{100.0 * summary.n_sites / len(population.audit_sites):.1f}% of audit tier"),
        ("setting conclusively determined", summary.n_determined,
         f"{100.0 * summary.n_determined / max(summary.n_sites, 1):.1f}%"),
        ("Block AI Bots enabled", summary.n_enabled,
         _proportion(summary.n_enabled, summary.n_determined) + " of determined"),
        ("robots.txt AI-disallow rate among enablers", f"{robots_disallow_rate(enabled_hosts):.1f}%", ""),
        ("robots.txt AI-disallow rate among others", f"{robots_disallow_rate(off_hosts):.1f}%", ""),
    ]
    text = render_table(
        ["measurement", "value", "share"], rows,
        title="Section 6.3: Cloudflare Block AI Bots",
    )
    metrics = {
        "n_greybox_blocked_uas": float(len(flipped)),
        "pct_cf_hosted": 100.0 * summary.n_sites / len(population.audit_sites),
        "pct_determined": 100.0 * summary.n_determined / max(summary.n_sites, 1),
        "pct_enabled_of_determined": 100.0 * summary.n_enabled / max(summary.n_determined, 1),
        "robots_rate_enabled": robots_disallow_rate(enabled_hosts),
        "robots_rate_off": robots_disallow_rate(off_hosts),
    }
    return ExperimentResult("sec63", "Cloudflare Block AI Bots (Section 6.3)", text, metrics)


def run_sec22_meta_tags(population: WebPopulation) -> ExperimentResult:
    """Section 2.2: NoAI meta-tag prevalence in the audit tier."""
    network = Network()
    population.materialize(network, month=24, sites=population.audit_sites)
    hosts = [s.domain for s in population.audit_sites]
    scan = scan_meta_tags(network, hosts)
    per10k = 10_000 / max(scan.n_scanned, 1)
    rows = [
        ("homepages scanned", scan.n_scanned),
        ("unreachable", len(scan.unreachable)),
        ("noai", scan.n_noai),
        ("noimageai", scan.n_noimageai),
        ("noai per 10k (scaled)", scan.n_noai * per10k),
        ("noimageai per 10k (scaled)", scan.n_noimageai * per10k),
    ]
    text = render_table(
        ["measurement", "value"], rows,
        title="Section 2.2: NoAI meta tags in the popular-site tier",
    )
    metrics = {
        "noai_per_10k": scan.n_noai * per10k,
        "noimageai_per_10k": scan.n_noimageai * per10k,
    }
    return ExperimentResult("sec22", "NoAI meta tags (Section 2.2)", text, metrics)


# ------------------------------------------------------------------ survey ----


def run_survey_tables(seed: int = 42) -> ExperimentResult:
    """Section 4.2-4.3 + Tables 5-8: generate, filter, and analyze."""
    pool = generate_respondents(seed=seed)
    valid = filter_valid(pool)
    analysis = analyze(valid)

    table5 = render_table(
        ["Duration", "Count"],
        sorted(analysis.duration_counts.items(), key=lambda kv: kv[0]),
        title="Table 5: years making money from art",
    )
    table6 = render_table(
        ["Continent", "Count"],
        sorted(analysis.continent_counts.items(), key=lambda kv: -kv[1]),
        title="Table 6: continent of residence",
    )
    top5_types = sorted(
        analysis.art_type_counts.items(), key=lambda kv: -kv[1]
    )[:5]
    table7 = render_table(["Art Type", "Count"], top5_types,
                          title="Table 7: top five art types")
    table8 = render_table(
        ["Term", "Average Familiarity"],
        sorted(analysis.familiarity_means.items(), key=lambda kv: -kv[1]),
        title="Table 8: term familiarity (1-5)",
    )
    headline = render_table(
        ["statistic", "value"],
        [
            ("valid responses", analysis.n_respondents),
            ("professional artists", analysis.n_professional),
            ("% never heard of robots.txt", analysis.pct_never_heard),
            ("% would enable blocking (likely+)", analysis.pct_would_enable_blocking),
            ("% very likely to enable blocking", analysis.pct_very_likely_blocking),
            ("% moderate+ job impact expected", analysis.pct_impact_moderate_plus),
            ("% significant+ job impact expected", analysis.pct_impact_significant_plus),
            ("took protective action", analysis.n_took_action),
            ("% of actors using Glaze", analysis.pct_glaze_among_actors),
            ("% adopting after explainer", analysis.pct_would_adopt_after_explainer),
            ("% distrust among never-heard", analysis.pct_distrust_among_never_heard),
            ("aware site owners", analysis.n_aware_site_owners),
            ("aware site owners not using robots.txt", analysis.n_aware_site_owners_not_using),
            ("aware site owners with no control", analysis.n_aware_no_control),
        ],
        title="Section 4 headline statistics",
    )
    text = "\n\n".join([table5, table6, table7, table8, headline])
    metrics = {
        "n_valid": float(analysis.n_respondents),
        "pct_never_heard": analysis.pct_never_heard,
        "pct_would_enable_blocking": analysis.pct_would_enable_blocking,
        "pct_distrust": analysis.pct_distrust_among_never_heard,
        "familiarity_robots": analysis.familiarity_means["Robots.txt"],
        "familiarity_website": analysis.familiarity_means["Website"],
    }
    return ExperimentResult("survey", "Artist survey (Tables 5-8, Section 4)", text, metrics)


# -------------------------------------------------------------- App. B.2 ----


def _sites_by_body(population: WebPopulation, month: int) -> Dict[str, int]:
    """How many stable sites serve each distinct robots.txt body at
    *month* (sites serving none are left out)."""
    counts: Dict[str, int] = {}
    for site in population.stable:
        text = site.robots_at(month)
        if text is not None:
            counts[text] = counts.get(text, 0) + 1
    return counts


def run_appb2_parser_comparison(population: WebPopulation) -> ExperimentResult:
    """Appendix B.2 / Section 8.1: compliant vs legacy parser disagreement.

    Both parsers answer per body, so each distinct month-24 body is
    compared once and its counts are weighted by the sites serving it.
    """
    probes = ["/", "/page", "/images/a.png"]
    agents = ["GPTBot", "CCBot", "anthropic-ai", "Claudebot", "randombot"]
    n_sites = 0
    n_disagree = 0
    decision_disagreements = 0
    for text, n in _sites_by_body(population, 24).items():
        n_sites += n
        # One tokenization per body: the compliant side is the shared
        # cache's parse, and the legacy parser groups that parse's token
        # stream with its own quirks.  Both memoize per-agent rules, so
        # each agent resolves once per parser.
        compliant = shared_policy_cache().policy(text)
        legacy = LegacyPolicy(compliant.parsed.source_lines)
        body_disagreements = 0
        for agent in agents:
            for path in probes:
                if compliant.is_allowed(agent, path) != legacy.is_allowed(agent, path):
                    body_disagreements += 1
        decision_disagreements += n * body_disagreements
        if body_disagreements:
            n_disagree += n
    decisions = n_sites * len(agents) * len(probes)
    pct_sites = 100.0 * n_disagree / max(n_sites, 1)
    rows = [
        ("sites compared", n_sites),
        ("sites with interpretation differences", n_disagree),
        ("% of sites misinterpreted by legacy parser", pct_sites),
        ("per-decision disagreement rate (%)",
         100.0 * decision_disagreements / max(decisions, 1)),
    ]
    text = render_table(
        ["measurement", "value"], rows,
        title="Appendix B.2: compliant vs home-grown parser",
    )
    metrics = {
        "pct_sites_disagree": pct_sites,
        "pct_decisions_disagree": 100.0 * decision_disagreements / max(decisions, 1),
    }
    return ExperimentResult("appb2", "Parser comparison (Appendix B.2)", text, metrics)


def run_sec81_mistakes(population: WebPopulation) -> ExperimentResult:
    """Section 8.1: fraction of robots.txt files with author mistakes."""
    n_sites = 0
    n_mistakes = 0
    for text, n in _sites_by_body(population, 24).items():
        n_sites += n
        if has_mistakes(text):
            n_mistakes += n
    pct = 100.0 * n_mistakes / max(n_sites, 1)
    text = render_table(
        ["measurement", "value"],
        [
            ("robots.txt files linted", n_sites),
            ("files with author mistakes", n_mistakes),
            ("% with mistakes", pct),
        ],
        title="Section 8.1: robots.txt author mistakes",
    )
    return ExperimentResult(
        "sec81", "robots.txt mistakes (Section 8.1)", text,
        {"pct_mistakes": pct},
    )


def run_tables9_12_codebooks(seed: int = 42) -> ExperimentResult:
    """Appendix D.3 / Tables 9-12: codebooks with measured theme counts.

    Renders each codebook (theme, description, representative example)
    alongside the number of generated open responses the keyword coder
    assigned to the theme -- the reproduction's analogue of the paper's
    qualitative coding output.
    """
    from ..survey.coding import (
        ACTIONS_CODEBOOK,
        DISTRUST_CODEBOOK,
        ENABLE_CODEBOOK,
        NO_ADOPT_CODEBOOK,
    )

    pool = generate_respondents(seed=seed)
    valid = filter_valid(pool)
    analysis = analyze(valid)

    sections = []
    metrics: Dict[str, float] = {}
    for title, codebook, counts in (
        ("Table 9: other actions taken by artists", ACTIONS_CODEBOOK,
         analysis.other_action_theme_counts),
        ("Table 10: why artists would not adopt robots.txt", NO_ADOPT_CODEBOOK,
         analysis.no_adopt_theme_counts),
        ("Table 11: why artists would enable a blocking mechanism",
         ENABLE_CODEBOOK, analysis.enable_theme_counts),
        ("Table 12: why artists distrust AI companies", DISTRUST_CODEBOOK,
         analysis.distrust_theme_counts),
    ):
        rows = [
            (theme.name, theme.description, counts.get(theme.name, 0))
            for theme in codebook.themes
        ]
        sections.append(render_table(["theme", "description", "# coded"], rows, title=title))
        metrics[f"{codebook.name}_total"] = float(sum(counts.values()))
    return ExperimentResult(
        "tables9_12",
        "Thematic codebooks (Appendix D.3, Tables 9-12)",
        "\n\n".join(sections),
        metrics,
    )


def run_change_taxonomy(bundle: LongitudinalBundle) -> ExperimentResult:
    """Extension: taxonomy of robots.txt changes between snapshots.

    Walks every analysis site's consecutive snapshot pairs, classifies
    each semantic transition with the Section 3-aligned taxonomy
    (AI restriction added / removed / explicit allow added / unrelated),
    and tallies the mix -- quantifying that the adoption wave dwarfs the
    deal-driven removals and that most robots.txt churn is unrelated to
    AI at all.
    """
    from ..core.diff import ChangeKind, classify_change

    # Group consecutive-snapshot transitions by unique (before, after)
    # body-ref pair and classify each distinct pair exactly once.  Each
    # distinct body has one ref in the series' shard view, so the
    # dominant case -- no edit between snapshots -- collapses to one
    # identical-pair entry per body, and identical text is NO_CHANGE by
    # definition (an empty semantic diff) without running the differ at
    # all.  The tallies are identical to the per-domain per-transition
    # formulation.
    view = bundle.series.analysis
    body_text = view.reader.body_text
    pair_counts: Dict[Tuple[int, int], int] = {}
    for previous_row, current_row in zip(view.eff_bodies, view.eff_bodies[1:]):
        for pair in zip(previous_row, current_row):
            pair_counts[pair] = pair_counts.get(pair, 0) + 1

    counts: Dict[ChangeKind, int] = {kind: 0 for kind in ChangeKind}
    transitions = 0
    for (previous_ref, ref), n in pair_counts.items():
        if previous_ref == ref:
            kind = ChangeKind.NO_CHANGE
        else:
            kind = classify_change(
                body_text(previous_ref), body_text(ref), AI_USER_AGENT_TOKENS
            )
        if kind is not ChangeKind.NO_CHANGE:
            transitions += n
        counts[kind] += n
    rows = [(kind.value, counts[kind]) for kind in ChangeKind]
    text = render_table(
        ["change kind", "snapshot transitions"], rows,
        title="Extension: robots.txt change taxonomy over the window",
    )
    metrics = {f"n_{kind.value}": float(counts[kind]) for kind in ChangeKind}
    metrics["n_changed_transitions"] = float(transitions)
    return ExperimentResult(
        "change_taxonomy", "robots.txt change taxonomy (extension)", text, metrics
    )


def run_survey_crosstabs(seed: int = 42) -> ExperimentResult:
    """Extension: association tests over the survey responses.

    Chi-square tests of independence for three pairings the Section 4
    narrative implies: robots.txt awareness vs professional status,
    post-explainer adoption intent vs web familiarity, and protective
    action vs expected job impact (the paper's strongest implied
    coupling: 83% took action and 79% expect moderate+ impact).
    """
    from ..survey.crosstabs import (
        actions_by_impact,
        awareness_by_professional,
        chi_square,
        intent_by_familiarity,
    )

    valid = filter_valid(generate_respondents(seed=seed))
    sections = []
    metrics: Dict[str, float] = {}
    for name, table in (
        ("awareness-by-professional", awareness_by_professional(valid)),
        ("intent-by-familiarity", intent_by_familiarity(valid)),
        ("action-by-impact", actions_by_impact(valid)),
    ):
        result = chi_square(table)
        rows = [
            [table.row_labels[i]] + list(table.counts[i])
            for i in range(len(table.row_labels))
        ]
        sections.append(
            render_table(
                ["", *table.col_labels],
                rows,
                title=(
                    f"{name}: chi2={result.statistic:.2f}, dof={result.dof}, "
                    f"p={result.p_value:.4f}" if result.p_value is not None
                    else f"{name}: chi2={result.statistic:.2f}"
                ),
            )
        )
        metrics[f"{name}_chi2"] = result.statistic
        if result.p_value is not None:
            metrics[f"{name}_p"] = result.p_value
    return ExperimentResult(
        "survey_crosstabs",
        "Survey association tests (extension)",
        "\n\n".join(sections),
        metrics,
    )


def run_ext_adoption_by_category(bundle: LongitudinalBundle) -> ExperimentResult:
    """Extension: AI-restriction adoption by editorial category.

    Fletcher's Reuters Institute factsheet [32] (cited in Section 2.3)
    found news websites the most aggressive robots.txt adopters, and
    Section 3.4 identifies misinformation and shopping sites courting
    AI crawlers.  This experiment measures end-of-window full-disallow
    rates per category over the analysis population.
    """
    series = bundle.series
    view = series.analysis
    reader = view.reader
    by_category: Dict[str, List[int]] = {}
    for domain, ref in zip(series.analysis_domains, view.eff_bodies[-1]):
        site = bundle.population.by_domain[domain]
        row = series.cache.row(reader.body_text(ref), reader.body_digest(ref))
        hit = int(row.fully_disallows_any(AI_USER_AGENT_TOKENS))
        by_category.setdefault(site.category, []).append(hit)
    from .stats import proportion_summary

    rows = []
    metrics: Dict[str, float] = {}
    for category, hits in sorted(by_category.items(), key=lambda kv: -sum(kv[1]) / len(kv[1])):
        rate = 100.0 * sum(hits) / len(hits)
        rows.append((category, len(hits), proportion_summary(sum(hits), len(hits))))
        metrics[f"pct_{category}"] = rate
    text = render_table(
        ["category", "sites", "% fully disallowing >=1 AI agent [95% CI]"],
        rows,
        title="Extension: adoption by editorial category (final snapshot)",
    )
    return ExperimentResult(
        "ext_adoption_by_category", "Adoption by category (extension)", text, metrics
    )


# ------------------------------------------------- behavioral equilibrium ----


def _adversary_site(host: str, n_pages: int) -> Website:
    """A binary-tree-linked gallery site big enough for a BFS crawl."""
    site = Website(host)
    site.set_robots_txt("User-agent: *\nDisallow: /private/\n")
    site.add_page("/", render_page(
        "Gallery index",
        paragraphs=["Selected works below."],
        links=["/work/1"],
    ))
    for i in range(1, n_pages + 1):
        children = [f"/work/{c}" for c in (2 * i, 2 * i + 1) if c <= n_pages]
        site.add_page(f"/work/{i}", render_page(
            f"Work {i}", paragraphs=[f"Notes on piece {i}."], links=children,
        ))
    return site


def _crawl_against_policy(
    profile: CrawlerProfile, host: str, pages: int, seed: int
) -> Tuple[BehavioralPolicy, CrawlResult, float]:
    """Crawl a fresh behaviorally-defended site with one profile.

    Every profile gets its own network, site, proxy, and policy, so
    windows cannot bleed between adversaries and the run is identical
    in every scheduling mode.
    Returns ``(policy, crawl result, simulated seconds consumed)``.
    """
    network = Network()
    network.month = 0
    policy = BehavioralPolicy(BehavioralConfig(seed=seed))
    proxy = ReverseProxy(_adversary_site(host, 2 * pages + 1), behavioral=policy)
    network.register(proxy, host=host)
    crawler = Crawler(profile, network)
    result = crawler.crawl(host, max_pages=pages)
    return policy, result, network.now


def run_behavioral_equilibrium(seed: int = 7, pages: int = 24) -> ExperimentResult:
    """Extension: behavioral detection rate vs. evasion cost.

    ROADMAP item 3 / "Detecting Bot Detection" (PAPERS.md): five
    adversary profiles -- naive scraping, UA rotation, IP rotation,
    paced stealth, and paced stealth with rotation -- each crawl a
    fresh behaviorally-defended site.  The matrix reports what the
    defense caught (detection rate, verdict mix) against what evasion
    cost the adversary (simulated seconds, pages actually retrieved).
    The headline equilibrium: identity rotation is *worse* than naive
    against a behavioral layer (churn is itself a signal), while paced
    stealth evades at a large simulated-time cost.
    """
    ua_pool = tuple(f"Mozilla/5.0 (compatible; Fetcher/{v}.0)" for v in range(2, 6))
    ip_pool = tuple(f"198.51.100.{10 + i}" for i in range(4))
    adversaries = [
        ("naive", CrawlerProfile.oblivious("NaiveScraper")),
        ("ua-rotate", CrawlerProfile.oblivious("RotatingScraper", ua_pool=ua_pool)),
        ("ip-rotate", CrawlerProfile.oblivious("HydraScraper", ip_pool=ip_pool)),
        ("paced", CrawlerProfile.stealth("PacedScraper", seed=seed)),
        ("full-stealth", CrawlerProfile.stealth(
            "GhostScraper", fetch_interval=2.0, seed=seed, ip_pool=ip_pool,
        )),
    ]
    rows = []
    metrics: Dict[str, float] = {"pages_requested": float(pages)}
    for name, profile in adversaries:
        policy, result, sim_seconds = _crawl_against_policy(
            profile, f"{name}.gallery.example", pages, seed
        )
        pages_ok = sum(
            1
            for path, status in result.fetched
            if status == 200 and path != "/robots.txt"
        )
        rate = policy.detection_rate()
        summary = policy.summary()
        rows.append((
            name,
            policy.assessed(),
            pages_ok,
            f"{100.0 * rate:.1f}%",
            " ".join(f"{v}:{n}" for v, n in summary.items() if v != "allow") or "-",
            f"{sim_seconds:.1f}s",
        ))
        metrics[f"detection_rate_{name.replace('-', '_')}"] = rate
        metrics[f"pages_ok_{name.replace('-', '_')}"] = float(pages_ok)
        metrics[f"sim_seconds_{name.replace('-', '_')}"] = sim_seconds
    text = render_table(
        ["adversary", "requests", "pages ok", "detected", "verdicts", "sim time"],
        rows,
        title="Extension: behavioral detection / evasion equilibrium",
    )
    return ExperimentResult(
        "behavioral", "Behavioral detection equilibrium (extension)", text, metrics
    )


def run_selective_compliance(seed: int = 7) -> ExperimentResult:
    """Extension: per-directive selective compliance, observed server-side.

    Kim et al. 2025 (PAPERS.md) show scrapers obey robots.txt
    *selectively* -- honoring some directives while ignoring others.
    Four profiles crawl a site whose robots.txt both disallows
    ``/private/`` and sets ``Crawl-delay: 2``; compliance with each
    directive is judged only from what the server (and its behavioral
    layer) can see: private-path hits in the access log and measured
    inter-arrival gaps on the simulated clock.
    """
    delay = 2.0
    profiles = [
        ("obeys-all", CrawlerProfile.respectful(
            "DutifulBot", honors_crawl_delay=True, paces_on_clock=True,
        )),
        ("ignores-delay", CrawlerProfile.respectful(
            "HastyBot", honors_crawl_delay=False, paces_on_clock=True,
        )),
        ("ignores-disallow", CrawlerProfile.defiant(
            "NosyBot", honors_crawl_delay=True, paces_on_clock=True,
        )),
        ("ignores-all", CrawlerProfile.defiant("BrazenBot")),
    ]
    rows = []
    metrics: Dict[str, float] = {"n_selective_profiles": float(len(profiles))}
    for name, profile in profiles:
        network = Network()
        network.month = 0
        policy = BehavioralPolicy(BehavioralConfig(seed=seed))
        host = f"{name}.journal.example"
        site = Website(host)
        site.set_robots_txt(
            f"User-agent: *\nDisallow: /private/\nCrawl-delay: {int(delay)}\n"
        )
        site.add_page("/", render_page(
            "Journal", paragraphs=["Front page."],
            links=[f"/public/{i}" for i in range(1, 7)] + ["/private/drafts"],
        ))
        for i in range(1, 7):
            site.add_page(f"/public/{i}", render_page(
                f"Entry {i}", paragraphs=[f"Public entry {i}."],
            ))
        site.add_page("/private/drafts", render_page(
            "Drafts", paragraphs=["Unpublished drafts."],
        ))
        proxy = ReverseProxy(site, behavioral=policy)
        network.register(proxy, host=host)
        Crawler(profile, network).crawl(host, max_pages=8)

        entries = [e for e in proxy.access_log if not e.is_robots_fetch]
        private_hits = sum(1 for e in entries if e.path.startswith("/private/"))
        stamps = sorted(e.timestamp for e in entries)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
        fetched_robots = any(e.is_robots_fetch for e in proxy.access_log)
        obeyed_disallow = private_hits == 0
        obeyed_delay = bool(gaps) and mean_gap >= 0.9 * delay
        rows.append((
            name,
            "yes" if fetched_robots else "no",
            "obeyed" if obeyed_disallow else f"violated ({private_hits})",
            f"{'obeyed' if obeyed_delay else 'violated'} ({mean_gap:.2f}s)",
            f"{100.0 * policy.detection_rate():.1f}%",
        ))
        slug = name.replace("-", "_")
        metrics[f"disallow_obeyed_{slug}"] = float(obeyed_disallow)
        metrics[f"delay_obeyed_{slug}"] = float(obeyed_delay)
        metrics[f"detection_rate_{slug}"] = policy.detection_rate()
    text = render_table(
        ["profile", "fetched robots", "Disallow: /private/",
         f"Crawl-delay: {int(delay)}", "behaviorally detected"],
        rows,
        title="Extension: per-directive selective compliance",
    )
    return ExperimentResult(
        "selective", "Selective compliance per directive (extension)", text, metrics
    )
