"""Ablation: longest-match vs first-match rule evaluation.

RFC 9309 (and Google's parser) use longest-match with an allow-wins tie
break; the original 1994 draft used first-match, and some home-grown
parsers still do.  This ablation quantifies how often the discipline
changes fetch decisions over the population's real rule sets --
the files where ``Allow`` carve-outs follow a blanket ``Disallow``.
"""

from conftest import save_artifact

from repro.core.matcher import evaluate, first_match
from repro.core.policy import RobotsPolicy
from repro.report.longitudinal import ExperimentResult
from repro.report.tables import render_table

PROBES = ["/", "/page", "/images/a.png", "/blog/2024/post", "/admin/x"]
AGENTS = ["GPTBot", "CCBot", "randombot"]


def run_discipline_comparison(population):
    decisions = 0
    disagreements = 0
    affected_sites = 0
    for site in population.stable:
        text = site.robots_at(24)
        if text is None:
            continue
        policy = RobotsPolicy(text)
        site_hit = False
        for agent in AGENTS:
            rules = list(policy.rules_for(agent).rules)
            for path in PROBES:
                decisions += 1
                longest = evaluate(rules, path).allowed
                first = first_match(rules, path).allowed
                if longest != first:
                    disagreements += 1
                    site_hit = True
        if site_hit:
            affected_sites += 1
    return decisions, disagreements, affected_sites


def test_ablation_match_discipline(benchmark, audit_population, artifact_dir):
    decisions, disagreements, affected = benchmark.pedantic(
        run_discipline_comparison, args=(audit_population,), rounds=1, iterations=1
    )
    pct = 100.0 * disagreements / max(decisions, 1)
    result = ExperimentResult(
        "ablation_match_discipline",
        "Ablation: longest-match vs first-match evaluation",
        render_table(
            ["measurement", "value"],
            [
                ("fetch decisions compared", decisions),
                ("decisions that flip", disagreements),
                ("% flipped", pct),
                ("sites affected", affected),
            ],
            title="Match-discipline ablation",
        ),
        {"pct_flipped": pct, "affected_sites": float(affected)},
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    # The disciplines agree on simple files but must diverge somewhere:
    # the population contains disallow-then-allow carve-out files.
    assert decisions > 10_000
    assert 0 <= pct < 20.0
