"""Build, export, reload, and re-analyze -- the replication workflow.

Run with::

    python examples/replication_package.py

The paper publishes its data and code; this example shows the
equivalent workflow here: build a world, crawl its snapshots, export
the three datasets (the snapshot corpus as a columnar shard archive,
robots.txt schedules and survey responses as JSONL), reload them from
disk, and verify the re-analysis reproduces the original numbers
exactly.  It also demonstrates the
semantic differ on a real deal-driven robots.txt change.
"""

import pathlib

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.diff import classify_change, diff_robots
from repro.measure.longitudinal import (
    collect_shard_archives,
    collect_snapshots,
    full_disallow_trend,
)
from repro.report.datasets import dump_respondents, dump_schedules, load_respondents
from repro.survey.analysis import analyze
from repro.survey.respondents import filter_valid, generate_respondents
from repro.web.population import PopulationConfig, build_web_population
from repro.web.archive import ArchiveSet

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    config = PopulationConfig(
        universe_size=1200, list_size=800, top5k_cut=100, audit_size=200
    )
    print("building world and crawling snapshots...")
    population = build_web_population(config)
    series = collect_snapshots(population)

    # -- export --------------------------------------------------------------
    archive_path = collect_shard_archives(population, OUT / "snapshots")
    print(
        f"exported {len(series.stable_domains) * len(series.specs)} snapshot "
        f"records -> {archive_path}"
    )

    sched_path = OUT / "schedules.jsonl"
    with sched_path.open("w") as sink:
        n = dump_schedules(population.stable, sink)
    print(f"exported {n} robots.txt schedules -> {sched_path}")

    survey_path = OUT / "survey.jsonl"
    respondents = filter_valid(generate_respondents())
    with survey_path.open("w") as sink:
        n = dump_respondents(respondents, sink)
    print(f"exported {n} survey responses -> {survey_path}")

    # -- reload and re-analyze -------------------------------------------------
    with ArchiveSet.open(archive_path) as archive:
        recomputed = full_disallow_trend(archive)
    assert recomputed == full_disallow_trend(series), (
        "reloaded corpus must reproduce the trend"
    )
    print("figure-2 trend reproduced exactly from the exported corpus")

    with survey_path.open() as source:
        survey_reloaded = load_respondents(source)
    assert (
        analyze(survey_reloaded).pct_never_heard
        == analyze(respondents).pct_never_heard
    )
    print("survey statistics reproduced exactly from the exported responses")

    # -- the differ on a real transition -----------------------------------------
    deal_publisher, domains = next(iter(population.deal_domains.items()))
    site = population.by_domain[domains[0]]
    months = [m for m in site.change_months() if m > 0]
    month = months[-1]
    before, after = site.robots_at(month - 1), site.robots_at(month)
    diff = diff_robots(before, after)
    kind = classify_change(before, after, AI_USER_AGENT_TOKENS)
    print(
        f"\n{site.domain} ({deal_publisher}) at month {month}: {kind.value}; "
        f"loosened={diff.loosened_agents()} removed={diff.agents_removed}"
    )


if __name__ == "__main__":
    main()
