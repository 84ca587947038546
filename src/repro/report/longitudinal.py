"""The Section 3 runners: Figures 2-4 and Table 3, and the result type.

Each runner reads one source -- a bundle's
:class:`~repro.measure.longitudinal.SnapshotSeries` or an open
:class:`~repro.web.archive.ArchiveSet` -- and renders the paper's
artifact as an :class:`ExperimentResult`.  :func:`run_all
<repro.report.orchestrator.run_all>` feeds them the bundle's series,
:func:`run_strata <repro.report.orchestrator.run_strata>` each
stratum's archive.

This module imports only the longitudinal pipeline, the population and
the two renderers, so a strata run never loads the survey, the audits
or the testbed that :mod:`repro.report.experiments` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from ..measure.longitudinal import (
    FIGURE3_AGENTS,
    SnapshotSeries,
    Source,
    allow_and_removal_trend,
    collect_snapshots,
    full_disallow_trend,
    per_agent_trend,
    snapshot_coverage_table,
)
from ..web.population import PopulationConfig, WebPopulation, build_web_population
from .figures import ascii_chart, series_to_csv
from .tables import render_table

if TYPE_CHECKING:  # pragma: no cover
    from ..web.worldstore import WorldStore

__all__ = [
    "ExperimentResult",
    "LongitudinalBundle",
    "build_longitudinal_bundle",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_table3",
]


@dataclass
class ExperimentResult:
    """The outcome of one experiment runner.

    Attributes:
        experiment_id: Stable identifier ("figure2", "table1", ...).
        title: Human-readable title.
        text: Rendered tables / chart / CSV output.
        metrics: Headline numbers for band assertions.
    """

    experiment_id: str
    title: str
    text: str
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class LongitudinalBundle:
    """A built population plus its crawled snapshot series."""

    population: WebPopulation
    series: SnapshotSeries


def build_longitudinal_bundle(
    config: Optional[PopulationConfig] = None,
    store: Optional["WorldStore"] = None,
) -> LongitudinalBundle:
    """Build the Section 3 world and crawl all fifteen snapshots.

    When *store* is given, the population and series come from the
    content-addressed :class:`~repro.web.worldstore.WorldStore`: the
    world is built at most once per config digest and shared (frozen)
    across every consumer, with bit-identical outputs.
    """
    if store is not None:
        return LongitudinalBundle(
            population=store.population(config),
            series=store.series(config),
        )
    population = build_web_population(config or PopulationConfig())
    return LongitudinalBundle(
        population=population, series=collect_snapshots(population)
    )


def run_figure2(source: Source, require_explicit: bool = True) -> ExperimentResult:
    """Figure 2: % fully disallowing >= 1 AI UA, Top-5K vs the rest.

    *source* is a bundle's :class:`SnapshotSeries` or an open
    :class:`~repro.web.archive.ArchiveSet`; both render identically
    for the same world.  Verdict rows come from ``source.cache``, backed
    by whatever store the caller attached to it.
    """
    trend = full_disallow_trend(source, require_explicit=require_explicit)
    rows = trend.rows
    series = {
        "top5k": [(sid, pct) for sid, pct, _ in rows],
        "other": [(sid, pct) for sid, _, pct in rows],
    }
    text = (
        render_table(
            ["snapshot", "% top5k", "% other"],
            [(sid, a, b) for sid, a, b in rows],
            title="Figure 2: sites fully disallowing at least one AI crawler",
        )
        + "\n\n"
        + ascii_chart(series)
        + "\n\nCSV:\n"
        + series_to_csv(series)
    )
    metrics = {
        "final_top5k_pct": rows[-1][1],
        "final_other_pct": rows[-1][2],
        "initial_other_pct": rows[0][2],
        "n_analysis_sites": float(trend.n_analysis),
    }
    return ExperimentResult("figure2", "Full-disallow trend (Figure 2)", text, metrics)


def run_figure3(source: Source) -> ExperimentResult:
    """Figure 3: per-agent partial-or-full disallow trend (*source* as in
    :func:`run_figure2`)."""
    trends = per_agent_trend(source)
    series = {agent: list(points) for agent, points in trends.items()}
    snapshot_ids = [sid for sid, _ in next(iter(series.values()))]
    rows = []
    for index, sid in enumerate(snapshot_ids):
        rows.append([sid] + [series[a][index][1] for a in FIGURE3_AGENTS])
    text = (
        render_table(
            ["snapshot"] + list(FIGURE3_AGENTS),
            rows,
            title="Figure 3: sites partially/fully disallowing each AI agent (%)",
        )
        + "\n\nCSV:\n"
        + series_to_csv(series)
    )
    finals = {agent: points[-1][1] for agent, points in trends.items()}
    metrics = {f"final_{agent}": value for agent, value in finals.items()}
    metrics["gptbot_is_max"] = 1.0 if finals["GPTBot"] == max(finals.values()) else 0.0
    return ExperimentResult("figure3", "Per-agent disallow trend (Figure 3)", text, metrics)


def run_figure4(source: Source) -> ExperimentResult:
    """Figure 4 + Table 4: explicit allows, removals, first-allow list
    (*source* as in :func:`run_figure2`)."""
    trend = allow_and_removal_trend(source)
    table4 = trend.first_allows
    series = {
        "explicit_allows": [(sid, float(n)) for sid, n in trend.explicit_allow_counts],
        "removals": [(sid, float(n)) for sid, n in trend.removals_per_period],
    }
    text = (
        render_table(
            ["snapshot", "# explicit allows", "# removals in period"],
            [
                (sid, allows, removals)
                for (sid, allows), (_, removals) in zip(
                    trend.explicit_allow_counts, trend.removals_per_period
                )
            ],
            title="Figure 4: explicit allows and restriction removals",
        )
        + "\n\n"
        + render_table(
            ["domain", "first snapshot allowing GPTBot"],
            table4,
            title="Table 4: domains explicitly allowing GPTBot",
        )
        + "\n\nCSV:\n"
        + series_to_csv(series)
    )
    total_removals = sum(n for _, n in trend.removals_per_period)
    # Normalize by the analysis population (the paper's 484 removers and
    # 79 allowers are counts over its 40,455 analysis sites).
    n_analysis = max(trend.n_analysis, 1)
    metrics = {
        "final_explicit_allows": float(trend.explicit_allow_counts[-1][1]),
        "total_removals": float(total_removals),
        "removals_paper_equivalent": total_removals * 40_455 / n_analysis,
        "allows_paper_equivalent": trend.explicit_allow_counts[-1][1] * 40_455 / n_analysis,
        "n_table4_domains": float(len(table4)),
    }
    return ExperimentResult("figure4", "Explicit allows & removals (Figure 4, Table 4)", text, metrics)


def run_table3(source: Source) -> ExperimentResult:
    """Table 3: snapshot coverage statistics (*source* as in
    :func:`run_figure2`)."""
    rows = snapshot_coverage_table(source)
    text = render_table(
        ["snapshot", "months", "# sites", "# with robots.txt"],
        rows,
        title="Table 3: snapshot coverage",
    )
    metrics = {
        "n_snapshots": float(len(rows)),
        "min_with_robots": float(min(r[3] for r in rows)),
        "max_sites": float(max(r[2] for r in rows)),
    }
    return ExperimentResult("table3", "Snapshot coverage (Table 3)", text, metrics)
