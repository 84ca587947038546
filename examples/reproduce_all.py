"""Run every experiment and write the results to results/.

Run with::

    python examples/reproduce_all.py [--fast] [--workers N]

Executes the full battery through the dependency-aware orchestrator
(:mod:`repro.report.orchestrator`): the simulated world is built once
in the content-addressed world store and every runner reads that one
frozen world, which rejects writes.  ``--workers N`` fans independent
experiments out across a worker pool; results are bit-identical for
any worker count.  Writes ``results/<experiment>.txt`` per experiment, a combined
``results/summary.txt`` with every headline metric (the raw material
for EXPERIMENTS.md), a machine-readable ``results/TIMINGS.json`` with
the span-derived wall-clock trajectory, and the run's telemetry:
``results/METRICS.json`` (every counter/gauge/histogram, render with
``repro stats``), ``results/SERIES.json`` (the simulated-month time
series behind ``repro dashboard``), plus ``results/TRACE.jsonl`` (the
hierarchical span records for world build, snapshot crawls, and each
experiment).  The telemetry holds what this run recorded, world build
included.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.report.orchestrator import run_all
from repro.web import PopulationConfig

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="use a smaller world for a quick run")
    parser.add_argument("--workers", type=int, default=4,
                        help="experiment worker pool size (default 4; "
                             "any count yields byte-identical results)")
    args = parser.parse_args()

    config = (
        PopulationConfig(universe_size=1500, list_size=1000, top5k_cut=120,
                         audit_size=400)
        if args.fast
        else PopulationConfig()
    )
    RESULTS.mkdir(exist_ok=True)
    summary_lines = [
        f"experiment scale: {config.list_size}-site lists "
        f"(1:{round(100_000 / config.list_size)} of the paper's setting)",
        "",
    ]

    print("running the battery (world build included)...")
    report = run_all(config, workers=args.workers, telemetry_dir=RESULTS)
    print(f"world ready in {report.world_seconds:.1f}s "
          f"[mode={report.mode}, workers={report.workers}]")

    timings = report.to_timings()["experiments"]
    for entry, result in zip(timings, report.results):
        (RESULTS / f"{result.experiment_id}.txt").write_text(result.text + "\n")
        print(f"  {entry['key']:10s} done in {entry['seconds']:5.1f}s "
              f"-> results/{result.experiment_id}.txt")
        summary_lines.append(f"[{result.experiment_id}] {result.title}")
        for metric, value in sorted(result.metrics.items()):
            summary_lines.append(f"    {metric} = {value:.4f}")
        summary_lines.append("")

    (RESULTS / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    (RESULTS / "TIMINGS.json").write_text(
        json.dumps(report.to_timings(), indent=2) + "\n"
    )
    print(f"\nwrote {RESULTS / 'summary.txt'}")
    print(f"wrote {RESULTS / 'TIMINGS.json'} "
          f"(total {report.total_seconds:.1f}s)")
    print(f"wrote {RESULTS / 'METRICS.json'} (render with `repro stats`)")
    print(f"wrote {RESULTS / 'SERIES.json'} (render with `repro dashboard`)")
    print(f"wrote {RESULTS / 'TRACE.jsonl'} ({len(report.spans)} spans)")


if __name__ == "__main__":
    main()
