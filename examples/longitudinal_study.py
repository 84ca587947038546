"""Section 3 end to end: the longitudinal robots.txt study, scaled down.

Run with::

    python examples/longitudinal_study.py [list_size]

Builds a simulated web (default 1,500-site monthly lists), crawls all
fifteen Common-Crawl-style snapshots, and prints the Figure 2 trend,
the Figure 3 per-agent table, and the Figure 4 allow/removal series.
"""

import sys

from repro.report.longitudinal import (
    build_longitudinal_bundle,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table3,
)
from repro.web.population import PopulationConfig


def main() -> None:
    list_size = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    config = PopulationConfig(
        universe_size=int(list_size * 1.5),
        list_size=list_size,
        top5k_cut=max(list_size // 10, 50),
        audit_size=max(list_size // 4, 100),
    )
    print(f"building the simulated web ({list_size}-site monthly lists) "
          "and crawling 15 snapshots...")
    bundle = build_longitudinal_bundle(config)
    print(f"stable sites: {len(bundle.series.stable_domains)}; "
          f"analysis set (robots.txt in every snapshot): "
          f"{len(bundle.series.analysis_domains)}\n")

    for runner in (run_table3, run_figure2, run_figure3, run_figure4):
        result = runner(bundle.series)
        print(result.text)
        print()


if __name__ == "__main__":
    main()
