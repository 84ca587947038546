"""Figure 4 + Table 4: explicit allows and restriction removals.

Paper shape: the number of sites explicitly allowing AI crawlers grows
over time (79 sites allow GPTBot by October 2024 out of 40,455);
restriction removals cluster around publisher data-deal months, with
484 sites removing GPTBot restrictions between August 2023 and October
2024.  Scaled to the paper's population, our counts should land near
those totals.
"""

from conftest import save_artifact

from repro.report.experiments import run_figure4


def test_figure4_allows_and_removals(benchmark, longitudinal_bundle, artifact_dir):
    result = benchmark.pedantic(
        run_figure4, args=(longitudinal_bundle.series,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    assert metrics["final_explicit_allows"] >= 1
    assert metrics["total_removals"] >= 5
    # Paper equivalents: 484 removers, 79 allowers (generous bands for
    # small-population integer effects).
    assert 250 <= metrics["removals_paper_equivalent"] <= 900
    assert 25 <= metrics["allows_paper_equivalent"] <= 180
    assert metrics["n_table4_domains"] >= metrics["final_explicit_allows"] - 1
