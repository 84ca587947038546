"""Ablation: explicit-rule-only attribution vs counting wildcards.

The paper only counts a site as disallowing an AI crawler when the
crawler's UA is named explicitly (Section 3.1): a blanket
``User-agent: *`` group expresses no AI-specific intent.  This ablation
re-runs Figure 2 with wildcard rules counted and quantifies how much
the trend inflates (the <2% of sites with wildcard disallow-all lift
every snapshot's rate, including the pre-announcement ones, destroying
the "reaction to AI crawlers" signal).
"""

from conftest import save_artifact

from repro.report.longitudinal import ExperimentResult, run_figure2


def test_ablation_wildcard_counting(benchmark, longitudinal_bundle, artifact_dir):
    ablated = benchmark.pedantic(
        run_figure2, args=(longitudinal_bundle.series,),
        kwargs={"require_explicit": False}, rounds=1, iterations=1,
    )
    explicit = run_figure2(longitudinal_bundle.series, require_explicit=True)

    result = ExperimentResult(
        "ablation_wildcard",
        "Ablation: wildcard-counting vs explicit-only (Figure 2)",
        "EXPLICIT-ONLY (paper methodology):\n" + explicit.text
        + "\n\nWILDCARD-COUNTED (ablation):\n" + ablated.text,
        {
            "explicit_final_other": explicit.metrics["final_other_pct"],
            "ablated_final_other": ablated.metrics["final_other_pct"],
            "explicit_initial_other": explicit.metrics["initial_other_pct"],
            "ablated_initial_other": ablated.metrics["initial_other_pct"],
        },
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    # Wildcard counting inflates both ends of the trend...
    assert result.metrics["ablated_final_other"] > result.metrics["explicit_final_other"]
    assert result.metrics["ablated_initial_other"] > result.metrics["explicit_initial_other"]
    # ...and especially the pre-announcement baseline, where explicit
    # AI-crawler intent cannot exist yet.
    assert result.metrics["ablated_initial_other"] >= 2 * max(
        result.metrics["explicit_initial_other"], 0.1
    )
