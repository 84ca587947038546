"""Figure 2: % of sites fully disallowing >= 1 AI crawler over time.

Paper shape: near-zero in late 2022, a surge after the August 2023
GPTBot/ChatGPT-User announcement, reaching 12-14% for the Stable Top 5K
and 8-10% for the rest of the Stable Top 100K by the end of the window,
with the top tier consistently above the rest.
"""

from conftest import save_artifact

from repro.report.experiments import run_figure2


def test_figure2_full_disallow_trend(benchmark, longitudinal_bundle, artifact_dir):
    result = benchmark.pedantic(
        run_figure2, args=(longitudinal_bundle.series,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    # Paper bands: top tier 12-14%, others 8-10% (we allow simulation
    # slack of ~2 points either side).
    assert 10.0 <= metrics["final_top5k_pct"] <= 17.0
    assert 6.5 <= metrics["final_other_pct"] <= 12.0
    assert metrics["final_top5k_pct"] > metrics["final_other_pct"]
    assert metrics["initial_other_pct"] < 4.0
    assert metrics["final_other_pct"] > 2 * metrics["initial_other_pct"]
