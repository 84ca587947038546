"""Table 3: Common Crawl snapshot coverage.

Paper shape: fifteen snapshots spanning October 2022-October 2024; in
each, roughly 76-78% of the stable sites have a retrievable robots.txt
(the rest 404, error, or are actively blocking the CC crawler).
"""

from conftest import save_artifact

from repro.report.longitudinal import run_table3


def test_table3_snapshot_coverage(benchmark, longitudinal_bundle, artifact_dir):
    result = benchmark.pedantic(
        run_table3, args=(longitudinal_bundle.series,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    assert metrics["n_snapshots"] == 15
    coverage = metrics["min_with_robots"] / metrics["max_sites"]
    assert 0.65 < coverage < 0.90  # paper: ~76-78%
