"""Section 3.1: cross-validation of the snapshot corpus.

Paper shape: comparing Common Crawl's robots.txt records against the
Internet Archive showed no disagreements, and against the authors' own
fresh crawl under 1% -- all attributable to sites changing robots.txt
between the two crawl times.
"""

from conftest import save_artifact

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, SnapshotCrawler
from repro.measure.validation import cross_validate_snapshot
from repro.net.transport import Network
from repro.report.experiments import ExperimentResult
from repro.report.tables import render_table


def test_sec31_cross_validation(benchmark, longitudinal_bundle, artifact_dir):
    population = longitudinal_bundle.population
    # The post-announcement snapshot, crawled over the whole stable set.
    spec = SNAPSHOT_SPECS[7]
    network = Network()
    population.materialize(network, month=spec.month_index)
    snapshot = SnapshotCrawler(network).snapshot(
        spec, [site.domain for site in population.stable]
    )

    report = benchmark.pedantic(
        cross_validate_snapshot,
        args=(population, snapshot),
        kwargs={"seed": 42},
        rounds=1, iterations=1,
    )
    result = ExperimentResult(
        "sec31_validation",
        "Snapshot cross-validation (Section 3.1)",
        render_table(
            ["measurement", "value"],
            [
                ("sites compared", report.n_compared),
                ("agreeing", report.n_agree),
                ("disagreements explained by timing", report.n_timing_disagreements),
                ("unexplained disagreements", len(report.unexplained)),
                ("agreement rate", f"{100 * report.agreement_rate:.2f}%"),
            ],
            title=f"Validation of snapshot {snapshot.spec.snapshot_id}",
        ),
        {
            "agreement_pct": 100 * report.agreement_rate,
            "unexplained": float(len(report.unexplained)),
        },
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    assert result.metrics["unexplained"] == 0
    assert result.metrics["agreement_pct"] > 98.0  # paper: >99%
