"""Table 2 / Section 4.4: artist website hosting providers.

Paper shape: Squarespace and ArtStation host ~20% of artist sites each;
only Wix (Paid) exposes full robots.txt editing (and 0% of artists use
it); only Squarespace offers an AI toggle (17% enabled); Carbonmade's
default robots.txt blocks AI crawlers for 100% of its sites; every
other provider sits at 0%.
"""

from conftest import save_artifact

from repro.report.experiments import run_table2_artists


def test_table2_artist_providers(benchmark, artifact_dir):
    result = benchmark.pedantic(
        run_table2_artists, kwargs={"seed": 42},
        rounds=1, iterations=1,
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    assert 10.0 <= metrics["squarespace_pct_disallow"] <= 25.0  # paper: 17%
    assert metrics["carbonmade_pct_disallow"] == 100.0
    assert metrics["wix_paid_pct_disallow"] == 0.0
    assert 55.0 <= metrics["top8_share_pct"] <= 75.0
