"""Section 4.2-4.3: artist sentiment and adoption-barrier statistics.

Paper values: 59% never heard of robots.txt; 97% would enable a
blocking mechanism (93% "very likely"); 79% expect at least moderate
job impact (54% significant+); 83% took protective action, 71% of whom
use Glaze; 75% of explainer-readers would adopt robots.txt; 77% of the
never-heard distrust AI companies; 38 aware site owners of whom 27 do
not use robots.txt and 9 lack control.
"""

from conftest import save_artifact

from repro.survey.analysis import analyze
from repro.survey.respondents import filter_valid, generate_respondents


def run_sentiment(seed: int = 42):
    return analyze(filter_valid(generate_respondents(seed=seed)))


def test_sec42_sentiment(benchmark, artifact_dir):
    analysis = benchmark.pedantic(run_sentiment, rounds=1, iterations=1)

    from repro.report.longitudinal import ExperimentResult
    from repro.report.tables import render_table

    rows = [
        ("% never heard of robots.txt", analysis.pct_never_heard, 59),
        ("% would enable blocking", analysis.pct_would_enable_blocking, 97),
        ("% very likely to enable", analysis.pct_very_likely_blocking, 93),
        ("% moderate+ impact", analysis.pct_impact_moderate_plus, 79),
        ("% significant+ impact", analysis.pct_impact_significant_plus, 54),
        ("% Glaze among actors", analysis.pct_glaze_among_actors, 71),
        ("% adopt after explainer", analysis.pct_would_adopt_after_explainer, 75),
        ("% distrust among never-heard", analysis.pct_distrust_among_never_heard, 77),
        ("% interested despite distrust", analysis.pct_interested_despite_distrust, 47),
    ]
    result = ExperimentResult(
        "sec42",
        "Artist sentiment (Sections 4.2-4.3)",
        render_table(["statistic", "measured", "paper"], rows,
                     title="Section 4.2-4.3 headline statistics"),
        {name: float(measured) for name, measured, _ in rows},
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    for name, measured, paper in rows:
        assert abs(measured - paper) < 12.0, (name, measured, paper)
    assert analysis.n_aware_site_owners == 38
    assert analysis.n_aware_site_owners_not_using == 27
    assert analysis.n_aware_no_control == 9
