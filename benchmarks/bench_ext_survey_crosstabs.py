"""Extension: chi-square association tests over the survey.

The Section 4 narrative implies couplings the marginals alone cannot
show; these tests quantify them over the 203-respondent corpus.
"""

from conftest import save_artifact

from repro.report.experiments import run_survey_crosstabs


def test_ext_survey_crosstabs(benchmark, artifact_dir):
    result = benchmark.pedantic(
        run_survey_crosstabs, kwargs={"seed": 42}, rounds=1, iterations=1
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    # The tables exist and every test ran with 1 dof and reported a p.
    for name in ("awareness-by-professional", "intent-by-familiarity",
                 "action-by-impact"):
        assert f"{name}_chi2" in metrics
        assert 0.0 <= metrics[f"{name}_p"] <= 1.0
        assert f"{name}: chi2={metrics[f'{name}_chi2']:.2f}, dof=1, p=" in result.text
