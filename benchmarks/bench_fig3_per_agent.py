"""Figure 3: per-agent partial/full disallow trend.

Paper shape: GPTBot and CCBot are the most-restricted agents, followed
by ChatGPT-User; agents cannot be restricted before their announcement;
a secondary uptick follows the EU AI Act (August 2024).
"""

from conftest import save_artifact

from repro.report.longitudinal import run_figure3


def test_figure3_per_agent_trend(benchmark, longitudinal_bundle, artifact_dir):
    result = benchmark.pedantic(
        run_figure3, args=(longitudinal_bundle.series,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    metrics = result.metrics
    finals = {
        name[len("final_"):]: value
        for name, value in metrics.items()
        if name.startswith("final_")
    }
    ranked = sorted(finals, key=finals.get, reverse=True)
    assert set(ranked[:2]) == {"GPTBot", "CCBot"}
    assert finals["GPTBot"] > finals["ChatGPT-User"] > finals["PerplexityBot"]
    assert finals["anthropic-ai"] > finals["ClaudeBot"]
    # Everything is within plausible absolute range (paper: < 10%).
    for agent, value in finals.items():
        assert 0.0 <= value <= 14.0, agent
