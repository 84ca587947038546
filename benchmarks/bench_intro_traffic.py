"""Section 1 context: bots dominate site traffic.

Paper framing (citing Akamai and Imperva): roughly 50-70% of website
traffic is automated, and aggressive AI crawlers (ByteDance's
Bytespider in particular) produce DDoS-like load on small sites.
"""

from conftest import save_artifact

from repro.net.server import Website, render_page
from repro.report.longitudinal import ExperimentResult
from repro.report.tables import render_table
from repro.web.traffic import TrafficMix, analyze_traffic, simulate_traffic


def run_traffic(days=3, seed=42):
    site = Website("smallsite.example")
    site.add_page("/", render_page("Home", links=["/blog", "/gallery"]))
    site.add_page("/blog", render_page("Blog", links=["/blog/post1"]))
    site.add_page("/blog/post1", render_page("Post 1"))
    site.add_page("/gallery", render_page("Gallery"))
    simulate_traffic(site, TrafficMix(), days=days, seed=seed)
    return analyze_traffic(site.access_log)


def test_intro_traffic_composition(benchmark, artifact_dir):
    report = benchmark.pedantic(run_traffic, rounds=1, iterations=1)

    rows = [(token, count) for token, count in report.top_talkers(8)]
    result = ExperimentResult(
        "intro_traffic",
        "Traffic composition (Section 1 context)",
        render_table(["agent", "requests"], rows,
                     title=f"bot share: {100 * report.bot_share:.1f}% "
                           f"of {report.total_requests} requests")
        ,
        {"bot_share_pct": 100 * report.bot_share,
         "total_requests": float(report.total_requests)},
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    # Akamai/Imperva band: ~50-70% automated.
    assert 45.0 <= result.metrics["bot_share_pct"] <= 75.0
    # Bytespider is the single heaviest crawler (the DDoS anecdotes).
    crawler_talkers = [t for t, _ in report.top_talkers(10) if t != "Mozilla"]
    assert crawler_talkers[0] == "Bytespider"
