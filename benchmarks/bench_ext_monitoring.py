"""Extension: continuous compliance monitoring (Section 7).

The paper flags its compliance results as "measurements from a point in
time ... behaviors may yet change in the future".  This extension runs
the testbed as a *monitor*: the scheduler re-dispatches the fleet
monthly, per-month verdicts are derived from log slices, and a
change-point is detected when a crawler's behavior flips -- here, a
defiant crawler starts respecting robots.txt mid-window (the pattern
reported for ClaudeBot after public complaints [25, 26, 93]).
"""

from conftest import save_artifact

from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile, RobotsBehavior
from repro.crawlers.scheduler import CrawlScheduler
from repro.measure.compliance import WILDCARD_HOST, build_testbed
from repro.report.longitudinal import ExperimentResult
from repro.report.tables import render_table

MONTH = 30 * 86_400.0


def run_monitoring(months=6, reform_month=3):
    testbed = build_testbed(["GPTBot", "ReformedBot"])
    scheduler = CrawlScheduler(testbed.network)
    reformed = Crawler(
        CrawlerProfile(
            token="ReformedBot",
            user_agent="ReformedBot/1.0",
            behavior=RobotsBehavior.FETCH_AND_IGNORE,
        ),
        testbed.network,
    )
    steady = Crawler(CrawlerProfile.respectful("GPTBot"), testbed.network)
    scheduler.schedule(reformed, WILDCARD_HOST, interval=MONTH)
    scheduler.schedule(steady, WILDCARD_HOST, interval=MONTH)

    verdicts = []
    for month in range(months):
        if month == reform_month:
            # Public pressure lands: the crawler starts obeying.
            reformed.profile.behavior = RobotsBehavior.FETCH_AND_OBEY
        start = len(testbed.wildcard_site.access_log)
        scheduler.run_until(month * MONTH)
        entries = list(testbed.wildcard_site.access_log)[start:]
        violated = any(
            not e.is_robots_fetch and "ReformedBot" in e.user_agent
            for e in entries
        )
        verdicts.append((month, "violates" if violated else "respects"))
    change_points = [
        month
        for (month, verdict), (_, previous) in zip(verdicts[1:], verdicts[:-1])
        if verdict != previous
    ]
    return verdicts, change_points


def test_ext_continuous_monitoring(benchmark, artifact_dir):
    verdicts, change_points = benchmark.pedantic(
        run_monitoring, rounds=1, iterations=1
    )
    result = ExperimentResult(
        "ext_monitoring",
        "Continuous compliance monitoring (extension, Section 7)",
        render_table(
            ["month", "ReformedBot verdict"], verdicts,
            title=f"change-point(s) detected at month(s): {change_points}",
        ),
        {"n_change_points": float(len(change_points)),
         "change_month": float(change_points[0]) if change_points else -1.0},
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    # A single-point-in-time measurement would miss this entirely.
    assert result.metrics["n_change_points"] == 1
    assert result.metrics["change_month"] == 3
    assert verdicts[0][1] == "violates"
    assert verdicts[-1][1] == "respects"
