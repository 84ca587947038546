"""Ablation: robots.txt caching windows (Section 8.2).

The paper warns that even compliant crawlers "may cache robots.txt and
may continue to fetch content even after it has changed".  This
ablation quantifies the exposure window: a site tightens its robots.txt
at a known time, and crawlers with different cache TTLs keep visiting.
The number of post-change content fetches grows with the TTL -- zero
for a TTL-free crawler, proportional to the TTL otherwise.
"""

from conftest import save_artifact

from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile
from repro.net.server import Website, render_page
from repro.net.transport import Network
from repro.report.longitudinal import ExperimentResult
from repro.report.tables import render_table

DAY = 86_400.0


def run_stale_cache_ablation():
    ttls = [0.0, 1 * DAY, 7 * DAY, 30 * DAY]
    exposure = {}
    for ttl in ttls:
        network = Network()
        site = Website("tightening.example")
        site.add_page("/", render_page("Home", links=["/art"]))
        site.add_page("/art", render_page("Art"))
        site.set_robots_txt("User-agent: *\nDisallow:\n")
        network.register(site)
        crawler = Crawler(
            CrawlerProfile.respectful("CachedBot", robots_cache_ttl=ttl), network
        )
        # Day 0: crawl under the permissive policy (cache warms).
        network.now = 0.0
        crawler.fetch("tightening.example", "/art")
        # Day 1: the site tightens its policy.
        site.set_robots_txt("User-agent: *\nDisallow: /\n")
        # Days 1..45: one fetch per day.
        violations = 0
        for day in range(1, 46):
            network.now = day * DAY
            result = crawler.fetch("tightening.example", "/art")
            if result.content_fetches:
                violations += 1
        exposure[ttl] = violations
    return exposure


def test_ablation_stale_cache(benchmark, artifact_dir):
    exposure = benchmark.pedantic(run_stale_cache_ablation, rounds=1, iterations=1)

    rows = [
        (f"{ttl / DAY:.0f} days" if ttl else "no caching", violations)
        for ttl, violations in exposure.items()
    ]
    result = ExperimentResult(
        "ablation_stale_cache",
        "Ablation: robots.txt cache TTL vs post-change exposure (Section 8.2)",
        render_table(
            ["robots.txt cache TTL", "disallowed fetches after the change"],
            rows,
        ),
        {f"violations_ttl_{int(ttl / DAY)}d": float(v) for ttl, v in exposure.items()},
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    ordered = [exposure[ttl] for ttl in sorted(exposure)]
    # No caching -> no exposure; exposure grows monotonically with TTL.
    assert ordered[0] == 0
    assert ordered == sorted(ordered)
    assert exposure[30 * DAY] > exposure[7 * DAY] > exposure[1 * DAY] >= 0
