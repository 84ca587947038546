"""Ablation: the UA-based detector vs an IP-blocking oracle.

Section 6.1 notes that companies publishing crawler IP ranges can be
blocked *by address alone* -- "a form of active blocking that we cannot
measure" with UA-differential probing, making the paper's 14% a lower
bound.  The simulation knows each site's configuration, so we can run
both: the paper's detector over HTTP, and an oracle that also counts
IP-range blockers.  The gap is the detector's blind spot.
"""

from conftest import save_artifact

from repro.agents.ipranges import crawler_ip
from repro.measure.active_blocking import survey_active_blocking
from repro.net.errors import NetError
from repro.net.http import Headers, Request
from repro.net.transport import Network
from repro.report.longitudinal import ExperimentResult
from repro.report.tables import render_table


def run_ip_oracle(population):
    network = Network()
    population.materialize(network, month=24, sites=population.audit_sites)
    hosts = [s.domain for s in population.audit_sites]

    survey = survey_active_blocking(network, hosts)
    detector_hits = set(survey.blocking_hosts())

    # Oracle pass: also probe from GPTBot's *published address* with its
    # genuine UA, which is what a real crawler experiences.
    ip_blockers = set()
    for host in hosts:
        try:
            response = network.request(
                Request(
                    host=host,
                    path="/",
                    headers=Headers({"User-Agent": "GPTBot/1.1"}),
                    client_ip=crawler_ip("GPTBot"),
                )
            )
            blocked = response.status != 200
        except NetError:
            blocked = True
        if blocked and host not in detector_hits:
            site = population.by_domain[host]
            if site.blocking.ip_blocks_published_ai:
                ip_blockers.add(host)
    return survey, detector_hits, ip_blockers


def test_ablation_ip_blocking_oracle(benchmark, audit_population, artifact_dir):
    survey, detector_hits, ip_blockers = benchmark.pedantic(
        run_ip_oracle, args=(audit_population,), rounds=1, iterations=1
    )
    total = survey.n_sites
    oracle_total = len(detector_hits | ip_blockers)
    rows = [
        ("sites probed", total, ""),
        ("UA-differential detector (the paper's method)", len(detector_hits),
         f"{100.0 * len(detector_hits) / total:.1f}%"),
        ("additional IP-range blockers (detector-invisible)", len(ip_blockers),
         f"{100.0 * len(ip_blockers) / total:.1f}%"),
        ("oracle total", oracle_total, f"{100.0 * oracle_total / total:.1f}%"),
    ]
    result = ExperimentResult(
        "ablation_ip_blocking",
        "Ablation: UA detector vs IP-blocking oracle (Section 6.1)",
        render_table(["measurement", "count", "% of sites"], rows),
        {
            "detector_pct": 100.0 * len(detector_hits) / total,
            "oracle_pct": 100.0 * oracle_total / total,
            "blind_spot_pct": 100.0 * len(ip_blockers) / total,
        },
    )
    save_artifact(artifact_dir, result)
    print(result.text)

    # The detector is a strict lower bound; the blind spot is the
    # configured ~3% of sites (4% of the non-Cloudflare 80%).
    assert result.metrics["oracle_pct"] > result.metrics["detector_pct"]
    assert 1.0 <= result.metrics["blind_spot_pct"] <= 6.0
