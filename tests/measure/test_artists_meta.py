"""Tests for the artist measurement (Table 2) and the meta-tag scan."""

import pytest

from repro.measure.artists import edit_option_label, measure_artist_sites
from repro.measure.meta_tags import extract_robots_meta, scan_meta_tags
from repro.net.server import Website, render_page
from repro.net.transport import Network
from repro.web.artists import build_artist_population
from repro.web.population import PopulationConfig, build_web_population
from repro.web.providers import provider_by_name


@pytest.fixture(scope="module")
def study():
    population = build_artist_population(seed=42)
    return measure_artist_sites(population)


class TestEditOptionLabels:
    def test_squarespace(self):
        assert edit_option_label(provider_by_name("Squarespace")) == "No [AI,SE]"

    def test_wix_paid(self):
        assert edit_option_label(provider_by_name("Wix (Paid)")) == "Yes"

    def test_adobe(self):
        assert edit_option_label(provider_by_name("Adobe Portfolio")) == "No [SE]"

    def test_artstation(self):
        assert edit_option_label(provider_by_name("Artstation")) == "No"


class TestTable2Measurement:
    def test_all_eight_rows(self, study):
        assert len(study.rows) == 8

    def test_shares_ordered_and_plausible(self, study):
        shares = [row.pct_sites for row in study.rows]
        assert shares == sorted(shares, reverse=True)
        top = study.row("Squarespace")
        assert 16 < top.pct_sites < 26

    def test_squarespace_disallow_rate_near_17pct(self, study):
        row = study.row("Squarespace")
        assert 10 < row.pct_disallow_ai < 25

    def test_carbonmade_disallows_100pct(self, study):
        row = study.row("Carbonmade")
        assert row.n_sites > 0
        assert row.pct_disallow_ai == 100.0

    def test_other_providers_zero(self, study):
        for name in ("Artstation", "Wix (Paid)", "Adobe Portfolio", "Wix (Free)",
                     "Weebly", "Shopify"):
            assert study.row(name).pct_disallow_ai == 0.0, name

    def test_weebly_edge_blocking_probed(self, study):
        row = study.row("Weebly")
        assert "Claudebot" in row.blocks_uas
        assert "Bytespider" in row.blocks_uas
        assert "GPTBot" not in row.blocks_uas

    def test_artstation_and_carbonmade_challenge_automation(self, study):
        assert study.row("Artstation").challenges_automation
        assert study.row("Carbonmade").challenges_automation
        assert not study.row("Shopify").challenges_automation

    def test_unattributed_is_long_tail(self, study):
        attributed = sum(row.n_sites for row in study.rows)
        assert attributed + study.n_unattributed == study.n_artists
        assert 0.25 < study.n_unattributed / study.n_artists < 0.45


class TestMetaTagExtraction:
    def test_extract(self):
        html = '<head><meta name="robots" content="noai, noimageai"></head>'
        assert extract_robots_meta(html) == ["noai", "noimageai"]

    def test_case_insensitive(self):
        html = '<META NAME="robots" CONTENT="NOAI">'
        assert extract_robots_meta(html) == ["noai"]

    def test_no_tag(self):
        assert extract_robots_meta("<p>hello</p>") == []

    def test_rendered_page_roundtrip(self):
        html = render_page("T", meta_robots="noai, noimageai")
        assert "noai" in extract_robots_meta(html)


class TestMetaTagScan:
    def test_scan_over_handmade_sites(self):
        net = Network()
        tagged = Website("tagged.com")
        tagged.add_page("/", render_page("T", meta_robots="noai, noimageai"))
        plain = Website("plain.com")
        plain.add_page("/", render_page("P"))
        net.register(tagged)
        net.register(plain)
        scan = scan_meta_tags(net, ["tagged.com", "plain.com", "missing.com"])
        assert scan.n_scanned == 2
        assert scan.noai_hosts == ["tagged.com"]
        assert scan.noimageai_hosts == ["tagged.com"]
        assert scan.unreachable == ["missing.com"]

    def test_scan_over_population(self):
        config = PopulationConfig(
            universe_size=1200, list_size=800, top5k_cut=100, audit_size=600, seed=21
        )
        population = build_web_population(config)
        net = Network()
        population.materialize(net, month=24, sites=population.audit_sites)
        hosts = [s.domain for s in population.audit_sites]
        scan = scan_meta_tags(net, hosts)
        # 17 per 10k scaled to 600 sites: expect ~1, certainly < 8.
        assert scan.n_noai <= 8
        assert scan.n_noimageai <= scan.n_noai
        expected = {s.domain for s in population.audit_sites if s.meta_noai}
        reachable_expected = expected - set(scan.unreachable)
        assert set(scan.noai_hosts) == reachable_expected


class TestToSStances:
    def test_tos_stances_surface_in_rows(self, study):
        assert study.row("Artstation").tos_ai_stance == "no-ai-training"
        assert study.row("Adobe Portfolio").tos_ai_stance == "no-ai-training"
        assert study.row("Wix (Paid)").tos_ai_stance == "service-improvement-training"
        assert study.row("Carbonmade").tos_ai_stance == "no-crawl-clause"
        assert study.row("Shopify").tos_ai_stance == "silent"
