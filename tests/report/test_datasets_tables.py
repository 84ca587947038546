"""Tests for report rendering and dataset export/import."""

import io
import json

from repro.report.datasets import dump_respondents, dump_schedules, load_respondents
from repro.report.figures import ascii_chart, series_to_csv
from repro.report.tables import format_cell, render_table
from repro.survey.analysis import analyze
from repro.survey.respondents import filter_valid, generate_respondents
from repro.web.site import SimSite


class TestRenderTable:
    def test_basic_alignment(self):
        text = render_table(["name", "n"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "|" in lines[0] and "+" in lines[1]
        assert all("|" in line for line in lines[2:])

    def test_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_cell(self):
        assert format_cell(1.23456) == "1.23"
        assert format_cell(True) == "yes"
        assert format_cell("s") == "s"

    def test_ragged_rows_tolerated(self):
        text = render_table(["a"], [["x", "extra"]])
        assert "extra" in text


class TestFigures:
    SERIES = {"a": [("t0", 1.0), ("t1", 3.0)], "b": [("t0", 2.0)]}

    def test_csv_join(self):
        csv = series_to_csv(self.SERIES)
        lines = csv.splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1] == "t0,1.0,2.0"
        assert lines[2].startswith("t1,3.0,")

    def test_ascii_chart_scales_to_peak(self):
        chart = ascii_chart({"s": [("x", 5.0), ("y", 10.0)]})
        lines = chart.splitlines()
        assert lines[2].endswith("|" + "#" * 50 + " 10.00")  # peak: full width
        assert lines[1].endswith("|" + "#" * 25 + " 5.00")

    def test_empty_series_safe(self):
        assert ascii_chart({"s": []}) is not None


class TestScheduleDump:
    def test_one_json_record_per_site(self):
        site = SimSite(
            domain="x.com", rank=3, tier="top5k", category="news",
            publisher="Vox Media",
            robots_schedule=[(-1, "v0"), (12, "v1"), (20, None)],
            missing_months={9, 7},
        )
        sink = io.StringIO()
        assert dump_schedules([site], sink) == 1
        (record,) = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert record["domain"] == "x.com"
        assert record["publisher"] == "Vox Media"
        assert record["schedule"] == [
            {"month": -1, "robots_txt": "v0"},
            {"month": 12, "robots_txt": "v1"},
            {"month": 20, "robots_txt": None},
        ]
        assert record["missing_months"] == [7, 9]


class TestRespondentRoundTrip:
    def test_roundtrip_preserves_analysis(self):
        valid = filter_valid(generate_respondents(seed=4))
        sink = io.StringIO()
        dump_respondents(valid, sink)
        loaded = load_respondents(io.StringIO(sink.getvalue()))
        assert len(loaded) == len(valid)
        original = analyze(valid)
        recovered = analyze(loaded)
        assert recovered.n_professional == original.n_professional
        assert recovered.pct_never_heard == original.pct_never_heard
        assert recovered.duration_counts == original.duration_counts
        assert recovered.familiarity_means == original.familiarity_means
