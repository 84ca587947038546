"""Tests for the statistics utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.report.stats import (
    proportion_summary,
    wilson_interval,
)


class TestWilsonInterval:
    def test_half_and_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo < 0.25

    def test_extreme_zero(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.06

    def test_extreme_all(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert 0.94 < lo < 1.0

    def test_tighter_with_more_data(self):
        small = wilson_interval(5, 10)
        large = wilson_interval(500, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_empty_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_invalid_successes(self):
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @given(
        successes=st.integers(min_value=0, max_value=200),
        total=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80)
    def test_interval_contains_point_estimate(self, successes, total):
        if successes > total:
            successes = total
        lo, hi = wilson_interval(successes, total)
        assert 0.0 <= lo <= successes / total <= hi <= 1.0


class TestProportionSummary:
    def test_paper_number(self):
        text = proportion_summary(107, 1875)
        assert text.startswith("5.7%")
        assert "[" in text and "]" in text

    def test_empty(self):
        assert proportion_summary(0, 0) == "n/a"
