"""Tests for survey cross-tabulations and chi-square analysis."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.report.experiments import run_survey_crosstabs
from repro.survey.crosstabs import (
    ContingencyTable,
    actions_by_impact,
    awareness_by_professional,
    build_contingency,
    chi_square,
    intent_by_familiarity,
)
from repro.survey.respondents import Respondent, filter_valid, generate_respondents


ROOT = Path(__file__).resolve().parents[2]

#: ``scipy.stats.chi2_contingency`` (scipy 1.17.1) on each table, computed
#: once: (counts, dof, statistic, p).  The first three are the survey's
#: canned tables; in the second the clamped Yates correction moves every
#: count onto its expected count, so the statistic is exactly 0.
SCIPY_VALUES = [
    ([[54, 82], [30, 37]], 1, 0.2896453878961593, 0.5904478636774968),
    ([[84, 22], [5, 1]], 1, 0.0, 1.0),
    ([[93, 18], [76, 16]], 1, 0.0011840309831161484, 0.9725504076811897),
    ([[20, 5], [3, 22]], 1, 20.611916264090176, 5.624493608856214e-06),
    ([[10, 20, 30], [30, 20, 10]], 2, 20.0, 4.539992976248486e-05),
    ([[8, 12, 15, 5], [10, 9, 6, 15]], 3, 9.507936507936508, 0.02324707902976236),
    (
        [[5, 9, 14], [12, 3, 8], [7, 7, 20]],
        4, 10.187612373324615, 0.037383221038401866,
    ),
    (
        [[3, 7, 9, 4, 6, 11], [9, 5, 4, 8, 7, 2]],
        5, 12.620192307692307, 0.027210215614190878,
    ),
    (
        [[12, 7, 3], [5, 9, 11], [6, 6, 14], [10, 4, 2]],
        6, 17.495877858737998, 0.007623608122032714,
    ),
]


@pytest.fixture(scope="module")
def pool():
    return filter_valid(generate_respondents(seed=42))


class TestContingencyTable:
    def _table(self):
        return ContingencyTable(["a", "b"], ["x", "y"], [[10, 30], [20, 40]])

    def test_totals(self):
        table = self._table()
        assert table.total == 100
        assert table.row_totals() == [40, 60]
        assert table.col_totals() == [30, 70]


class TestBuildContingency:
    def test_skips_unmapped(self):
        respondents = [
            Respondent(rid=0, answers={"k": "a", "v": "x"}),
            Respondent(rid=1, answers={"k": "weird", "v": "x"}),
            Respondent(rid=2, answers={"k": "a"}),
        ]
        table = build_contingency(
            respondents,
            row_of=lambda r: r.answers.get("k"),
            col_of=lambda r: r.answers.get("v"),
            row_labels=["a"],
            col_labels=["x"],
        )
        assert table.counts == [[1]]


class TestChiSquare:
    def test_independent_table_low_statistic(self):
        table = ContingencyTable(["a", "b"], ["x", "y"], [[50, 50], [50, 50]])
        result = chi_square(table)
        assert result.statistic == pytest.approx(0.0, abs=1e-9)
        assert result.dof == 1
        assert result.p_value is not None and result.p_value > 0.9

    def test_strong_association(self):
        table = ContingencyTable(["a", "b"], ["x", "y"], [[90, 10], [10, 90]])
        result = chi_square(table)
        assert result.statistic > 50
        assert result.p_value < 1e-6

    def test_degenerate_table(self):
        table = ContingencyTable(["a"], ["x", "y"], [[5, 5]])
        result = chi_square(table)
        assert result.dof == 0 and result.p_value is None

    def test_zero_margins_dropped(self):
        table = ContingencyTable(
            ["a", "b", "empty"], ["x", "y"], [[30, 10], [10, 30], [0, 0]]
        )
        result = chi_square(table)
        assert result.dof == 1  # empty row dropped


class TestAgainstScipy:
    @pytest.mark.parametrize("counts, dof, statistic, p_value", SCIPY_VALUES)
    def test_matches_scipy_values(self, counts, dof, statistic, p_value):
        rows = [f"r{i}" for i in range(len(counts))]
        cols = [f"c{j}" for j in range(len(counts[0]))]
        result = chi_square(ContingencyTable(rows, cols, counts))
        assert result.dof == dof
        assert result.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert result.p_value == pytest.approx(p_value, rel=1e-12, abs=0.0)


class TestEnvironmentIndependence:
    def test_text_pinned_without_scipy(self, monkeypatch):
        # Block scipy and every submodule an earlier import cached, so
        # no import path can reach it.
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        pinned = (ROOT / "results" / "survey_crosstabs.txt").read_text()
        assert run_survey_crosstabs().text + "\n" == pinned

    def test_imports_no_third_party_package(self):
        code = (
            "import sys\n"
            "from repro.report.experiments import run_survey_crosstabs\n"
            "run_survey_crosstabs()\n"
            "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
        )
        path = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCannedAnalyses:
    def test_awareness_by_professional_covers_everyone(self, pool):
        table = awareness_by_professional(pool)
        assert table.total == len(pool)
        assert sum(table.col_totals()) == 203
        # Marginals match the paper: 84 heard / 119 never.
        heard_total = table.col_totals()[0]
        assert heard_total == 84

    def test_intent_by_familiarity_restricted_to_never_heard(self, pool):
        table = intent_by_familiarity(pool)
        # Only the never-heard-and-understood group answered Q26.
        assert table.total <= 119
        assert table.total > 80

    def test_actions_by_impact(self, pool):
        table = actions_by_impact(pool)
        assert table.total == len(pool)
        result = chi_square(table)
        assert result.dof == 1
        assert result.p_value is not None
