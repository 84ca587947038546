"""Cross-tabulations and association tests over survey responses.

Section 4 reads off marginal rates; a natural analysis extension (and a
staple of measurement-study appendices) is testing *associations*:
is prior robots.txt awareness associated with professional status?
does technical familiarity predict adoption intent?  This module builds
contingency tables from respondent answers and runs chi-square tests of
independence (Pearson's statistic, Yates-corrected when dof = 1),
computed with the standard library alone so the report does not depend
on which packages are installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .instrument import LIKERT_5
from .respondents import Respondent

__all__ = [
    "ContingencyTable",
    "build_contingency",
    "chi_square",
    "awareness_by_professional",
    "intent_by_familiarity",
    "actions_by_impact",
]


@dataclass
class ContingencyTable:
    """A labeled two-way contingency table.

    Attributes:
        row_labels / col_labels: Category names.
        counts: counts[i][j] for (row i, column j).
    """

    row_labels: List[str]
    col_labels: List[str]
    counts: List[List[int]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_totals(self) -> List[int]:
        return [sum(row) for row in self.counts]

    def col_totals(self) -> List[int]:
        return [sum(row[j] for row in self.counts) for j in range(len(self.col_labels))]


def build_contingency(
    respondents: Sequence[Respondent],
    row_of: Callable[[Respondent], Optional[str]],
    col_of: Callable[[Respondent], Optional[str]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
) -> ContingencyTable:
    """Tabulate respondents by two categorical functions.

    Respondents mapping to None on either axis are skipped.
    """
    row_index = {label: i for i, label in enumerate(row_labels)}
    col_index = {label: j for j, label in enumerate(col_labels)}
    counts = [[0] * len(col_labels) for _ in row_labels]
    for r in respondents:
        row = row_of(r)
        col = col_of(r)
        if row is None or col is None:
            continue
        if row not in row_index or col not in col_index:
            continue
        counts[row_index[row]][col_index[col]] += 1
    return ContingencyTable(list(row_labels), list(col_labels), counts)


@dataclass(frozen=True)
class ChiSquareResult:
    """Chi-square test of independence.

    Attributes:
        statistic: The chi-square statistic.
        dof: Degrees of freedom.
        p_value: Upper-tail p-value of the statistic (None only for a
            degenerate table with fewer than two non-empty rows or
            columns).
    """

    statistic: float
    dof: int
    p_value: Optional[float]


def chi_square(table: ContingencyTable) -> ChiSquareResult:
    """Chi-square test of independence over *table*.

    Rows/columns with zero totals are dropped before testing (standard
    practice; an all-zero margin makes expected counts undefined).
    """
    counts = [row[:] for row in table.counts]
    keep_rows = [i for i, total in enumerate(table.row_totals()) if total > 0]
    keep_cols = [j for j, total in enumerate(table.col_totals()) if total > 0]
    counts = [[counts[i][j] for j in keep_cols] for i in keep_rows]
    n_rows, n_cols = len(counts), len(counts[0]) if counts else 0
    if n_rows < 2 or n_cols < 2:
        return ChiSquareResult(statistic=0.0, dof=0, p_value=None)

    row_totals = [sum(row) for row in counts]
    col_totals = [sum(row[j] for row in counts) for j in range(n_cols)]
    total = sum(row_totals)
    dof = (n_rows - 1) * (n_cols - 1)
    statistic = 0.0
    for row_total, row in zip(row_totals, counts):
        for col_total, observed in zip(col_totals, row):
            expected = row_total * col_total / total
            if dof == 1:
                # Yates' correction, clamped: a count moves toward its
                # expected count by at most 0.5 and never past it.
                shift = expected - observed
                observed += math.copysign(min(0.5, abs(shift)), shift)
            diff = observed - expected
            statistic += diff * diff / expected
    return ChiSquareResult(statistic, dof, _chi2_sf(statistic, dof))


def _chi2_sf(x: float, k: int) -> float:
    """Upper tail P(X >= x) of a chi-square variable with *k* dof.

    The closed form for integer *k*, with y = x / 2: for even *k*,
    e^-y * sum(y^i / i!) over 0 <= i < k/2; for odd *k*,
    erfc(sqrt(y)) + e^-y * sum(y^(i - 1/2) / Gamma(i + 1/2)) over
    1 <= i <= (k - 1) / 2.  Each term is the previous one times
    y / i (even) or y / (i + 1/2) (odd).
    """
    y = x / 2.0
    if k % 2:
        tail = math.erfc(math.sqrt(y))
        term = math.exp(-y) * math.sqrt(y) / math.gamma(1.5)
        offset = 0.5
    else:
        tail, term, offset = 0.0, math.exp(-y), 0.0
    for i in range(1, k // 2 + 1):
        tail += term
        term *= y / (i + offset)
    return tail


# -- canned analyses -------------------------------------------------------------


def _heard(r: Respondent) -> Optional[str]:
    answer = r.answers.get("Q24")
    if answer not in ("Yes", "No"):
        return None
    return "heard" if answer == "Yes" else "never heard"


def awareness_by_professional(respondents: Sequence[Respondent]) -> ContingencyTable:
    """Prior robots.txt awareness vs professional status."""
    return build_contingency(
        respondents,
        row_of=lambda r: "professional" if r.answers.get("Q1") == "Yes" else "hobbyist",
        col_of=_heard,
        row_labels=["professional", "hobbyist"],
        col_labels=["heard", "never heard"],
    )


def intent_by_familiarity(respondents: Sequence[Respondent]) -> ContingencyTable:
    """Post-explainer adoption intent vs self-rated web familiarity.

    Restricted to the never-heard group (the only one asked Q26).
    """

    def familiarity(r: Respondent) -> Optional[str]:
        grid = r.answers.get("Q6") or {}
        score = grid.get("Website")
        if score is None:
            return None
        return "high familiarity" if float(score) >= 4 else "low familiarity"

    def intent(r: Respondent) -> Optional[str]:
        answer = r.answers.get("Q26")
        if answer is None:
            return None
        return "would adopt" if answer in LIKERT_5[3:] else "would not"

    return build_contingency(
        respondents,
        row_of=familiarity,
        col_of=intent,
        row_labels=["high familiarity", "low familiarity"],
        col_labels=["would adopt", "would not"],
    )


def actions_by_impact(respondents: Sequence[Respondent]) -> ContingencyTable:
    """Protective action taken vs expected job impact."""

    def impact(r: Respondent) -> Optional[str]:
        answer = str(r.answers.get("Q16", ""))
        if not answer:
            return None
        return (
            "significant+"
            if answer in ("Significant impact", "Severe impact")
            else "below significant"
        )

    def acted(r: Respondent) -> Optional[str]:
        answer = r.answers.get("Q17")
        if answer not in ("Yes", "No"):
            return None
        return "took action" if answer == "Yes" else "no action"

    return build_contingency(
        respondents,
        row_of=impact,
        col_of=acted,
        row_labels=["significant+", "below significant"],
        col_labels=["took action", "no action"],
    )
