"""Survey analysis: Section 4.2-4.3 statistics and Tables 5-8.

Everything here is computed from respondent answers; nothing reads the
generator's configuration.  Open-ended answers are re-coded with the
Appendix D.3 codebooks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Sequence

from .coding import (
    ACTIONS_CODEBOOK,
    DISTRUST_CODEBOOK,
    ENABLE_CODEBOOK,
    NO_ADOPT_CODEBOOK,
    code_response,
)
from .instrument import FAMILIARITY_ITEMS, IMPACT_5, LIKERT_5
from .respondents import Respondent

__all__ = ["SurveyAnalysis", "analyze"]


@dataclass
class SurveyAnalysis:
    """All derived survey statistics.

    Attributes mirror the paper's reported numbers; percentages are in
    [0, 100].
    """

    n_respondents: int = 0
    n_professional: int = 0
    pct_make_money: float = 0.0
    duration_counts: Dict[str, int] = field(default_factory=dict)
    continent_counts: Dict[str, int] = field(default_factory=dict)
    art_type_counts: Dict[str, int] = field(default_factory=dict)
    familiarity_means: Dict[str, float] = field(default_factory=dict)

    pct_impact_moderate_plus: float = 0.0
    pct_impact_significant_plus: float = 0.0
    n_took_action: int = 0
    pct_glaze_among_actors: float = 0.0

    pct_would_enable_blocking: float = 0.0
    pct_very_likely_blocking: float = 0.0

    n_heard_robots: int = 0
    n_never_heard: int = 0
    pct_never_heard: float = 0.0
    n_understood_explainer: int = 0
    pct_would_adopt_after_explainer: float = 0.0
    pct_distrust_among_never_heard: float = 0.0
    pct_interested_despite_distrust: float = 0.0

    n_aware_site_owners: int = 0
    n_aware_site_owners_not_using: int = 0
    n_aware_no_control: int = 0

    enable_theme_counts: Dict[str, int] = field(default_factory=dict)
    other_action_theme_counts: Dict[str, int] = field(default_factory=dict)
    no_adopt_theme_counts: Dict[str, int] = field(default_factory=dict)
    distrust_theme_counts: Dict[str, int] = field(default_factory=dict)


def _is_likely(answer: object) -> bool:
    return answer in (LIKERT_5[3], LIKERT_5[4])


def _is_distrustful(answer: object) -> bool:
    return answer in (LIKERT_5[0], LIKERT_5[1])


def analyze(respondents: Sequence[Respondent]) -> SurveyAnalysis:
    """Compute the full analysis over (already filtered) *respondents*."""
    out = SurveyAnalysis(n_respondents=len(respondents))
    if not respondents:
        return out

    total = len(respondents)
    duration: Counter = Counter()
    continents: Counter = Counter()
    art_types: Counter = Counter()
    familiarity_sums: Dict[str, float] = {item: 0.0 for item in FAMILIARITY_ITEMS}
    familiarity_counts: Dict[str, int] = {item: 0 for item in FAMILIARITY_ITEMS}

    make_money = 0
    moderate_plus = 0
    significant_plus = 0
    actors = 0
    glaze = 0
    enable_likely = 0
    enable_very = 0
    heard = 0
    understood = 0
    never_heard_adopt_likely = 0
    never_heard_understood = 0
    never_heard = 0
    never_heard_distrust = 0
    interested_despite_distrust = 0
    distrustful_total = 0
    aware_site_owners = 0
    aware_not_using = 0
    aware_no_control = 0

    enable_themes: Counter = Counter()
    no_adopt_themes: Counter = Counter()
    distrust_themes: Counter = Counter()
    action_themes: Counter = Counter()

    for r in respondents:
        a = r.answers
        if a.get("Q1") == "Yes":
            out.n_professional += 1
        if a.get("Q2") and "haven't" not in str(a["Q2"]):
            make_money += 1
            if "Q3" in a:
                duration[str(a["Q3"])] += 1
        if "continent" in a:
            continents[str(a["continent"])] += 1
        for art in a.get("Q4", ()):
            art_types[str(art)] += 1
        for item, score in (a.get("Q6") or {}).items():
            familiarity_sums[item] += float(score)
            familiarity_counts[item] += 1

        impact = a.get("Q16")
        if impact in IMPACT_5[2:]:
            moderate_plus += 1
        if impact in IMPACT_5[3:]:
            significant_plus += 1
        if a.get("Q17") == "Yes":
            actors += 1
            if any("Glaze" in act for act in a.get("Q18", ())):
                glaze += 1
            other_text = str(a.get("Q18_other", ""))
            if other_text:
                for theme in code_response(other_text, ACTIONS_CODEBOOK):
                    action_themes[theme] += 1

        if _is_likely(a.get("Q23")):
            enable_likely += 1
        if a.get("Q23") == LIKERT_5[4]:
            enable_very += 1
        for qid, counter, codebook in (
            ("Q23_why", enable_themes, ENABLE_CODEBOOK),
            ("Q26_why", None, None),
            ("Q27_why", distrust_themes, DISTRUST_CODEBOOK),
        ):
            if counter is None:
                continue
            text = str(a.get(qid, ""))
            if text:
                for theme in code_response(text, codebook):
                    counter[theme] += 1
        if "Q26_why" in a:
            text = str(a["Q26_why"])
            if not _is_likely(a.get("Q26")):
                for theme in code_response(text, NO_ADOPT_CODEBOOK):
                    no_adopt_themes[theme] += 1

        if a.get("Q24") == "Yes":
            heard += 1
            has_site = "Personal Website" in (a.get("Q8") or ())
            if has_site:
                aware_site_owners += 1
                if a.get("Q31") == "No":
                    aware_not_using += 1
                if a.get("Q29") == "I have no control over the content":
                    aware_no_control += 1
        else:
            never_heard += 1
            if a.get("understood_explainer"):
                never_heard_understood += 1
                if _is_likely(a.get("Q26")):
                    never_heard_adopt_likely += 1
            if _is_distrustful(a.get("Q27")):
                never_heard_distrust += 1
        if _is_distrustful(a.get("Q27")):
            distrustful_total += 1
        # "47% of all artists remain interested in adopting, or have
        # already adopted, robots.txt": Q26 likely+ (post-explainer
        # adoption intent) or Q31 == Yes (already using it).
        if _is_likely(a.get("Q26")) or a.get("Q31") == "Yes":
            interested_despite_distrust += 1

    out.pct_make_money = 100.0 * make_money / total
    out.duration_counts = dict(duration)
    out.continent_counts = dict(continents)
    out.art_type_counts = dict(art_types)
    out.familiarity_means = {
        item: (familiarity_sums[item] / familiarity_counts[item])
        if familiarity_counts[item]
        else 0.0
        for item in FAMILIARITY_ITEMS
    }
    out.pct_impact_moderate_plus = 100.0 * moderate_plus / total
    out.pct_impact_significant_plus = 100.0 * significant_plus / total
    out.n_took_action = actors
    out.pct_glaze_among_actors = 100.0 * glaze / actors if actors else 0.0
    out.pct_would_enable_blocking = 100.0 * enable_likely / total
    out.pct_very_likely_blocking = 100.0 * enable_very / total
    out.n_heard_robots = heard
    out.n_never_heard = never_heard
    out.pct_never_heard = 100.0 * never_heard / total
    out.n_understood_explainer = never_heard_understood
    out.pct_would_adopt_after_explainer = (
        100.0 * never_heard_adopt_likely / never_heard_understood
        if never_heard_understood
        else 0.0
    )
    out.pct_distrust_among_never_heard = (
        100.0 * never_heard_distrust / never_heard if never_heard else 0.0
    )
    out.pct_interested_despite_distrust = (
        100.0 * interested_despite_distrust / total
    )
    out.n_aware_site_owners = aware_site_owners
    out.n_aware_site_owners_not_using = aware_not_using
    out.n_aware_no_control = aware_no_control
    out.enable_theme_counts = dict(enable_themes)
    out.other_action_theme_counts = dict(action_themes)
    out.no_adopt_theme_counts = dict(no_adopt_themes)
    out.distrust_theme_counts = dict(distrust_themes)
    return out
