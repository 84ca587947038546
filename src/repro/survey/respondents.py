"""Synthetic survey respondents calibrated to the paper's marginals.

The user study itself cannot be re-run offline, so the generator
produces a respondent pool whose *marginal* distributions match what
Section 4 and Appendix D report -- professional share, income duration
(Table 5), geography (Table 6), art types (Table 7), term familiarity
(Table 8), robots.txt awareness (59% never heard), willingness (97%
would enable blocking), distrust (77%), and the personal-website
cross-tabs (38 aware site owners, 27 non-users, 9 without control).

The *analysis* pipeline (:mod:`repro.survey.analysis`) recomputes every
statistic from the generated answers -- including re-coding the
generated open text with the Appendix D.3 codebooks -- so downstream
numbers are measured, not copied.

Low-quality responses (too short, straight-lined, incomplete) are
generated too, exercising the paper's validity filtering step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..util import seeded_rng
from .coding import (
    ACTIONS_CODEBOOK,
    DISTRUST_CODEBOOK,
    ENABLE_CODEBOOK,
    NO_ADOPT_CODEBOOK,
    Codebook,
)
from .instrument import (
    ACTION_OPTIONS,
    ART_TYPES,
    DURATION_OPTIONS,
    FAMILIARITY_ITEMS,
    IMPACT_5,
    INCOME_OPTIONS,
    LIKERT_5,
)

__all__ = ["Respondent", "generate_respondents", "filter_valid"]

#: Responses that pass the quality filter (Appendix D.2).
N_VALID = 203

#: Generated low-quality responses the filter must reject.
N_INVALID = 27


@dataclass
class Respondent:
    """One survey response.

    Attributes:
        rid: Respondent id.
        answers: Answers keyed by question id.  Multi-choice answers
            are tuples; the familiarity grid (Q6) is a dict item->1..5.
        completion_minutes: Self-reported completion time.
        low_quality: Ground-truth flag for generated junk responses
            (the validity filter must *detect* them without this flag).
    """

    rid: int
    answers: Dict[str, object] = field(default_factory=dict)
    completion_minutes: float = 12.0
    low_quality: bool = False


# -- quota allocations (exact, from Appendix D.2) -------------------------------

_CONTINENT_QUOTA: List[Tuple[str, str, int]] = [
    ("North America", "United States", 89),
    ("North America", "Canada", 15),
    ("North America", "Mexico", 5),
    ("Europe", "United Kingdom", 18),
    ("Europe", "Poland", 5),
    ("Europe", "Germany", 5),
    ("Europe", "France", 10),
    ("Europe", "Spain", 8),
    ("Europe", "Italy", 6),
    ("Asia", "Philippines", 9),
    ("Asia", "Japan", 6),
    ("Asia", "India", 6),
    ("South America", "Brazil", 12),
    ("South America", "Argentina", 6),
    ("Africa", "South Africa", 2),
    ("Oceania", "Australia", 1),
]

_DURATION_QUOTA = [
    (DURATION_OPTIONS[0], 17),
    (DURATION_OPTIONS[1], 68),
    (DURATION_OPTIONS[2], 44),
    (DURATION_OPTIONS[3], 47),
]

#: Art-type inclusion probabilities targeting Table 7's top-five counts
#: (Illustration 163, Digital 2D 143, Character design 99, Traditional
#: painting 78, Concept art 68 out of 203).
_ART_TYPE_P = {
    "Illustration": 0.80,
    "Digital 2D": 0.70,
    "Character and Creature Design": 0.49,
    "Traditional Painting and Drawing": 0.38,
    "Concept Art": 0.33,
    "Digital 3D": 0.18,
    "Anime and Manga Art": 0.15,
    "Game Art": 0.12,
    "Comicbook Art": 0.10,
    "Photography": 0.07,
    "Environmental": 0.07,
    "Abstract": 0.05,
    "Traditional Sculpting": 0.04,
    "Matte Painting": 0.04,
    "Items Props": 0.04,
    "Other": 0.05,
}

#: Familiarity score distributions targeting Table 8's means.
_FAMILIARITY_DIST = {
    "Website": ((1, 0.01), (2, 0.02), (3, 0.06), (4, 0.18), (5, 0.73)),          # ~4.60
    "Search engine": ((1, 0.01), (2, 0.03), (3, 0.12), (4, 0.28), (5, 0.56)),    # ~4.35
    "Generative AI": ((1, 0.03), (2, 0.08), (3, 0.22), (4, 0.31), (5, 0.36)),    # ~3.89
    "Robots.txt": ((1, 0.50), (2, 0.20), (3, 0.15), (4, 0.11), (5, 0.04)),       # ~1.99
    "Nearest diffusion tree": ((1, 0.66), (2, 0.20), (3, 0.08), (4, 0.04), (5, 0.02)),  # ~1.56
}


def _draw(rng: random.Random, dist: Sequence[Tuple[object, float]]) -> object:
    roll = rng.random()
    acc = 0.0
    for value, p in dist:
        acc += p
        if roll < acc:
            return value
    return dist[-1][0]


def _theme_sentence(rng: random.Random, codebook: Codebook, theme_name: Optional[str] = None) -> str:
    themes = codebook.themes
    if theme_name is not None:
        theme = next(t for t in themes if t.name == theme_name)
    else:
        theme = rng.choice(themes)
    keyword = rng.choice(theme.keywords)
    openers = ["Honestly, ", "For me, ", "I think ", "Mostly because ", ""]
    return f"{rng.choice(openers)}{theme.example} ({keyword})."


def _allocation(rng: random.Random, quota: Sequence[Tuple[object, int]], total: int) -> List[object]:
    values: List[object] = []
    for value, count in quota:
        values.extend([value] * count)
    if len(values) < total:
        values.extend([quota[-1][0]] * (total - len(values)))
    rng.shuffle(values)
    return values[:total]


def generate_respondents(seed: int = 42) -> List[Respondent]:
    """Generate the respondent pool: :data:`N_VALID` valid and
    :data:`N_INVALID` low-quality responses."""
    rng = seeded_rng(seed, "survey")

    continents = _allocation(
        rng, [((c, country), n) for c, country, n in _CONTINENT_QUOTA], N_VALID
    )
    durations = _allocation(rng, _DURATION_QUOTA, 176)

    # Exactly 176 respondents make money from art; 136 are professional.
    makes_money = [True] * 176 + [False] * (N_VALID - 176)
    rng.shuffle(makes_money)
    professional = [True] * 136 + [False] * (N_VALID - 136)
    rng.shuffle(professional)
    # 84 heard of robots.txt; exactly 38 of them maintain personal sites.
    heard = [True] * 84 + [False] * (N_VALID - 84)
    rng.shuffle(heard)
    heard_site_flags = [True] * 38 + [False] * (84 - 38)
    rng.shuffle(heard_site_flags)

    respondents: List[Respondent] = []
    duration_iter = iter(durations)
    heard_site_iter = iter(heard_site_flags)
    aware_site_seen = 0
    non_user_quota = 27         # of the 38 aware site owners, 27 do not use it
    no_control_quota = 9        # and 9 report having no control at all

    for rid in range(N_VALID):
        r = Respondent(rid=rid)
        a = r.answers
        continent, country = continents[rid]
        a["Q1"] = "Yes" if professional[rid] else "No"
        if makes_money[rid]:
            a["Q2"] = rng.choice(INCOME_OPTIONS[1:])
            a["Q3"] = next(duration_iter)
        else:
            a["Q2"] = INCOME_OPTIONS[0]
        a["Q4"] = tuple(
            t for t in ART_TYPES if rng.random() < _ART_TYPE_P.get(t, 0.05)
        ) or ("Illustration",)
        a["Q5"] = country
        a["continent"] = continent
        a["Q6"] = {
            item: _draw(rng, _FAMILIARITY_DIST[item]) for item in FAMILIARITY_ITEMS
        }
        a["Q7"] = "Yes"

        platforms = ["Social Media"]
        if rng.random() < 0.75:
            platforms.append("Art Platforms")
        heard_this = heard[rid]
        if heard_this:
            has_site = next(heard_site_iter)
        else:
            has_site = rng.random() < 0.40
        if has_site:
            platforms.append("Personal Website")
            a["Q9"] = rng.choice(
                ["Paid service", "Paid service", "Free service", "I have my own server"]
            )
        a["Q8"] = tuple(platforms)

        a["Q13"] = rng.choice(
            ["Somewhat familiar", "Moderately familiar", "Very familiar"]
        )
        a["Q15"] = _theme_sentence(rng, ENABLE_CODEBOOK)
        a["Q16"] = _draw(
            rng,
            (
                (IMPACT_5[0], 0.06), (IMPACT_5[1], 0.15), (IMPACT_5[2], 0.25),
                (IMPACT_5[3], 0.30), (IMPACT_5[4], 0.24),
            ),
        )

        took_action = rid < 169  # 83% took action (shuffled below via rid mix)
        a["Q17"] = "Yes" if took_action else "No"
        if took_action:
            actions = set()
            if rng.random() < 0.71:
                actions.add("Using Glaze to protect my art before posting")
            if rng.random() < 0.45:
                actions.add("Reducing the amount of my artwork that I share online")
            if rng.random() < 0.40:
                actions.add("Posting lower resolution versions of my artwork online")
            if rng.random() < 0.15:
                actions.add("Preventing my websites from being scraped")
            if rng.random() < 0.12:
                actions.add("Other")
            if not actions:
                actions.add(rng.choice(ACTION_OPTIONS[:4]))
            a["Q18"] = tuple(sorted(actions))
            if "Other" in actions:
                a["Q18_other"] = _theme_sentence(rng, ACTIONS_CODEBOOK)

        # Q22/Q23 willingness: 97% likely or very likely; 93% very likely.
        a["Q23"] = _draw(
            rng,
            (
                (LIKERT_5[4], 0.93), (LIKERT_5[3], 0.04), (LIKERT_5[2], 0.02),
                (LIKERT_5[1], 0.01),
            ),
        )
        a["Q22"] = _draw(
            rng, ((LIKERT_5[4], 0.85), (LIKERT_5[3], 0.09), (LIKERT_5[2], 0.06))
        )
        if a["Q23"] in LIKERT_5[3:]:
            a["Q23_why"] = _theme_sentence(rng, ENABLE_CODEBOOK)
        else:
            a["Q23_why"] = _theme_sentence(rng, NO_ADOPT_CODEBOOK, "efficacy")

        a["Q24"] = "Yes" if heard_this else "No"
        if heard_this:
            understood = rng.random() < 0.90
            a["Q25"] = (
                "It tells crawlers which pages they are blocked from accessing."
                if understood
                else "Something about website code, not sure."
            )
            a["Q29"] = _answer_control(rng)
            if has_site:
                aware_site_seen += 1
                # Of the 38 aware site owners: 27 do not use robots.txt
                # on their site, and 9 report having no control over it.
                if non_user_quota > 0:
                    non_user_quota -= 1
                    uses = False
                else:
                    uses = True
                a["Q31"] = "Yes" if uses else "No"
                if not uses:
                    a["Q31_why_not"] = rng.choice(
                        [
                            "I don't know how to do it",
                            "I don't know how to do it",
                            "I am concerned it will impact the discoverability of my website online",
                            "Other",
                        ]
                    )
                if no_control_quota > 0:
                    no_control_quota -= 1
                    a["Q29"] = "I have no control over the content"
                elif a["Q29"] == "I have no control over the content":
                    a["Q29"] = "I am not sure"
        else:
            # Post-explainer comprehension: 113 of 119 get it.
            understood = rng.random() < (113 / 119)
            a["Q25"] = (
                "It is like a do-not-enter sign telling bots to stop crawling parts of a site."
                if understood
                else "No idea, it sounds technical."
            )
            a["understood_explainer"] = understood
            if understood:
                a["Q26"] = _draw(
                    rng,
                    (
                        (LIKERT_5[4], 0.45), (LIKERT_5[3], 0.30), (LIKERT_5[2], 0.15),
                        (LIKERT_5[1], 0.07), (LIKERT_5[0], 0.03),
                    ),
                )
                if a["Q26"] in LIKERT_5[:3]:
                    a["Q26_why"] = _theme_sentence(rng, NO_ADOPT_CODEBOOK)
                else:
                    a["Q26_why"] = _theme_sentence(rng, ENABLE_CODEBOOK)
            # Distrust: 77% of the never-heard group.
            a["Q27"] = _draw(
                rng,
                (
                    (LIKERT_5[0], 0.38), (LIKERT_5[1], 0.39), (LIKERT_5[2], 0.13),
                    (LIKERT_5[3], 0.08), (LIKERT_5[4], 0.02),
                ),
            )
        if "Q27" not in a:
            a["Q27"] = _draw(
                rng,
                (
                    (LIKERT_5[0], 0.35), (LIKERT_5[1], 0.38), (LIKERT_5[2], 0.15),
                    (LIKERT_5[3], 0.09), (LIKERT_5[4], 0.03),
                ),
            )
        if a["Q27"] in LIKERT_5[:2]:
            a["Q27_why"] = _theme_sentence(rng, DISTRUST_CODEBOOK)
        else:
            a["Q27_why"] = "They say they follow standards, so maybe."

        r.completion_minutes = max(4.0, rng.gauss(12.0, 3.0))
        respondents.append(r)

    rng.shuffle(respondents)
    for rid in range(N_INVALID):
        respondents.append(_junk_respondent(rng, N_VALID + rid))
    return respondents


def _answer_control(rng: random.Random) -> str:
    return _draw(
        rng,
        (
            ("I have full control over the full content of robots.txt", 0.25),
            ("I can click some buttons to switch between a few presets", 0.25),
            ("I have no control over the content", 0.15),
            ("I am not sure", 0.30),
            ("Other", 0.05),
        ),
    )


def _junk_respondent(rng: random.Random, rid: int) -> Respondent:
    """A low-quality response the validity filter must reject."""
    r = Respondent(rid=rid, low_quality=True)
    kind = rng.choice(["short", "straight-line", "incomplete"])
    a = r.answers
    a["Q1"] = "Yes"
    a["Q7"] = "Yes"
    if kind == "short":
        a["Q2"] = INCOME_OPTIONS[1]
        a["Q15"] = "ok"
        a["Q16"] = IMPACT_5[2]
        a["Q22"] = a["Q23"] = a["Q27"] = LIKERT_5[2]
        a["Q24"] = "No"
        a["Q25"] = "idk"
        a["Q27_why"] = "."
        r.completion_minutes = 3.0
    elif kind == "straight-line":
        a["Q2"] = INCOME_OPTIONS[1]
        a["Q15"] = "I select the middle option for everything in surveys."
        a["Q16"] = IMPACT_5[2]
        a["Q22"] = a["Q23"] = a["Q26"] = a["Q27"] = LIKERT_5[2]
        a["Q24"] = "No"
        a["Q25"] = "I select the middle option for everything in surveys."
        a["Q27_why"] = "I select the middle option for everything in surveys."
        r.completion_minutes = 2.5
    else:
        # Incomplete: bails out before the robots.txt block.
        a["Q2"] = INCOME_OPTIONS[1]
        a["Q15"] = "AI art is concerning for working artists like me."
        a["Q16"] = IMPACT_5[3]
        r.completion_minutes = 5.0
    return r


def filter_valid(respondents: Sequence[Respondent]) -> List[Respondent]:
    """The paper's validity filter: drop short/straight-line/incomplete.

    Detection uses only observable features (answer lengths, likert
    straight-lining, missing required questions, completion time) --
    never the generator's ground-truth flag.
    """
    valid: List[Respondent] = []
    for r in respondents:
        a = r.answers
        required = ("Q2", "Q16", "Q22", "Q23", "Q24", "Q27")
        if any(q not in a for q in required):
            continue
        open_answers = [
            str(a.get(q, "")) for q in ("Q15", "Q25", "Q27_why") if q in a
        ]
        if any(len(text.strip()) < 8 for text in open_answers):
            continue
        likerts = [a.get(q) for q in ("Q22", "Q23", "Q26", "Q27") if a.get(q)]
        if len(likerts) >= 3 and len(set(likerts)) == 1 and r.completion_minutes < 6:
            continue
        valid.append(r)
    return valid
