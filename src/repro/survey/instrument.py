"""The artist survey instrument (Appendix D.1).

Encodes the questionnaire as data: question ids, prompts, response
types, options, and display conditions (e.g. Q25-Q27 follow the
robots.txt explainer shown only to participants who answered "No" to
Q24).  The synthetic respondent generator fills this instrument in, and
the analysis pipeline consumes answers keyed by question id, so the
instrument is the shared schema.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["QuestionType", "Question", "SURVEY", "question", "ROBOTS_EXPLAINER"]


class QuestionType(enum.Enum):
    """Response formats used by the survey."""

    SINGLE_CHOICE = "single"
    MULTI_CHOICE = "multi"
    LIKERT = "likert"
    OPEN = "open"
    SCALE_GRID = "scale-grid"


@dataclass(frozen=True)
class Question:
    """One survey question.

    Attributes:
        qid: Identifier, e.g. ``"Q24"``.
        text: The prompt shown to participants.
        qtype: Response format.
        options: Choice options (or grid items for scale grids).
        shown_if: Answer-dict predicate controlling display, or None
            when always shown.
    """

    qid: str
    text: str
    qtype: QuestionType
    options: Sequence[str] = ()
    shown_if: Optional[Callable[[Dict[str, object]], bool]] = None

    def is_shown(self, answers: Dict[str, object]) -> bool:
        """Whether this question applies given earlier *answers*."""
        return self.shown_if is None if self.shown_if is None else self.shown_if(answers)


LIKERT_5 = (
    "Not likely at all",
    "Unlikely",
    "Neutral / Undecided",
    "Likely",
    "Very likely",
)

IMPACT_5 = (
    "No impact",
    "Minor impact",
    "Moderate impact",
    "Significant impact",
    "Severe impact",
)

DURATION_OPTIONS = (
    "Less than 1 year",
    "1-5 years",
    "5-10 years",
    "10 years or more",
)

INCOME_OPTIONS = (
    "I haven't made any money from my art",
    "I make some income from my art but it's not the main source",
    "My art is my main source of income",
)

ART_TYPES = (
    "Concept Art",
    "Traditional Painting and Drawing",
    "Photography",
    "Abstract",
    "Illustration",
    "Game Art",
    "Anime and Manga Art",
    "Digital 2D",
    "Digital 3D",
    "Traditional Sculpting",
    "Environmental",
    "Character and Creature Design",
    "Comicbook Art",
    "Matte Painting",
    "Items Props",
    "Other",
)

FAMILIARITY_ITEMS = (
    "Website",
    "Generative AI",
    "Search engine",
    "Nearest diffusion tree",   # bogus item, after Hargittai [41]
    "Robots.txt",
)

ACTION_OPTIONS = (
    "Reducing the amount of my artwork that I share online",
    "Actively removing my old artwork from the Internet",
    "Posting lower resolution versions of my artwork online",
    "Learning about AI art tools and possibly using them",
    "Preventing my websites from being scraped",
    "Using Glaze to protect my art before posting",
    "Other",
)

CONTROL_OPTIONS = (
    "I have full control over the full content of robots.txt",
    "I can click some buttons to switch between a few presets",
    "I have no control over the content",
    "I am not sure",
    "Other",
)

#: The explainer shown to participants who had not heard of robots.txt.
ROBOTS_EXPLAINER = (
    "Think of robots.txt as a \"Do Not Enter\" sign for automated "
    "programs that browse the internet. When placed on a website, it "
    "tells these automated programs which parts of the site they're "
    "not allowed to access. While it won't stop every bot, it works "
    "like a polite request. It is important to note that not all "
    "companies respect robots.txt -- some may ignore it entirely if "
    "they choose to."
)


def _heard_no(answers: Dict[str, object]) -> bool:
    return answers.get("Q24") == "No"


def _has_site(answers: Dict[str, object]) -> bool:
    return "Personal Website" in (answers.get("Q8") or ())


SURVEY: List[Question] = [
    Question("Q1", "Do you consider yourself a professional artist?",
             QuestionType.SINGLE_CHOICE, ("Yes", "No")),
    Question("Q2", "What portion of your income comes from your art?",
             QuestionType.SINGLE_CHOICE, INCOME_OPTIONS),
    Question("Q3", "How long have you been making money from your art?",
             QuestionType.SINGLE_CHOICE, DURATION_OPTIONS,
             shown_if=lambda a: a.get("Q2") != INCOME_OPTIONS[0]),
    Question("Q4", "What type of art do you do?", QuestionType.MULTI_CHOICE, ART_TYPES),
    Question("Q5", "Which country do you live in?", QuestionType.OPEN),
    Question("Q6", "How familiar are you with the following computer and internet items?",
             QuestionType.SCALE_GRID, FAMILIARITY_ITEMS),
    Question("Q7", "Do you post your art online?", QuestionType.SINGLE_CHOICE, ("Yes", "No")),
    Question("Q8", "Where do you post art online?", QuestionType.MULTI_CHOICE,
             ("Social Media", "Art Platforms", "Personal Website", "Art Seller Websites", "Other")),
    Question("Q9", "How do you host your personal website?", QuestionType.SINGLE_CHOICE,
             ("I have my own server", "Free service", "Paid service", "Other"),
             shown_if=_has_site),
    Question("Q10", "What is the name of the service you use?", QuestionType.OPEN,
             shown_if=_has_site),
    Question("Q11", "Why did you choose the service?", QuestionType.OPEN,
             shown_if=_has_site),
    Question("Q12", "[Optional] If you're comfortable, please share a link to your "
                    "personal website.", QuestionType.OPEN, shown_if=_has_site),
    Question("Q13", "How familiar are you with AI-generated art?", QuestionType.SINGLE_CHOICE,
             ("Not familiar at all", "Slightly familiar", "Somewhat familiar",
              "Moderately familiar", "Very familiar")),
    Question("Q15", "Please briefly describe your general impression of AI-generated art.",
             QuestionType.OPEN),
    Question("Q16", "How much impact do you expect AI-generated art to have on your job security?",
             QuestionType.SINGLE_CHOICE, IMPACT_5),
    Question("Q17", "Have you taken any actions because of the increasing use of AI-generated art?",
             QuestionType.SINGLE_CHOICE, ("Yes", "No")),
    Question("Q18", "What actions have you taken?", QuestionType.MULTI_CHOICE, ACTION_OPTIONS,
             shown_if=lambda a: a.get("Q17") == "Yes"),
    Question("Q19", "Please elaborate on how you prevent your websites from being scraped.",
             QuestionType.OPEN,
             shown_if=lambda a: "Preventing my websites from being scraped" in (a.get("Q18") or ())),
    Question("Q20", "Do you plan to take any actions because of the increasing use of "
                    "AI-generated art?", QuestionType.SINGLE_CHOICE, ("Yes", "No")),
    Question("Q21", "What actions do you plan to take?", QuestionType.MULTI_CHOICE,
             ACTION_OPTIONS, shown_if=lambda a: a.get("Q20") == "Yes"),
    Question("Q22", "If your platform offers a mechanism to tell AI companies not to scrape, "
                    "how likely will you enable it?", QuestionType.LIKERT, LIKERT_5),
    Question("Q23", "If your platform offers a mechanism to block AI companies from scraping, "
                    "how likely will you enable it?", QuestionType.LIKERT, LIKERT_5),
    Question("Q24", "Have you heard about robots.txt before today?",
             QuestionType.SINGLE_CHOICE, ("Yes", "No")),
    Question("Q25", "Briefly describe what you think robots.txt does.", QuestionType.OPEN),
    Question("Q26", "Would you consider adopting robots.txt in the future?",
             QuestionType.LIKERT, LIKERT_5, shown_if=_heard_no),
    Question("Q27", "How likely do you think AI companies will respect robots.txt?",
             QuestionType.LIKERT, LIKERT_5),
    Question("Q29", "Can you control the content of the robots.txt of websites where you post?",
             QuestionType.SINGLE_CHOICE, CONTROL_OPTIONS,
             shown_if=lambda a: a.get("Q24") == "Yes"),
    Question("Q28", "Have you checked the robots.txt of websites where you post your work?",
             QuestionType.SINGLE_CHOICE, ("Yes", "No"),
             shown_if=lambda a: a.get("Q24") == "Yes"),
    Question("Q30", "How did you get the current content of robots.txt?",
             QuestionType.SINGLE_CHOICE,
             ("Provided by my website hosting platform",
              "Copied from the Internet (e.g., a blog)",
              "Created my own robots.txt",
              "Other"),
             shown_if=lambda a: a.get("Q24") == "Yes" and _has_site(a)),
    Question("Q31", "Do you currently use robots.txt to disallow bots from AI companies?",
             QuestionType.SINGLE_CHOICE, ("Yes", "No"),
             shown_if=lambda a: a.get("Q24") == "Yes" and _has_site(a)),
    Question("Q32", "[Optional] Do you face any obstacles in adopting robots.txt?",
             QuestionType.MULTI_CHOICE,
             ("I have trouble finding how to edit the robots.txt",
              "I find it hard to write the robots.txt",
              "I don't know how to use it",
              "Other"),
             shown_if=lambda a: a.get("Q24") == "Yes"),
]


def question(qid: str) -> Question:
    """Look up a question by id.

    >>> question("Q24").qtype.value
    'single'
    """
    for q in SURVEY:
        if q.qid == qid:
            return q
    raise KeyError(f"unknown question: {qid}")
