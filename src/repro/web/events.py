"""The event timeline driving robots.txt evolution.

Months are indexed from October 2022 (month 0) through October 2024
(month 24), matching the Common Crawl window of Table 3; the compliance
testbed runs later (Sep 2024-Mar 2025) and uses its own clock.

Three kinds of dated events shape the trends of Figures 2-4:

* **User-agent announcements** -- a site cannot write a rule for a UA
  that has not been announced; the surge in restrictions follows the
  GPTBot / ChatGPT-User announcement (August 2023).
* **The EU AI Act** (August 2024) -- a secondary adoption uptick across
  all user agents (Figure 3's vertical line).
* **Data licensing deals** -- publishers removing GPTBot restrictions
  from all their domains, sometimes adding explicit allows (Figure 4's
  vertical lines; Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "MONTHS",
    "GPTBOT_ANNOUNCEMENT",
    "EU_AI_ACT",
    "AGENT_ANNOUNCED",
    "DataDeal",
    "DATA_DEALS",
]

#: Month indices covered by the longitudinal window (Oct 2022-Oct 2024).
MONTHS = list(range(25))

#: August 2023: OpenAI announces the GPTBot and ChatGPT-User UAs.
GPTBOT_ANNOUNCEMENT = 10

#: August 2024: EU AI Act enters into force; its draft Code of Practice
#: requires signatories to respect robots.txt.
EU_AI_ACT = 22

#: Month each AI user agent became known/blockable.  Negative values
#: mean "well before the window" (CCBot long predates generative AI).
AGENT_ANNOUNCED: Dict[str, int] = {
    "CCBot": -60,
    "omgili": -48,
    "Diffbot": -48,
    "Amazonbot": -24,
    "Applebot": -60,
    "FacebookBot": -36,
    "Bytespider": 6,
    "anthropic-ai": 8,
    "Claude-Web": 8,
    "cohere-ai": 8,
    "GPTBot": GPTBOT_ANNOUNCEMENT,
    "ChatGPT-User": GPTBOT_ANNOUNCEMENT,
    "Google-Extended": 11,       # September 2023
    "PerplexityBot": 12,
    "YouBot": 12,
    "Timpibot": 13,
    "AI2Bot": 18,
    "ClaudeBot": 15,
    "Applebot-Extended": 20,     # June 2024
    "OAI-SearchBot": 21,         # July 2024
    "Meta-ExternalAgent": 22,    # August 2024
    "Meta-ExternalFetcher": 22,
    "Kangaroo Bot": 22,
    "Webzio-Extended": 23,
}


@dataclass(frozen=True)
class DataDeal:
    """One publisher-AI company licensing deal.

    Attributes:
        publisher: Publisher name.
        month: Month index the robots.txt changes landed.
        n_domains: How many of the publisher's domains changed.
        agents_unblocked: UA tokens whose restrictions were removed.
        adds_explicit_allow: Whether the publisher also added explicit
            ``Allow: /`` groups for the agents (the Vox Media pattern in
            Table 4, where dozens of SB Nation domains explicitly allow
            GPTBot in 2024-42).
        public: Whether the deal was publicly announced (Future PLC's
            removals were not).
    """

    publisher: str
    month: int
    n_domains: int
    agents_unblocked: Tuple[str, ...] = ("GPTBot", "ChatGPT-User")
    adds_explicit_allow: bool = False
    public: bool = True


#: Publisher deals with OpenAI, matching Section 3.3 / Figure 4.  The
#: vertical lines in Figure 4 are the deals of publishers controlling
#: 40+ domains.  Domain counts are chosen so that total GPTBot-restriction
#: removals over the window land near the paper's 484 sites and the
#: explicit-allow population near 79 sites.
DATA_DEALS = [
    DataDeal("Axel Springer", month=14, n_domains=18),
    DataDeal("Le Monde Group", month=16, n_domains=12),
    DataDeal("Financial Times", month=17, n_domains=8),
    DataDeal("Dotdash Meredith", month=19, n_domains=42,
             adds_explicit_allow=False),
    DataDeal("Stack Exchange", month=19, n_domains=45),
    DataDeal("Future PLC", month=19, n_domains=14, public=False),
    DataDeal("News Corp", month=20, n_domains=38),
    DataDeal("Vox Media", month=24, n_domains=44, adds_explicit_allow=True),
    DataDeal("Conde Nast", month=22, n_domains=26),
    DataDeal("Hearst", month=23, n_domains=30),
]
