"""The AI crawler fleet: Table 1's crawlers as executable bots.

Each real crawler from Table 1 is instantiated with the behavior the
paper *observed* (Section 5.2), so the compliance measurement pipeline
can re-derive Table 1's "Respect in Practice" column from server logs
instead of reading it off a constant:

* Seven crawlers visit unprompted and obey robots.txt: Amazonbot,
  Applebot, CCBot, ClaudeBot, GPTBot, Meta-ExternalAgent,
  OAI-SearchBot.
* Bytespider visits unprompted, fetches robots.txt, and ignores it.
* ChatGPT-User is user-triggered and obeys, but exhibited one
  anomalous unprompted visit without a robots.txt fetch
  (Section 5.2.1); the quirk is modeled explicitly.
* The remaining Table 1 crawlers never visited the testbed.

Meta's assistant crawling uses the ``FacebookExternalHit`` /
``Meta-ExternalAgent`` user agents -- never the documented
``Meta-ExternalFetcher`` (Section 5.2.2); :func:`build_builtin_assistants`
encodes that discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..agents.darkvisitors import build_registry
from ..net.transport import Network
from ..obs.metrics import shared_registry
from .engine import Crawler
from .profiles import CrawlerProfile, RobotsBehavior

__all__ = [
    "FleetMember",
    "PASSIVE_VISITORS",
    "build_fleet",
    "build_builtin_assistants",
    "FACEBOOK_EXTERNAL_HIT_UA",
]

#: The UA Meta actually uses for user-triggered fetches, alternating
#: with Meta-ExternalAgent.
FACEBOOK_EXTERNAL_HIT_UA = (
    "facebookexternalhit/1.1 (+http://www.facebook.com/externalhit_uatext.php)"
)

#: Crawlers that visited the paper's testbed unprompted during the
#: six-month passive window (Section 5.2.1), in Table 1 order.
PASSIVE_VISITORS = [
    "Amazonbot",
    "Applebot",
    "Bytespider",
    "CCBot",
    "ChatGPT-User",
    "ClaudeBot",
    "GPTBot",
    "Meta-ExternalAgent",
    "OAI-SearchBot",
]

#: Behavior overrides; everything else defaults to FETCH_AND_OBEY.
_BEHAVIOR: Dict[str, RobotsBehavior] = {
    "Bytespider": RobotsBehavior.FETCH_AND_IGNORE,
}


@dataclass
class FleetMember:
    """One crawler of the fleet plus its measurement-relevant quirks.

    Attributes:
        crawler: The executable crawler.
        visits_unprompted: Whether it appears in passive measurements.
        passive_quirk: ``"single-visit-no-robots"`` for ChatGPT-User's
            anomalous passive appearance, else None.
    """

    crawler: Crawler
    visits_unprompted: bool
    passive_quirk: Optional[str] = None

    @property
    def token(self) -> str:
        """The crawler's product token."""
        return self.crawler.profile.token


def build_fleet(network: Network) -> Dict[str, FleetMember]:
    """Instantiate the Table 1 crawler fleet on *network*.

    Returns a mapping from product token to :class:`FleetMember` for
    every *real* crawler (control tokens like Google-Extended have no
    crawler to instantiate).
    """
    registry = build_registry()
    fleet: Dict[str, FleetMember] = {}
    for agent in registry.real_crawlers():
        behavior = _BEHAVIOR.get(agent.token, RobotsBehavior.FETCH_AND_OBEY)
        profile = CrawlerProfile(
            token=agent.token,
            user_agent=agent.full_user_agent,
            behavior=behavior,
        )
        quirk = "single-visit-no-robots" if agent.token == "ChatGPT-User" else None
        fleet[agent.token] = FleetMember(
            crawler=Crawler(profile, network),
            visits_unprompted=agent.token in PASSIVE_VISITORS,
            passive_quirk=quirk,
        )
    metrics = shared_registry()
    metrics.inc("fleet.builds")
    metrics.set_gauge("fleet.size", len(fleet))
    for agent in registry.real_crawlers():
        metrics.inc("fleet.members", category=agent.category.value)
    return fleet


def build_builtin_assistants(network: Network) -> Dict[str, Crawler]:
    """The built-in AI assistant crawlers used in the active measurement.

    Returns crawlers keyed by assistant name:

    * ``"ChatGPT"`` -- OpenAI's ChatGPT-User, which obeys robots.txt.
    * ``"Meta"`` -- Meta's assistant, which obeys robots.txt but
      identifies as FacebookExternalHit rather than the documented
      Meta-ExternalFetcher.
    """
    chatgpt = Crawler(
        CrawlerProfile(
            token="ChatGPT-User",
            user_agent=(
                "Mozilla/5.0 AppleWebKit/537.36 (compatible; ChatGPT-User/1.0; "
                "+https://openai.com/bot)"
            ),
            behavior=RobotsBehavior.FETCH_AND_OBEY,
        ),
        network,
    )
    meta = Crawler(
        CrawlerProfile(
            token="Meta-ExternalAgent",
            user_agent=FACEBOOK_EXTERNAL_HIT_UA,
            behavior=RobotsBehavior.FETCH_AND_OBEY,
            source_ip="100.64.15.7",
        ),
        network,
    )
    return {"ChatGPT": chatgpt, "Meta": meta}
