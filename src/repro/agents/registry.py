"""Data model and registry for AI crawler user agents.

The paper draws its agent universe from the Dark Visitors list [113],
categorized into AI data crawlers, AI assistant crawlers, AI search
crawlers, and undocumented AI agents (Section 2.1 / Table 1).  This
module provides the :class:`AIUserAgent` record and the
:class:`AgentRegistry` container; :mod:`repro.agents.darkvisitors`
instantiates the concrete Table 1 population.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["AgentCategory", "Compliance", "AIUserAgent", "AgentRegistry"]


class AgentCategory(enum.Enum):
    """Crawler purpose categories, following Dark Visitors / Table 1."""

    AI_DATA = "AI Data"
    AI_ASSISTANT = "AI Assistant"
    AI_SEARCH = "AI Search"
    UNDOCUMENTED = "Undocumented AI"
    #: Control tokens (Google-Extended, Applebot-Extended,
    #: Webzio-Extended) are not used by real crawlers: site owners put
    #: them in robots.txt to signal training opt-out to a dual-purpose
    #: crawler (Section 6.2).
    CONTROL_TOKEN = "Control Token"


class Compliance(enum.Enum):
    """Ternary claims/behavior values: yes, no, or undocumented."""

    YES = "Yes"
    NO = "No"
    UNKNOWN = "-"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "Compliance is ternary; compare against Compliance.YES/NO explicitly"
        )


@dataclass(frozen=True)
class AIUserAgent:
    """One row of Table 1.

    Attributes:
        token: The user-agent product token (e.g. ``"GPTBot"``).
        category: Crawler purpose.
        company: Operating company.
        publishes_ips: Whether the company publishes the IP addresses
            the crawler uses (Table 1 "Publish IP").
        claims_respect: Whether the company's documentation claims the
            crawler respects robots.txt.
        respects_in_practice: Observed behavior from the Section 5
            testbed (UNKNOWN when the crawler never visited).
        full_user_agent: A representative full UA string for traffic
            generation; defaults to ``"<token>/1.0"``.
    """

    token: str
    category: AgentCategory
    company: str
    publishes_ips: Compliance = Compliance.UNKNOWN
    claims_respect: Compliance = Compliance.UNKNOWN
    respects_in_practice: Compliance = Compliance.UNKNOWN
    full_user_agent: str = ""

    def __post_init__(self) -> None:
        if not self.token:
            raise ValueError("agent token must be non-empty")
        if not self.full_user_agent:
            object.__setattr__(self, "full_user_agent", f"{self.token}/1.0")

    @property
    def is_control_token(self) -> bool:
        """Whether this is a robots.txt-only signal, not a real crawler."""
        return self.category is AgentCategory.CONTROL_TOKEN

    @property
    def key(self) -> str:
        """Lowercased token used for registry lookups."""
        return self.token.lower()


class AgentRegistry:
    """An ordered, case-insensitive collection of :class:`AIUserAgent`.

    >>> registry = AgentRegistry([AIUserAgent("GPTBot", AgentCategory.AI_DATA, "OpenAI")])
    >>> registry.get("gptbot").company
    'OpenAI'
    """

    def __init__(self, agents: Iterable[AIUserAgent] = ()):
        self._agents: Dict[str, AIUserAgent] = {}
        for agent in agents:
            self.add(agent)

    def add(self, agent: AIUserAgent) -> None:
        """Register *agent*; duplicate tokens are an error."""
        if agent.key in self._agents:
            raise ValueError(f"duplicate agent token: {agent.token}")
        self._agents[agent.key] = agent

    def get(self, token: str) -> Optional[AIUserAgent]:
        """Look up an agent by token, case-insensitively."""
        return self._agents.get(token.lower())

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._agents

    def __iter__(self) -> Iterator[AIUserAgent]:
        return iter(self._agents.values())

    def __len__(self) -> int:
        return len(self._agents)

    def real_crawlers(self) -> List[AIUserAgent]:
        """Agents that correspond to real crawler traffic (no control tokens)."""
        return [agent for agent in self if not agent.is_control_token]
