"""Managed robots.txt services (Section 2.2).

Dark Visitors, YoastSEO, and AIOSEO offer *managed* robots.txt: the
service maintains an up-to-date AI-agent list and rewrites the
customer's robots.txt automatically as new crawlers are announced.
:class:`ManagedRobotsService` models that product: it knows the agent
announcement timeline and produces, for any month, the customer's base
file plus a synced disallow group covering every announced AI agent.

The operator model uses this for its "managed" sites, and the service
is exposed directly so library users can generate synced files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.serialize import add_disallow_group, agents_mentioned
from .events import AGENT_ANNOUNCED

__all__ = ["ManagedRobotsService"]


@dataclass
class ManagedRobotsService:
    """A robots.txt manager synced to the AI-agent announcement feed.

    Args:
        name: Service name (rendered into the managed block's comment).
        announcements: Agent-to-announcement-month feed; defaults to the
            study's :data:`~repro.web.events.AGENT_ANNOUNCED` timeline.
        block_paths: Paths the managed group disallows (``/`` = full).
    """

    name: str = "agent-sync"
    announcements: Dict[str, int] = field(
        default_factory=lambda: dict(AGENT_ANNOUNCED)
    )
    block_paths: Tuple[str, ...] = ("/",)

    def known_agents(self, month: int) -> List[str]:
        """Agents announced by *month*, in (announcement, name) order."""
        pairs = [(m, token) for token, m in self.announcements.items() if m <= month]
        pairs.sort()
        return [token for _, token in pairs]

    def update_months(self, subscribed_month: int, through: int) -> List[int]:
        """Months in (subscribed, through] where the service pushes an update."""
        months = sorted(
            {
                m
                for m in self.announcements.values()
                if subscribed_month < m <= through
            }
        )
        return months

    def managed_text(self, base_text: str, month: int) -> str:
        """The customer's file at *month*: base + synced managed group.

        Agents the base file already names are left to the customer's
        own rules (the manager does not duplicate them).
        """
        already = set(agents_mentioned(base_text))
        agents = [
            token
            for token in self.known_agents(month)
            if token.lower() not in already
        ]
        if not agents:
            return base_text
        text = base_text
        if text and not text.endswith("\n"):
            text += "\n"
        text += f"# managed by {self.name}\n"
        return add_disallow_group(text, agents, paths=list(self.block_paths))

    def schedule(self, base_text: str, subscribed_month: int) -> List[Tuple[int, str]]:
        """The full (month, text) schedule from subscription through
        October 2024 (month 24)."""
        months = [subscribed_month] + self.update_months(subscribed_month, 24)
        return [(m, self.managed_text(base_text, m)) for m in months]
