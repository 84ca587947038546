"""Simulation of Cloudflare's bot-blocking features.

Models the observable behavior the Section 6.3 grey-box evaluation
characterizes:

* **Verified bots** -- requests claiming a verified-bot user agent from
  outside the bot's published IP range are blocked as spoofs regardless
  of settings (Appendix C.2's note that "IP address likely plays a role
  in the operation of this setting").
* **Block AI Bots** -- the one-click feature [13]: blocks the seventeen
  UA patterns of Appendix C.3 with a block page.  Verified AI bots that
  Cloudflare chooses not to block (Applebot, OAI-SearchBot, ICC
  Crawler, DuckAssistbot) pass through, matching footnote 8.
* **Definitely Automated** -- the managed ruleset blocking automation
  tools (Appendix C.2) with a challenge page.
* Custom WAF rules compose with the managed features, ahead of them,
  like user-configured rules do on the real service.

The proxy keeps a ``dashboard`` log of (user agent, disposition) pairs,
standing in for the Cloudflare dashboard the paper uses as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..agents.catalogs import (
    CLOUDFLARE_AI_BOTS_BLOCKED,
    CLOUDFLARE_DEFINITELY_AUTOMATED,
    CLOUDFLARE_VERIFIED_BOTS,
)
from ..agents.ipranges import ip_in_published_range
from ..agents.useragent import contains_token, matches_any
from ..net.http import Request, Response
from ..net.transport import Handler
from .reverse_proxy import ReverseProxy
from .rules import Action, RuleSet

__all__ = ["CloudflareSettings", "CloudflareProxy"]


@dataclass(frozen=True)
class CloudflareSettings:
    """Per-zone feature toggles.  They behave identically on free and
    paid plans (validated by the paper on both).

    Attributes:
        block_ai_bots: The "Block AI Scrapers and Crawlers" switch.
        definitely_automated: The "Definitely Automated" managed rule.
    """

    block_ai_bots: bool = False
    definitely_automated: bool = False


class CloudflareProxy(ReverseProxy):
    """A Cloudflare-style zone fronting one origin site.

    >>> from repro.net.server import Website
    >>> zone = CloudflareProxy(Website("e.com"), CloudflareSettings(block_ai_bots=True))
    >>> zone.handle(Request(host="e.com", path="/", headers={"User-Agent": "Bytespider"})).status
    403
    """

    def __init__(
        self,
        origin: Handler,
        settings: Optional[CloudflareSettings] = None,
        custom_rules: Optional[RuleSet] = None,
    ):
        super().__init__(origin, ruleset=custom_rules, service_name="Cloudflare")
        self.settings = settings or CloudflareSettings()
        #: Grey-box ground truth: (user_agent, disposition) per request,
        #: dispositions in {"pass", "block-ai", "managed-challenge",
        #: "spoofed-verified-bot", "custom"}.
        self.dashboard: List[Tuple[str, str]] = []

    # -- managed rule predicates ---------------------------------------------

    def _claims_verified_bot(self, user_agent: str) -> Optional[str]:
        """The verified-bot token the UA claims to be, if any."""
        for token in CLOUDFLARE_VERIFIED_BOTS:
            if contains_token(user_agent, token):
                return token
        return None

    def _is_spoofed_verified_bot(self, request: Request) -> bool:
        token = self._claims_verified_bot(request.user_agent)
        if token is None:
            return False
        return not ip_in_published_range(token, request.client_ip)

    def _matches_block_ai(self, user_agent: str) -> bool:
        return matches_any(user_agent, CLOUDFLARE_AI_BOTS_BLOCKED)

    def _matches_definitely_automated(self, user_agent: str) -> bool:
        return matches_any(user_agent, CLOUDFLARE_DEFINITELY_AUTOMATED)

    # -- request handling ------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Evaluate managed features, then forward to the origin."""
        ua = request.user_agent
        custom = self.ruleset.decide(request)
        if custom is not None:
            self.dashboard.append((ua, "custom"))
            return self._gate(custom, request)

        # Verified-bot IP validation is part of the Definitely Automated
        # managed ruleset (Appendix C.2: "IP address likely plays a role
        # in the operation of this setting to block 'fake' verified
        # bots"); with managed rules off, a spoofed UA passes through,
        # which is what lets the paper's grey-box probes -- sent from a
        # non-published IP -- measure the Block AI Bots list at all.
        if self.settings.definitely_automated and self._is_spoofed_verified_bot(request):
            self.dashboard.append((ua, "spoofed-verified-bot"))
            return self._gate(Action.BLOCK, request)

        if self.settings.block_ai_bots and self._matches_block_ai(ua):
            self.dashboard.append((ua, "block-ai"))
            return self._gate(Action.BLOCK, request)

        if self.settings.definitely_automated and self._matches_definitely_automated(ua):
            self.dashboard.append((ua, "managed-challenge"))
            return self._gate(Action.CHALLENGE, request)

        self.dashboard.append((ua, "pass"))
        return self._forward(request)
