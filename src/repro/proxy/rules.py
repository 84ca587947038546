"""Blocking rules: the policy language of active blockers.

A :class:`BlockRule` matches requests on user-agent patterns and source
networks, and prescribes an :class:`Action`.  A
:class:`RuleSet` evaluates rules in order, first match wins -- the same
discipline as Apache ``.htaccess`` deny rules or a WAF rule list
(Section 2.2, "Active blocking").
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..agents.useragent import matches_any
from ..net.http import Request
from ..obs.metrics import metrics_enabled, shared_registry

__all__ = ["Action", "BlockRule", "RuleSet"]

#: ``(action value, rule label)`` -> counter handle; decide() runs per
#: proxied request, so the registry probe happens once per rule kind.
_RULE_MATCH_COUNTERS: dict = {}


def _count_rule_match(action: "Action", label: str) -> None:
    key = (action.value, label)
    counter = _RULE_MATCH_COUNTERS.get(key)
    if counter is None:
        counter = shared_registry().counter(
            "proxy.rule_matches", action=action.value, rule=label or "unlabeled"
        )
        _RULE_MATCH_COUNTERS[key] = counter
    counter.inc()


class Action(enum.Enum):
    """What a matching rule does to the request."""

    #: Return 403 with a block page.
    BLOCK = "block"
    #: Return a browser-verification interstitial.
    CHALLENGE = "challenge"
    #: Return a captcha wall.
    CAPTCHA = "captcha"


@dataclass
class BlockRule:
    """One matching rule.

    All specified conditions must hold (AND); unspecified conditions
    match everything.

    Attributes:
        action: What to do on match.
        ua_patterns: Substring patterns against the User-Agent header
            (Cloudflare-style; a trailing ``/`` requires the version
            separator).  Empty means "any UA".
        networks: CIDR blocks the client IP must fall into.
        label: Human-readable rule name for logs and tests.
    """

    action: Action
    ua_patterns: Sequence[str] = ()
    networks: Sequence[str] = ()
    label: str = ""

    def matches(self, request: Request) -> bool:
        """Whether this rule applies to *request*."""
        if self.ua_patterns and not matches_any(request.user_agent, list(self.ua_patterns)):
            return False
        if self.networks and not self._ip_matches(request.client_ip):
            return False
        return True

    def _ip_matches(self, address: str) -> bool:
        try:
            ip = ipaddress.ip_address(address)
        except ValueError:
            return False
        return any(ip in ipaddress.ip_network(block) for block in self.networks)


@dataclass
class RuleSet:
    """An ordered rule list with first-match-wins evaluation.

    >>> rules = RuleSet([BlockRule(Action.BLOCK, ua_patterns=["Bytespider"])])
    >>> rules.decide(Request(host="e.com", headers={"User-Agent": "Bytespider"}))
    <Action.BLOCK: 'block'>
    """

    rules: List[BlockRule] = field(default_factory=list)

    def add(self, rule: BlockRule) -> "RuleSet":
        """Append a rule; returns self for chaining."""
        self.rules.append(rule)
        return self

    def decide(self, request: Request) -> Optional[Action]:
        """The action of the first matching rule, or None."""
        for rule in self.rules:
            if rule.matches(request):
                if metrics_enabled():
                    _count_rule_match(rule.action, rule.label)
                return rule.action
        return None

