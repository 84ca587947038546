"""Generic reverse proxy with rule-based active blocking.

A :class:`ReverseProxy` fronts an origin handler: it evaluates its
:class:`~repro.proxy.rules.RuleSet` against each request and either
serves an interstitial (block / challenge / captcha) or forwards to the
origin.  It also optionally runs the fingerprint detector, modeling
bot-management products that block *all* automation with a captcha,
which is what makes 15% of popular sites unmeasurable for the paper's
UA-based detector (Section 6.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..net.accesslog import LogEntry
from ..net.http import Request, Response
from ..net.transport import Handler, current_month
from .behavioral import (
    VERDICT_BLOCK,
    VERDICT_CHALLENGE,
    VERDICT_THROTTLE,
    BehavioralPolicy,
    BehavioralVerdict,
)
from .challenges import (
    block_page,
    captcha_page,
    challenge_page,
    throttle_page,
)
from .fingerprint import is_automated
from .rules import Action, RuleSet

__all__ = ["ReverseProxy", "ACTION_OUTCOMES"]

#: Rule action -> the ``outcome`` a proxy logs for a request it answers
#: (the operator-view vocabulary: what the client experienced).
ACTION_OUTCOMES = {
    Action.BLOCK: "blocked_403",
    Action.CAPTCHA: "blocked_403",
    Action.CHALLENGE: "challenged",
}


class ReverseProxy:
    """Rule-evaluating reverse proxy in front of one origin.

    Args:
        origin: The wrapped origin handler.
        ruleset: Blocking rules evaluated per request.
        service_name: Name shown on interstitial pages.
        block_all_automation: When True, fingerprint-detected automation
            is served a captcha wall regardless of rules (the
            "inherently blocks our tool" behavior).
        behavioral: Optional :class:`~repro.proxy.behavioral
            .BehavioralPolicy` evaluated *ahead of* the UA-list rules;
            its windows observe every request's final status (the
            interstitial's, or the response the origin returned), so
            refusals feed back into scoring.

    The proxy exposes ``host`` (delegating to the origin) so it can be
    registered on a :class:`~repro.net.transport.Network` in the
    origin's place.  It adopts the origin's ``access_log``: a request
    the proxy terminates is logged there by the proxy, a forwarded one
    by the origin, so the host's one log holds each request once.
    """

    def __init__(
        self,
        origin: Handler,
        ruleset: Optional[RuleSet] = None,
        service_name: str = "reverse-proxy",
        block_all_automation: bool = False,
        behavioral: Optional[BehavioralPolicy] = None,
    ):
        self.origin = origin
        self.ruleset = ruleset or RuleSet()
        self.service_name = service_name
        self.block_all_automation = block_all_automation
        self.behavioral = behavioral
        self.access_log = origin.access_log
        self.now: float = 0.0

    @property
    def host(self) -> str:
        """The origin's hostname (routing key)."""
        return getattr(self.origin, "host", "")

    @property
    def category(self) -> str:
        """The origin's site category (series label pass-through)."""
        return getattr(self.origin, "category", "")

    # -- interstitial construction ------------------------------------------

    def _interstitial(self, action: Action, request: Request) -> Response:
        host = request.host
        if action is Action.BLOCK:
            return Response(status=403, body=block_page(self.service_name, host), url=request.url)
        if action is Action.CHALLENGE:
            return Response(status=403, body=challenge_page(self.service_name, host), url=request.url)
        return Response(status=403, body=captcha_page(self.service_name, host), url=request.url)

    # -- behavioral gate ----------------------------------------------------

    def _behavioral_decision(
        self, request: Request
    ) -> Optional[Tuple[BehavioralVerdict, Response]]:
        """Assess the request behaviorally; gate it when warranted.

        Runs ahead of every UA-list rule: a verdict response is logged
        once (which also feeds its status back into the scoring window)
        before being returned.  ``None`` means the request proceeds to
        the rule layers.
        """
        verdict = self.behavioral.assess(
            request.user_agent, request.host, current_month()
        )
        if verdict.verdict == VERDICT_THROTTLE:
            response = Response(
                status=429,
                body=throttle_page(self.service_name, request.host),
                headers={"Retry-After": "1"},
                url=request.url,
            )
            self._record(request, "throttled", response.status)
        elif verdict.verdict == VERDICT_CHALLENGE:
            response = self._gate(Action.CHALLENGE, request)
        elif verdict.verdict == VERDICT_BLOCK:
            response = self._gate(Action.BLOCK, request)
        else:
            return None
        return verdict, response

    # -- request handling ---------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Apply blocking policy, then forward to the origin."""
        if self.behavioral is not None:
            gated = self._behavioral_decision(request)
            if gated is not None:
                return gated[1]
        action = self.ruleset.decide(request)
        if action is None and self.block_all_automation and is_automated(request):
            action = Action.CAPTCHA
        if action is not None:
            return self._gate(action, request)
        return self._forward(request)

    def _gate(self, action: Action, request: Request) -> Response:
        """Answer *request* with *action*'s interstitial, logged once."""
        response = self._interstitial(action, request)
        self._record(request, ACTION_OUTCOMES[action], response.status)
        return response

    def _record(self, request: Request, outcome: str, status: int) -> None:
        """Log a request this proxy terminated, answered with *status*,
        into the host's log."""
        entry = LogEntry(
            timestamp=self.now,
            client_ip=request.client_ip,
            path=request.path,
            status=status,
            user_agent=request.user_agent,
            host=request.host,
            month=current_month(),
            outcome=outcome,
            category=self.category,
        )
        self.access_log.append(entry)
        if self.behavioral is not None:
            self.behavioral.observe(entry)

    def _forward(self, request: Request) -> Response:
        """Hand *request* to the origin, which logs it.

        The wall clock is propagated first; the month needs no
        forwarding, since this runs inside the dispatch that set the
        month clock (:func:`repro.net.transport.current_month`).  The behavioral
        window then observes the response this proxy returns.
        """
        if hasattr(self.origin, "now"):
            self.origin.now = self.now
        response = self.origin.handle(request)
        if self.behavioral is not None:
            self.behavioral.observe(
                LogEntry(
                    timestamp=self.now,
                    client_ip=request.client_ip,
                    path=request.path,
                    status=response.status,
                    user_agent=request.user_agent,
                    host=request.host,
                )
            )
        return response
