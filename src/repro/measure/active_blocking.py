"""Section 6.1-6.2: detecting active blocking of AI crawlers.

The detector follows the paper's user-agent-differential methodology:

1. **Control case** -- visit each site with a headless browser
   presenting a typical Chrome UA (our simulated headless client leaks
   automation fingerprint signals, exactly like Selenium-driven
   Chromium).  Sites that do not return a 200 are excluded: we cannot
   tell UA-blocking apart from tool-blocking there.
2. **AI case** -- revisit with the ClaudeBot and anthropic-ai user
   agents (the two most-restricted agents without published IPs).
3. **Decision** -- a site actively blocks when status codes differ, a
   transport exception appears, or the content length changes
   significantly between control and AI crawls (block-page detection
   following Jones et al.).

A single transient connection reset is indistinguishable from a
deliberate drop in one observation, so the decision step confirms
before it accuses: a probe outcome that *would* flip the verdict is
re-probed up to :data:`CONFIRMATION_ATTEMPTS` times, each
:data:`CONFIRMATION_SPACING_SECONDS` apart on the simulated clock.
Only a *repeatable* differential yields ``blocks_ai=True`` -- transient
faults (exercised by ``repro.net.chaos`` campaigns) produce zero false
positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..agents.useragent import DEFAULT_BROWSER_UA
from ..net import chaos
from ..net.errors import NetError
from ..net.http import Headers, Request
from ..net.transport import Network
from ..proxy.fingerprint import AUTOMATION_HEADER

__all__ = [
    "ProbeResult",
    "SiteBlockingVerdict",
    "probe",
    "detect_active_blocking",
    "survey_active_blocking",
    "BlockingSurvey",
]

#: The AI user agents used for the differential (Section 6.1).
AI_PROBE_UAS = ("Claudebot/1.0", "anthropic-ai")

#: Relative content-length difference treated as "significant".
LENGTH_DELTA_THRESHOLD = 0.30


#: Re-probes allowed for one verdict-flipping outcome (0 while retries
#: are disabled via :func:`repro.net.chaos.retries_disabled`).
CONFIRMATION_ATTEMPTS = 2

#: Simulated seconds between re-probes, charged to ``network.now`` --
#: real tooling spaces retries so a momentarily-overloaded origin is
#: not re-hit instantly.
CONFIRMATION_SPACING_SECONDS = 5.0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe request.

    Attributes:
        status: HTTP status (0 on transport error).
        content_length: Body size in bytes.
        error: Transport error text, if any.
    """

    status: int
    content_length: int
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def probe(network: Network, host: str, user_agent: str) -> ProbeResult:
    """Visit ``host``'s homepage once with ``user_agent`` and summarize
    the result.

    The probe client is a headless browser under automation, so it
    carries fingerprint signals regardless of the UA it presents --
    matching the paper's Selenium/Chromium tooling.
    """
    headers = {"User-Agent": user_agent, AUTOMATION_HEADER: "webdriver,headless"}
    try:
        response = network.request(
            Request(host=host, path="/", headers=Headers(headers))
        )
    except NetError as exc:
        return ProbeResult(status=0, content_length=0, error=str(exc))
    return ProbeResult(status=response.status, content_length=response.content_length)


@dataclass
class SiteBlockingVerdict:
    """Per-site outcome of the differential measurement.

    Attributes:
        host: The site probed.
        control: Control-case probe result (the final observation when
            transport failures were retried).
        ai_probes: Final results for each AI UA probed.
        excluded: The control case failed (site blocks the tool), so no
            inference is made.
        blocks_ai: Whether the site actively blocks based on AI UAs.
        probe_attempts: Probes actually issued per case (``"control"``
            plus one entry per AI UA); >1 means confirmation fired.
    """

    host: str
    control: ProbeResult
    ai_probes: Dict[str, ProbeResult] = field(default_factory=dict)
    excluded: bool = False
    blocks_ai: bool = False
    probe_attempts: Dict[str, int] = field(default_factory=dict)


def _differs(control: ProbeResult, ai: ProbeResult) -> bool:
    if ai.failed:
        return True
    if ai.status != control.status:
        return True
    if control.content_length == 0:
        return ai.content_length != 0
    delta = abs(ai.content_length - control.content_length) / control.content_length
    return delta > LENGTH_DELTA_THRESHOLD


def detect_active_blocking(network: Network, host: str) -> SiteBlockingVerdict:
    """Run the control/AI differential against one site.

    Suspicious outcomes are re-probed before they can flip the verdict
    (not at all while retries are globally disabled):

    * A control probe that fails at the *transport* level is retried --
      a transient reset must not exclude the site.  A non-200 HTTP
      response is accepted at face value (the server answered;
      tool-blocking is deliberate).
    * An AI probe that differs from the control is re-probed.  If any
      re-probe agrees with the control, the differential was transient
      and the site is not accused; only a differential that persists
      through every attempt sets ``blocks_ai``.
    """
    reprobes = CONFIRMATION_ATTEMPTS if chaos.retries_enabled() else 0
    control = probe(network, host, DEFAULT_BROWSER_UA)
    attempts = 1
    while control.failed and attempts <= reprobes:
        network.now += CONFIRMATION_SPACING_SECONDS
        control = probe(network, host, DEFAULT_BROWSER_UA)
        attempts += 1
    verdict = SiteBlockingVerdict(host=host, control=control)
    verdict.probe_attempts["control"] = attempts
    if control.failed or control.status != 200:
        verdict.excluded = True
        return verdict
    for user_agent in AI_PROBE_UAS:
        result = probe(network, host, user_agent)
        attempts = 1
        while _differs(control, result) and attempts <= reprobes:
            network.now += CONFIRMATION_SPACING_SECONDS
            result = probe(network, host, user_agent)
            attempts += 1
        verdict.ai_probes[user_agent] = result
        verdict.probe_attempts[user_agent] = attempts
        if _differs(control, result):
            verdict.blocks_ai = True
    return verdict


@dataclass
class BlockingSurvey:
    """Aggregate results over a site list (the Section 6.2 numbers).

    Attributes:
        verdicts: Per-site verdicts in input order.
    """

    verdicts: List[SiteBlockingVerdict] = field(default_factory=list)

    @property
    def n_sites(self) -> int:
        return len(self.verdicts)

    @property
    def n_excluded(self) -> int:
        """Sites that inherently block the measurement tool (~15%)."""
        return sum(1 for v in self.verdicts if v.excluded)

    @property
    def n_blocking(self) -> int:
        """Sites inferred to actively block the AI UAs (~14% of all)."""
        return sum(1 for v in self.verdicts if v.blocks_ai)

    def blocking_hosts(self) -> List[str]:
        return [v.host for v in self.verdicts if v.blocks_ai]


def survey_active_blocking(network: Network, hosts: Sequence[str]) -> BlockingSurvey:
    """Run the detector over *hosts* and aggregate."""
    return BlockingSurvey(
        verdicts=[detect_active_blocking(network, host) for host in hosts]
    )
