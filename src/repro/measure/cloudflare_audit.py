"""Section 6.3: grey-box evaluation and adoption of Cloudflare's
Block AI Bots feature.

Two instruments:

* :func:`infer_blocked_agents` -- the grey-box experiment on a zone we
  control: probe a candidate UA list with the feature off and on, and
  report the UAs whose disposition flips.  Recovers the Appendix C.3
  list of seventeen patterns.
* :func:`infer_site_setting` / :func:`audit_cloudflare_sites` -- the
  Figure 7 decision procedure over third-party sites: probe with
  ClaudeBot and anthropic-ai (unverified AI UAs), HeadlessChrome and
  libwww-perl (Definitely-Automated members outside the AI list), plus
  a control browser UA, and classify each zone's Block AI Bots setting
  as on / off / indeterminate from the status codes and returned page
  kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..agents.useragent import DEFAULT_BROWSER_UA
from ..net.errors import NetError
from ..net.http import Headers, Request
from ..net.transport import Network
from ..proxy.challenges import PageKind, classify_page

__all__ = [
    "infer_blocked_agents",
    "BlockAISetting",
    "SiteAudit",
    "infer_site_setting",
    "audit_cloudflare_sites",
    "CloudflareAuditSummary",
]

#: Figure 7's probe UAs.
CLAUDEBOT_UA = "ClaudeBot/1.0"
ANTHROPIC_UA = "anthropic-ai"
HEADLESS_UA = "Mozilla/5.0 HeadlessChrome/129.0.0.0"
LIBWWW_UA = "libwww-perl/6.67"


def _fetch_kind(network: Network, host: str, user_agent: str) -> Tuple[int, PageKind]:
    """One probe: (status, page kind); transport errors read as BLOCK."""
    try:
        response = network.request(
            Request(host=host, path="/", headers=Headers({"User-Agent": user_agent}))
        )
    except NetError:
        return 0, PageKind.BLOCK
    return response.status, classify_page(response.text)


def infer_blocked_agents(
    zone_factory: Callable[[bool], Network],
    candidate_uas: Sequence[str],
    host: str,
) -> List[str]:
    """Grey-box inference of the Block-AI-Bots UA coverage.

    Args:
        zone_factory: Builds a network serving our controlled site with
            the Block AI Bots setting off (False) or on (True).
        candidate_uas: Full UA strings to probe (Table 1 agents plus the
            generic crawler list).
        host: The controlled site's hostname.

    Returns the UAs that pass with the setting off and are blocked with
    it on -- i.e. exactly the feature's own coverage, not that of other
    managed rules.
    """
    off = zone_factory(False)
    on = zone_factory(True)
    flipped: List[str] = []
    for user_agent in candidate_uas:
        status_off, _ = _fetch_kind(off, host, user_agent)
        status_on, kind_on = _fetch_kind(on, host, user_agent)
        if status_off == 200 and status_on != 200 and kind_on is PageKind.BLOCK:
            flipped.append(user_agent)
    return flipped


class BlockAISetting(enum.Enum):
    """Inferred Block-AI-Bots state of a third-party zone."""

    ON = "on"
    OFF = "off"
    INDETERMINATE = "indeterminate"


@dataclass
class SiteAudit:
    """Figure 7 outcome for one site.

    Attributes:
        host: Audited site.
        setting: Inferred Block AI Bots state.
        definitely_automated: Inferred Definitely-Automated state (None
            when indeterminate).
        probes: Raw (status, page-kind) per probe UA, for debugging.
    """

    host: str
    setting: BlockAISetting
    definitely_automated: Optional[bool] = None
    probes: Dict[str, Tuple[int, PageKind]] = field(default_factory=dict)


def infer_site_setting(network: Network, host: str) -> SiteAudit:
    """Apply the Figure 7 decision procedure to one Cloudflare site."""
    probes = {
        "control": _fetch_kind(network, host, DEFAULT_BROWSER_UA),
        "claudebot": _fetch_kind(network, host, CLAUDEBOT_UA),
        "anthropic": _fetch_kind(network, host, ANTHROPIC_UA),
        "headless": _fetch_kind(network, host, HEADLESS_UA),
        "libwww": _fetch_kind(network, host, LIBWWW_UA),
    }

    def audit(setting: BlockAISetting, da: Optional[bool] = None) -> SiteAudit:
        return SiteAudit(host=host, setting=setting, definitely_automated=da, probes=probes)

    control_status, _ = probes["control"]
    if control_status != 200:
        # The site does not even serve a normal browser: some other
        # blocking layer is in front; no inference possible.
        return audit(BlockAISetting.INDETERMINATE)

    cb_status, cb_kind = probes["claudebot"]
    hd_status, hd_kind = probes["headless"]
    lw_status, lw_kind = probes["libwww"]

    headless_challenged = hd_status != 200 and hd_kind is PageKind.CHALLENGE
    libwww_challenged = lw_status != 200 and lw_kind is PageKind.CHALLENGE
    if headless_challenged != libwww_challenged:
        # The Definitely-Automated managed rule covers both tools; a
        # split disposition means custom rules are in play.
        return audit(BlockAISetting.INDETERMINATE)
    da_on = headless_challenged and libwww_challenged

    if cb_status == 200:
        # ClaudeBot passes: Block AI Bots (which covers ClaudeBot) must
        # be off.  Sanity-check the anthropic-ai probe for custom rules.
        an_status, _ = probes["anthropic"]
        if an_status != 200 and not da_on:
            return audit(BlockAISetting.INDETERMINATE, da_on)
        return audit(BlockAISetting.OFF, da_on)

    if cb_kind is PageKind.BLOCK:
        # A Cloudflare block page for an unverified AI UA is the Block
        # AI Bots signature (Definitely Automated serves challenges).
        return audit(BlockAISetting.ON, da_on)

    if cb_kind is PageKind.CHALLENGE and da_on:
        # Fully explained by Definitely Automated.
        return audit(BlockAISetting.OFF, da_on)

    return audit(BlockAISetting.INDETERMINATE, da_on)


@dataclass
class CloudflareAuditSummary:
    """Aggregate Figure 7 results over the Cloudflare-hosted sites."""

    audits: List[SiteAudit] = field(default_factory=list)

    @property
    def n_sites(self) -> int:
        return len(self.audits)

    @property
    def n_determined(self) -> int:
        return sum(1 for a in self.audits if a.setting is not BlockAISetting.INDETERMINATE)

    @property
    def n_enabled(self) -> int:
        return sum(1 for a in self.audits if a.setting is BlockAISetting.ON)

    def enabled_hosts(self) -> List[str]:
        return [a.host for a in self.audits if a.setting is BlockAISetting.ON]

    def determined_off_hosts(self) -> List[str]:
        return [a.host for a in self.audits if a.setting is BlockAISetting.OFF]


def audit_cloudflare_sites(network: Network, hosts: Sequence[str]) -> CloudflareAuditSummary:
    """Run the Figure 7 procedure over *hosts*."""
    summary = CloudflareAuditSummary()
    for host in hosts:
        summary.audits.append(infer_site_setting(network, host))
    return summary
