"""Active blocking: rules, interstitials, fingerprinting, reverse proxies."""

from .behavioral import (
    BehavioralConfig,
    BehavioralPolicy,
    BehavioralScorer,
    BehavioralVerdict,
    BehavioralWindow,
    score_log_store,
    write_verdicts,
)
from .challenges import (
    PageKind,
    block_page,
    captcha_page,
    challenge_page,
    classify_page,
    throttle_page,
)
from .cloudflare import CloudflareProxy, CloudflareSettings
from .fingerprint import (
    AUTOMATION_HEADER,
    automation_signals,
    is_automated,
    is_library_client,
)
from .reverse_proxy import ReverseProxy
from .rules import Action, BlockRule, RuleSet

__all__ = [
    "BehavioralConfig",
    "BehavioralPolicy",
    "BehavioralScorer",
    "BehavioralVerdict",
    "BehavioralWindow",
    "score_log_store",
    "write_verdicts",
    "PageKind",
    "block_page",
    "captcha_page",
    "challenge_page",
    "classify_page",
    "throttle_page",
    "CloudflareProxy",
    "CloudflareSettings",
    "AUTOMATION_HEADER",
    "automation_signals",
    "is_automated",
    "is_library_client",
    "ReverseProxy",
    "Action",
    "BlockRule",
    "RuleSet",
]
