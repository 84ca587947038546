"""Block, challenge, and captcha pages -- generation and detection.

Active blockers do not just return bare status codes: they serve
distinctive interstitial pages ("Access denied", "Checking your
browser...", captchas).  The Section 6.3 audit infers Cloudflare
settings from *which kind* of page comes back (Figure 7), and block-page
detection via content differences follows Jones et al. [53].  This
module renders the pages our simulated services serve and provides the
classifiers the measurement side uses.
"""

from __future__ import annotations

import enum

__all__ = [
    "PageKind",
    "block_page",
    "challenge_page",
    "captcha_page",
    "throttle_page",
    "classify_page",
]


class PageKind(enum.Enum):
    """What kind of document a response body looks like."""

    CONTENT = "content"
    BLOCK = "block"
    CHALLENGE = "challenge"
    CAPTCHA = "captcha"
    THROTTLE = "throttle"


_BLOCK_MARKER = "access-denied-error-1020"
_CHALLENGE_MARKER = "browser-challenge-interstitial"
_CAPTCHA_MARKER = "captcha-verification-widget"
_THROTTLE_MARKER = "rate-limit-interstitial"


def block_page(service: str = "Cloudflare", host: str = "") -> str:
    """An "Access denied" page as served by *service*."""
    return (
        "<!DOCTYPE html><html><head><title>Access denied</title></head>"
        f'<body class="{_BLOCK_MARKER}">'
        f"<h1>Sorry, you have been blocked</h1>"
        f"<p>You are unable to access {host or 'this site'}.</p>"
        f"<p>This website is using {service} to protect itself from online "
        "attacks. The action you just performed triggered the security "
        "solution.</p></body></html>"
    )


def challenge_page(service: str = "Cloudflare", host: str = "") -> str:
    """A JavaScript-challenge interstitial ("Checking your browser")."""
    return (
        "<!DOCTYPE html><html><head><title>Just a moment...</title></head>"
        f'<body class="{_CHALLENGE_MARKER}">'
        f"<h1>Checking your browser before accessing {host or 'this site'}</h1>"
        f"<p>{service} needs to review the security of your connection "
        "before proceeding.</p>"
        '<noscript>Please enable JavaScript.</noscript></body></html>'
    )


def captcha_page(service: str = "origin", host: str = "") -> str:
    """A captcha wall, as ArtStation and Carbonmade serve to automation."""
    return (
        "<!DOCTYPE html><html><head><title>Verify you are human</title></head>"
        f'<body class="{_CAPTCHA_MARKER}">'
        "<h1>Verify you are human by completing the action below</h1>"
        f'<div class="captcha-box" data-service="{service}"></div>'
        "</body></html>"
    )


def throttle_page(service: str = "Cloudflare", host: str = "") -> str:
    """A 429 rate-limit interstitial (the behavioral throttle verdict)."""
    return (
        "<!DOCTYPE html><html><head><title>Too many requests</title></head>"
        f'<body class="{_THROTTLE_MARKER}">'
        f"<h1>You are being rate limited</h1>"
        f"<p>{service} has temporarily limited your requests to "
        f"{host or 'this site'}. Please slow down and retry later.</p>"
        "</body></html>"
    )


def classify_page(html: str) -> PageKind:
    """Classify a response body by its interstitial markers.

    Detection keys on the structural markers the generators embed plus
    the user-visible phrases real services use, so the classifier also
    recognizes hand-written lookalikes in tests.
    """
    low = html.lower()
    if _THROTTLE_MARKER in low or "you are being rate limited" in low:
        return PageKind.THROTTLE
    if _CAPTCHA_MARKER in low or "verify you are human" in low:
        return PageKind.CAPTCHA
    if _CHALLENGE_MARKER in low or "checking your browser" in low or "just a moment" in low:
        return PageKind.CHALLENGE
    if _BLOCK_MARKER in low or "you have been blocked" in low or "access denied" in low:
        return PageKind.BLOCK
    return PageKind.CONTENT
