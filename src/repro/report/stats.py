"""Statistical utilities for measurement results.

Measurement papers report proportions over sampled populations; honest
reproductions should carry uncertainty alongside the point estimates,
especially at reduced simulation scale.  This module provides:

* :func:`wilson_interval` -- the Wilson score interval for a binomial
  proportion (well-behaved at small n and extreme p, unlike the normal
  approximation),
* :func:`proportion_summary` -- a formatted "p% [lo, hi]" string used
  in experiment output.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["wilson_interval", "proportion_summary"]

#: The z-score of the 95% level every interval is reported at.
Z_95 = 1.96


def wilson_interval(successes: int, total: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    >>> lo, hi = wilson_interval(50, 100)
    >>> 0.40 < lo < 0.5 < hi < 0.60
    True
    """
    if total <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= total:
        raise ValueError("successes must be within [0, total]")
    z = Z_95
    p_hat = successes / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total))
        / denom
    )
    lo = max(0.0, center - margin)
    hi = min(1.0, center + margin)
    # Pin the boundaries exactly at degenerate counts so the interval
    # always contains the point estimate despite float rounding.
    if successes == 0:
        lo = 0.0
    if successes == total:
        hi = 1.0
    return (lo, hi)


def proportion_summary(successes: int, total: int) -> str:
    """Format a proportion with its 95% Wilson interval, as percentages.

    >>> proportion_summary(107, 1875)
    '5.7% [4.7%, 6.8%]'
    """
    if total <= 0:
        return "n/a"
    lo, hi = wilson_interval(successes, total)
    pct = 100.0 * successes / total
    return f"{pct:.1f}% [{100 * lo:.1f}%, {100 * hi:.1f}%]"
