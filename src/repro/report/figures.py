"""Text rendering of time series ("figures").

The paper's figures are line charts over Common Crawl snapshots.  In a
terminal-first reproduction the equivalent artifact is (a) the exact
data series as CSV, and (b) a quick-look ASCII chart so the shape --
surge, plateau, uptick -- is visible in bench output without plotting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["series_to_csv", "ascii_chart"]

Number = float
Series = Sequence[Tuple[str, Number]]


def series_to_csv(series: Dict[str, Series]) -> str:
    """Render named series sharing an x-axis as CSV.

    Series are joined on x labels in first-series order; missing points
    render empty.

    >>> print(series_to_csv({"a": [("t0", 1.0), ("t1", 2.0)]}))
    x,a
    t0,1.0
    t1,2.0
    """
    names = list(series)
    x_labels: List[str] = []
    for name in names:
        for x, _ in series[name]:
            if x not in x_labels:
                x_labels.append(x)
    lookup = {
        name: {x: y for x, y in series[name]} for name in names
    }
    lines = ["x," + ",".join(names)]
    for x in x_labels:
        cells = [x]
        for name in names:
            value = lookup[name].get(x)
            cells.append("" if value is None else repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines)


def ascii_chart(series: Dict[str, Series]) -> str:
    """A horizontal-bar ASCII chart, one row per (x, series) pair: bars
    up to 50 characters, x labels cut or padded to 10.

    >>> chart = ascii_chart({"pct": [("2023-01", 5.0), ("2023-02", 10.0)]})
    >>> "2023-02" in chart
    True
    """
    peak = 0.0
    for points in series.values():
        for _, y in points:
            peak = max(peak, float(y))
    if peak <= 0:
        peak = 1.0
    lines: List[str] = []
    markers = "#*o+x%@"
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        lines.append(f"{name} [{marker}] (max {peak:.2f})")
        for x, y in points:
            bar = marker * int(round(50 * float(y) / peak))
            lines.append(f"  {str(x)[:10].ljust(10)} |{bar} {float(y):.2f}")
    return "\n".join(lines)
