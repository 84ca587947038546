"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perf/compare.py PARENT CHANGE

PARENT and CHANGE are each a file written by ``perf/run.py --json`` or a
directory of them; a directory's files are read in name order and
their samples concatenated, so the i-th parent sample pairs with the
i-th change sample.  Run the two commits alternately to make those
pairs alternate.

Each (workload, end-to-end metric) gets one row and one verdict, with
the bounds and directions from ``BENCHMARK.json``:

* **better**: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* **unresolved**: otherwise, when either side's interquartile range is
  wider than the bound, unless every change sample beats every parent
  sample (then **unchanged**);
* **worse**: otherwise, when the change's median is worse than the
  parent's by more than the bound;
* **unchanged**: otherwise.

``failed_frac`` and ``mismatch_frac`` have no tolerance: any rise is
worse.  The exit code is 1 when any row is worse, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Metrics where any rise is a regression.
ZERO_TOLERANCE = ("failed_frac", "mismatch_frac")


def load(path: Path) -> dict:
    """``{workload: {metric: [samples]}}`` from one file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"no run files under {path}")
    merged: dict = {}
    for file in files:
        for workload, out in json.loads(file.read_text(encoding="utf-8"))["workloads"].items():
            for metric, values in out["samples"].items():
                merged.setdefault(workload, {}).setdefault(metric, []).extend(values)
    return merged


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, bound: float, lower_is_better: bool):
    """The row's verdict and the change's wins over its pairs."""
    def beats(a, b):
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and beats(mc, mp) and abs(mc - mp) > p3 - p1:
        return "better", wins, len(pairs)
    spread = max((p3 - p1) / mp if mp else 0.0, (c3 - c1) / mc if mc else 0.0)
    if spread > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "unchanged", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    worse_by = (mc - mp) if lower_is_better else (mp - mc)
    if worse_by > bound * abs(mp):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        parent, change = load(args.parent), load(args.change)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    metrics = [(m["name"], m["unit"], m["bound"], m["better"] == "lower") for m in bench["end_to_end"]]
    metrics += [(name, "ratio", 0.0, True) for name in ZERO_TOLERANCE]
    print(f"{'workload':<16}{'metric':<15}{'unit':<6}{'parent median [q1, q3] n':>40}"
          f"{'change median [q1, q3] n':>40}{'delta':>9}{'wins':>8}  verdict")
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for name, unit, bound, lower in metrics:
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            if name in ZERO_TOLERANCE:
                label, wins, n = ("worse" if max(c) > max(p) else "unchanged"), 0, 0
            else:
                label, wins, n = verdict(p, c, bound, lower)
            worse += label == "worse"
            mp, mc = statistics.median(p), statistics.median(c)
            delta = f"{(mc - mp) / mp:+.1%}" if mp else "n/a"
            cells = []
            for values, median in ((p, mp), (c, mc)):
                q1, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            print(f"{workload:<16}{name:<15}{unit:<6}{cells[0]:>40}{cells[1]:>40}"
                  f"{delta:>9}{f'{wins}/{n}':>8}  {label}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
