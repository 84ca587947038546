#!/usr/bin/env python
"""Guarded benchmark runner with a perf-trajectory regression gate.

Runs the tier-1 test suite first (a bench timing from broken code is
worthless), then the full benchmark battery, then diffs this run's
timings against a **rolling baseline** -- the per-bench median over the
last :data:`BASELINE_WINDOW` ``history`` entries in
``benchmarks/output/BENCH_RESULTS.json`` -- and fails when any bench
regressed beyond the threshold.  The median absorbs one-off noisy
runs: a single slow (or fast) entry cannot move the gate the way a
last-run-only comparison would.  Finally it checks every row of
:data:`BUDGETS`, the overhead ceilings and speedup floors the benches
write under ``benchmarks/output/``.

Usage::

    python scripts/bench.py [--threshold 0.25] [--min-seconds 0.05]
                            [--skip-tests] [-k EXPR]

Exit codes: 0 clean, 1 perf regression, 2 tests or benches failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

REPO = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO / "benchmarks" / "output"
RESULTS = OUTPUT / "BENCH_RESULTS.json"


class Budget(NamedTuple):
    """One gated number in a bench's output file under ``OUTPUT``.

    ``direction`` is ``"max"`` (the value may not exceed ``bound``) or
    ``"min"`` (it may not fall below it).  A row with ``min_cpus`` only
    gates when the file's ``cpu_count`` -- the recording host's -- is at
    least that: a single-core host cannot show parallel speedup.
    """

    file: str
    key: str
    bound: float
    direction: str
    label: str
    min_cpus: int = 0


#: Every budget the gate enforces, one row each.
BUDGETS = (
    Budget("OBS_OVERHEAD.json", "implied_overhead_pct", 1.0, "max",
           "disabled telemetry, % of figure2 (bench_obs_overhead)"),
    Budget("CHAOS_OVERHEAD.json", "implied_overhead_pct", 1.0, "max",
           "armed fault plan, % of the snapshot pipeline (bench_chaos_overhead)"),
    Budget("LOG_OVERHEAD.json", "implied_overhead_pct", 1.0, "max",
           "installed log sink, % of the collection crawl (bench_logstore)"),
    Budget("BEHAVIORAL_OVERHEAD.json", "implied_overhead_pct", 1.0, "max",
           "armed behavioral policy, % of a cold battery (bench_behavioral)"),
    Budget("INCREMENTAL.json", "speedup", 3.0, "min",
           "warm incremental battery speedup over cold (bench_incremental)"),
    Budget("SCALE.json", "memory_ratio", 2.0, "max",
           "aggregation memory top-100k/top-10k (bench_scale_strata)"),
    Budget("SCALE.json", "worker_efficiency", 0.7, "min",
           "shard-crawl efficiency at 4 workers (bench_scale_strata)",
           min_cpus=4),
)

#: History entries folded into the rolling-median baseline.
BASELINE_WINDOW = 5


def _load_history() -> list:
    """Every recorded per-run timings map, oldest first."""
    if not RESULTS.exists():
        return []
    try:
        payload = json.loads(RESULTS.read_text())
    except (ValueError, OSError):
        return []
    history = payload.get("history", [])
    if history:
        return [dict(entry.get("timings_seconds", {})) for entry in history]
    # Schema v1 files carry only the merged map; use it as one entry.
    merged = dict(payload.get("timings_seconds", {}))
    return [merged] if merged else []


def _load_last_history() -> dict:
    """This moment's most recent per-run timings."""
    history = _load_history()
    return history[-1] if history else {}


def _median(values: list) -> float:
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2.0


def _rolling_baseline(history: list, window: int = BASELINE_WINDOW) -> dict:
    """Per-nodeid median over the last *window* history entries.

    A bench only contributes entries that actually ran it, so partial
    (``-k``-filtered) runs neither dilute nor erase other benches'
    baselines.
    """
    samples: dict = {}
    for entry in history[-window:]:
        for nodeid, seconds in entry.items():
            samples.setdefault(nodeid, []).append(seconds)
    return {nodeid: _median(values) for nodeid, values in samples.items()}


def _pytest(args: list, env_path: str) -> int:
    command = [sys.executable, "-m", "pytest", *args]
    print(f"$ {' '.join(command)}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.call(command, cwd=REPO, env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fail when a bench slows by more than this "
                             "fraction vs the previous run (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore benches faster than this in both runs "
                             "(timer noise floor, default 0.05s)")
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the tier-1 suite (bench-only iteration)")
    parser.add_argument("-k", dest="keyword", default=None,
                        help="forwarded to pytest -k for the bench run")
    args = parser.parse_args()

    if not args.skip_tests:
        print("== tier-1 tests ==", flush=True)
        if _pytest(["-x", "-q"], env_path=str(REPO / "src")) != 0:
            print("tier-1 tests failed; not benchmarking broken code")
            return 2

    baseline = _rolling_baseline(_load_history())

    print("\n== benchmarks ==", flush=True)
    bench_args = ["benchmarks", "-q"]
    if args.keyword:
        bench_args += ["-k", args.keyword]
    if _pytest(bench_args, env_path=str(REPO / "src")) != 0:
        print("benchmark run failed")
        return 2

    current = _load_last_history()
    if not current:
        print("no timings recorded; nothing to compare")
        return 0

    print(f"\n== perf trajectory (vs median of last "
          f"{BASELINE_WINDOW} runs) ==")
    regressions = []
    width = max((len(k) for k in current), default=0)
    for nodeid in sorted(current):
        now = current[nodeid]
        prev = baseline.get(nodeid)
        if prev is None:
            print(f"  {nodeid:<{width}}  {now:8.3f}s  (new)")
            continue
        delta = (now - prev) / prev if prev > 0 else 0.0
        flag = ""
        if max(now, prev) >= args.min_seconds and delta > args.threshold:
            flag = "  <-- REGRESSION"
            regressions.append((nodeid, prev, now, delta))
        print(f"  {nodeid:<{width}}  {now:8.3f}s  "
              f"(baseline {prev:.3f}s, {delta:+.0%}){flag}")

    budgets_ok = check_budgets()

    if regressions:
        print(f"\n{len(regressions)} bench(es) regressed more than "
              f"{args.threshold:.0%}:")
        for nodeid, prev, now, delta in regressions:
            print(f"  {nodeid}: {prev:.3f}s -> {now:.3f}s ({delta:+.0%})")
        return 1
    if not budgets_ok:
        return 1
    print("\nno perf regressions")
    return 0


def check_budgets(output_dir: pathlib.Path = OUTPUT) -> bool:
    """Print one line per :data:`BUDGETS` row; False when any row fails.

    An absent file is skipped: its bench did not run.  A file that
    exists but cannot be read, or lacks the row's key, fails the gate,
    because a gate that cannot run counts as a regression.
    """
    print("\n== budgets ==")
    ok = True
    for budget in BUDGETS:
        path = output_dir / budget.file
        if not path.exists():
            print(f"  {budget.label}: skipped, no {budget.file}")
            continue
        try:
            payload = json.loads(path.read_text())
            value = float(payload[budget.key])
            cpus = int(payload["cpu_count"]) if budget.min_cpus else 0
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"  {budget.label}: cannot read {budget.key!r} from "
                  f"{path}: {exc!r}  <-- GATE FAILED")
            ok = False
            continue
        line = f"  {budget.label}: {value:.3f} ({budget.direction} {budget.bound:g})"
        if cpus < budget.min_cpus:
            print(f"{line}; not gated on {cpus} cpu(s)")
            continue
        if value > budget.bound if budget.direction == "max" else value < budget.bound:
            print(f"{line}  <-- OUT OF BUDGET")
            ok = False
        else:
            print(line)
    return ok


if __name__ == "__main__":
    sys.exit(main())
