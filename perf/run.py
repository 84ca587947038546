"""End-to-end benchmark of the reproduction pipeline.

Usage (from the repository root)::

    python3 perf/run.py [--workload NAME ...] [--seed 42] [--reps 5]
                        [--seconds S] [--trace [0|1]] [--json OUT] [--out DIR]
                        [--tiny]

Each repetition runs in a fresh child interpreter (``perf/child.py``);
only one child is alive at a time and it runs the program with
``workers=1``.  The loop is closed with one caller: the next repetition
starts when the previous one has ended.  Every output is checked
against the pinned ``results/*.txt`` (seed 42), across repetitions and
across paths.  One line per (workload, metric) gives the reported
value (the fastest the run saw, see :func:`summary`), median, quartiles
and sample count.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` names, each at its reported value.  The exit code
is 1 when any repetition failed or any output mismatched, 2 on a usage
or checkout error.

Scratch files live under ``.perf-work/`` in the checkout and are
removed before exit.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"

#: The seed at which ``results/*.txt`` were generated.
PINNED_SEED = 42

#: ``name: (prep phase, repetition phases, work dir shared by reps)``.
#: ``strata_cold``'s prep computes classic-path reference texts and runs
#: only when no pinned texts apply.
WORKLOADS = {
    "battery_cold": (None, ("battery_cold",), False),
    "battery_planes": (None, ("battery_planes", "planes_reopen"), False),
    "battery_warm": ("battery_warm_prep", ("battery_warm", "warm_reopen"), True),
    "strata_cold": ("reference", ("strata_cold", "strata_reopen"), False),
}

#: End-to-end metrics and their units, in report order.
E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "reopen_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bytes_written": "B",
    "failed_frac": "ratio",
    "mismatch_frac": "ratio",
    "prep_s": "s",
}

#: Metrics reported at their median rather than their fastest sample.
MEDIAN_METRICS = ("setup_s",)

#: With ``--seconds``, repetitions continue while the next one is
#: expected to end within the budget, but never fewer than this.  Two
#: keeps a run on a slow host close to its time budget.
MIN_REPS = 2

#: Total wall-clock allowance of a ``--seconds`` invocation; every child
#: is killed before it.
DEADLINE_S = 175.0
CHILD_TIMEOUT_S = 900.0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".experiment_s." in name:
        return "s"
    if name.endswith(("_frac", "_per_body")):
        return "ratio"
    return "count"


def fastest_parts(parts: List[Dict[str, float]]) -> float:
    """The sum, over the parts of a timed call, of each part's fastest
    repetition."""
    names = set().union(*parts)
    return sum(min(rep[name] for rep in parts if name in rep) for name in names)


def summary(name: str, values: List[float], parts: Optional[List[Dict[str, float]]] = None) -> Dict[str, object]:
    """A metric's reported value with its distribution.

    On a shared host, interference only ever slows the program down, in
    episodes from under a second to minutes long.  The value is
    therefore the fastest the run saw: for a time split into parts (one
    per experiment, the world build and the rest of the call), the sum
    of each part's fastest repetition, so an episode shorter than a
    repetition costs only the parts it overlapped;
    for :data:`MEDIAN_METRICS`, the median; for any other metric, the
    minimum.  The median and quartiles of the whole samples are kept
    beside it.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    if parts:
        value = fastest_parts(parts)
    elif name in MEDIAN_METRICS:
        value = statistics.median(ordered)
    else:
        value = ordered[0]
    return {"value": value, "unit": E2E_UNITS[name], "median": median, "q1": q1, "q3": q3, "n": len(ordered)}


class Oracle:
    """Byte-identity checks over ``[id, sha256]`` observations.

    An id's expected digest is its pinned ``results/<base>.txt`` when a
    pinned directory applies (``figure2@top-100k`` pins to
    ``figure2.txt``), else the first digest seen for it -- from a prep
    phase or the first repetition.  Every later observation is one
    comparison.
    """

    def __init__(self, pinned: Optional[Path]) -> None:
        self.pinned = pinned
        self.expected: Dict[str, str] = {}
        self.pinned_ids: List[str] = []
        self.comparisons = 0
        self.mismatched: List[str] = []

    def _pin(self, oid: str) -> Optional[str]:
        if self.pinned is None or not oid.startswith("text:"):
            return None
        path = self.pinned / (oid[len("text:"):].split("@")[0] + ".txt")
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None

    def check(self, observations) -> None:
        for oid, digest in observations:
            if oid not in self.expected:
                pinned = self._pin(oid)
                if pinned is None:
                    self.expected[oid] = digest
                    continue
                self.expected[oid] = pinned
                self.pinned_ids.append(oid)
            self.comparisons += 1
            if digest != self.expected[oid]:
                self.mismatched.append(oid)

    @property
    def mismatch_frac(self) -> float:
        return len(self.mismatched) / self.comparisons if self.comparisons else 0.0


class Runner:
    """Spawns children one at a time and aggregates their reports."""

    def __init__(self, args, work_root: Path) -> None:
        self.args = args
        self.work_root = work_root
        self.deadline = time.monotonic() + DEADLINE_S if args.seconds else None
        self.spans_path = None
        if args.trace and args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            self.spans_path = Path(args.out) / "spans.jsonl"
            self.spans_path.write_text("")

    def spawn(self, workload: str, phase: str, rep: int, work: Path, trace: bool) -> Optional[dict]:
        """Run one child; its result, or None when it failed."""
        work.mkdir(parents=True, exist_ok=True)
        tmp = self.work_root / "tmp"
        tmp.mkdir(exist_ok=True)
        result = work / f"{phase}-{rep}{'-trace' if trace else ''}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = str(self.args.seed % 2**32)
        env["TMPDIR"] = str(tmp)
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, min(timeout, self.deadline - time.monotonic()))
        spec = {
            "workload": workload, "phase": phase, "rep": rep, "work": str(work),
            "seed": self.args.seed, "tiny": self.args.tiny, "trace": trace,
            "result": str(result), "spans": self.spans_path is not None,
            "spawned": time.monotonic(),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(PERF / "child.py"), json.dumps(spec)],
                cwd=work, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"{workload}/{phase} rep {rep}: timed out after {timeout:.0f}s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            print(f"{workload}/{phase} rep {rep}: exit {proc.returncode}\n{tail}", file=sys.stderr)
            return None
        spans = result.with_suffix(".spans.jsonl")
        if self.spans_path is not None and spans.is_file():
            with open(self.spans_path, "a", encoding="utf-8") as sink, open(spans, encoding="utf-8") as source:
                shutil.copyfileobj(source, sink)
        return json.loads(result.read_text(encoding="utf-8"))

    def repetition(self, workload: str, rep: int, trace: bool) -> Optional[List[dict]]:
        _, phases, shared = WORKLOADS[workload]
        work = self.work_root / workload / ("shared" if shared else f"rep-{rep}{'-trace' if trace else ''}")
        children = []
        for phase in phases:
            child = self.spawn(workload, phase, rep, work, trace)
            if child is None:
                return None
            children.append(child)
        if not shared:
            shutil.rmtree(work, ignore_errors=True)
        return children

    def more(self, done: int, durations: List[float], started: float) -> bool:
        if not self.args.seconds:
            return done < self.args.reps
        if done < MIN_REPS:
            return True
        elapsed = time.monotonic() - started
        return elapsed + statistics.median(durations) <= self.args.seconds

    def workload(self, name: str) -> dict:
        prep, _, shared = WORKLOADS[name]
        pinned = ROOT / "results" if self.args.seed == PINNED_SEED and not self.args.tiny else None
        oracle = Oracle(pinned)
        out = {"attempted": 0, "failed": 0}
        samples = defaultdict(list)
        parts = defaultdict(list)
        if prep == "reference" and pinned is not None:
            prep = None
        if prep is not None:
            out["attempted"] += 1
            child = self.spawn(name, prep, 0, self.work_root / name / ("shared" if shared else "prep"), False)
            if child is None:
                out["failed"] += 1
                return self._finish(out, samples, parts, oracle)
            oracle.check(child["outputs"])
            samples["setup_s"].append(child["setup_s"])
            if "prep_s" in child["metrics"]:
                samples["prep_s"].append(child["metrics"]["prep_s"])
        durations: List[float] = []
        started = time.monotonic()
        while self.more(len(durations), durations, started):
            begun = time.monotonic()
            out["attempted"] += 1
            children = self.repetition(name, len(durations), trace=False)
            durations.append(time.monotonic() - begun)
            if children is None:
                out["failed"] += 1
                continue
            measured = {}
            for child in children:
                oracle.check(child["outputs"])
                measured.update(child["metrics"])
                samples["setup_s"].append(child["setup_s"])
                for metric, split in child["parts"].items():
                    parts[metric].append(split)
            for metric in ("wall_s", "cpu_s", "reopen_s", "peak_rss_mb", "bytes_written"):
                if metric in measured:
                    samples[metric].append(measured[metric])
        if self.args.trace:
            out["attempted"] += 1
            children = self.repetition(name, len(durations), trace=True)
            if children is None:
                out["failed"] += 1
            else:
                for child in children:
                    oracle.check(child["outputs"])
                out["ledger"] = self._ledger(name, children, samples["wall_s"])
        return self._finish(out, samples, parts, oracle)

    def _finish(self, out: dict, samples, parts, oracle: Oracle) -> dict:
        samples["failed_frac"] = [out["failed"] / out["attempted"]]
        samples["mismatch_frac"] = [oracle.mismatch_frac]
        out["comparisons"] = oracle.comparisons
        out["pinned"] = len(oracle.pinned_ids)
        out["mismatched"] = sorted(set(oracle.mismatched))
        out["samples"] = {k: v for k, v in samples.items() if v}
        out["metrics"] = {k: summary(k, v, parts.get(k)) for k, v in out["samples"].items()}
        return out

    def _ledger(self, name: str, children: List[dict], untraced_wall: List[float]) -> dict:
        from ledger import combine

        merged: Dict[str, float] = {}
        for child in children:
            merged.update(child["metrics"])
        metrics = combine([child["ledger"] for child in children])
        for child in children:
            for key, seconds in child["timings"].items():
                metrics[f"report.experiment_s.{key}"] = seconds
        if name in ("battery_warm", "battery_planes"):
            metrics["measure.hit_run_s"] = merged["reopen_s"]
        if "log_records" in merged:
            metrics["net.log_records"] = merged["log_records"]
        traced_wall = merged["wall_s"]
        call_self = next(c["call_self_s"] for c in children if c.get("call_self_s") is not None)
        metrics["runtime.self_sum_frac"] = call_self / traced_wall
        if untraced_wall:
            metrics["runtime.trace_overhead_frac"] = traced_wall / statistics.median(untraced_wall) - 1
        return {
            "metrics": metrics,
            "traced_wall_s": traced_wall,
            "boundaries": [c["ledger"]["boundaries"] for c in children],
            "missing": sorted({m for c in children for m in c["ledger"]["missing"]}),
        }


# -- reporting -----------------------------------------------------------------


def print_table(results: Dict[str, dict]) -> None:
    print(f"{'workload':<16}{'metric':<16}{'unit':<7}{'value':>14}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, out in results.items():
        for metric in E2E_UNITS:
            row = out["metrics"].get(metric)
            if row is not None:
                print(f"{name:<16}{metric:<16}{row['unit']:<7}{row['value']:>14.6g}{row['median']:>14.6g}"
                      f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}")
        print(f"{name:<16}outputs: {out['comparisons']} comparisons, {out['pinned']} pinned ids, "
              f"{len(out['mismatched'])} mismatched {' '.join(out['mismatched'])}")


def print_ledger(results: Dict[str, dict]) -> None:
    for name, out in results.items():
        ledger = out.get("ledger")
        if ledger is None:
            continue
        metrics = ledger["metrics"]
        wall = ledger["traced_wall_s"]
        print(f"\nledger {name} (traced wall_s {wall:.3f} s, "
              f"trace overhead {metrics.get('runtime.trace_overhead_frac', float('nan')):+.1%}, "
              f"timed-call self sum {metrics['runtime.self_sum_frac']:.1%} of traced wall_s)")
        for key in sorted(metrics):
            print(f"  {key:<44}{layer_unit(key):<7}{metrics[key]:>14.6g}")
        if ledger["missing"]:
            print(f"  boundaries not found: {', '.join(ledger['missing'])}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(results: Dict[str, dict], trace: bool) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` names."""
    bench = load_benchmark()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    prefix = len(results) > 1
    metrics = {}
    for name, out in results.items():
        for entry in wanted:
            if trace:
                value = out.get("ledger", {}).get("metrics", {}).get(entry["name"])
            else:
                value = out["metrics"].get(entry["name"], {}).get("value")
            if value is not None:
                key = f"{name}.{entry['name']}" if prefix else entry["name"]
                metrics[key] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": all(not out["mismatched"] and not out["failed"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": metrics,
    }


def write_outputs(args, results: Dict[str, dict]) -> None:
    if args.trace and args.out:
        ledgers = {name: out["ledger"] for name, out in results.items() if "ledger" in out}
        (Path(args.out) / "ledger.json").write_text(json.dumps(ledgers, indent=2, sort_keys=True) + "\n")
    if args.json:
        payload = {"seed": args.seed, "tiny": args.tiny, "trace": bool(args.trace), "workloads": results}
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: those BENCHMARK.json lists)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="PopulationConfig seed (outputs are pinned at 42)")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help=f"instead of --reps, repeat while the next repetition ends within "
                             f"this many seconds (at least {MIN_REPS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced repetition per workload; report the layer ledger")
    parser.add_argument("--json", help="write every sample and summary here")
    parser.add_argument("--out", help="with --trace: write ledger.json and spans.jsonl here")
    parser.add_argument("--tiny", action="store_true",
                        help="a 40-site world, for smoke tests (skips the pinned-file check)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated benchmark still kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".perf-work" / str(os.getpid())
    runner = Runner(args, work_root)
    names = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    try:
        results = {name: runner.workload(name) for name in names}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    print_table(results)
    if args.trace:
        print_ledger(results)
    write_outputs(args, results)
    line = result_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
