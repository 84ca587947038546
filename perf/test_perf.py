"""Smoke tests for the benchmark: ``python -m pytest perf -q``.

One repetition of each workload at the 40-site config, plus one
paper-scale ``strata_cold`` repetition against a corrupted pin.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: ``BENCHMARK.json``'s workloads plus those ``run.py`` runs only on request.
ALL_WORKLOADS = list(bench_run.WORKLOADS)


def run(args, root=ROOT, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(root / "perf" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload once untraced and once traced, at the tiny config."""
    out = tmp_path_factory.mktemp("traced")
    code, line, proc = run(["--tiny", "--reps", "1", "--trace", "--json", str(out / "run.json"),
                            "--out", str(out), *(f"--workload={name}" for name in ALL_WORKLOADS)])
    assert code == 0, proc.stderr
    return line, json.loads((out / "run.json").read_text()), out


def test_result_line_has_every_end_to_end_metric():
    code, line, proc = run(["--workload", "strata_cold", "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--tiny"])
    assert code == 0, proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    for metric in BENCH["end_to_end"]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0


def test_every_per_layer_metric_is_emitted(traced):
    line, _, _ = traced
    for workload in WORKLOADS:
        for metric in BENCH["per_layer"]:
            assert line["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]


def test_traced_outputs_match_untraced(traced):
    _, payload, out = traced
    for workload in ALL_WORKLOADS:
        result = payload["workloads"][workload]
        assert result["failed"] == 0
        assert result["comparisons"] > 0 and result["mismatched"] == []
        assert result["ledger"]["metrics"]["runtime.self_sum_frac"] == pytest.approx(1.0, abs=0.1)
    ledger = json.loads((out / "ledger.json").read_text())
    assert set(ledger) == set(ALL_WORKLOADS)
    first_span = json.loads((out / "spans.jsonl").open().readline())
    assert {"run", "name", "start", "end", "parent"} <= set(first_span)


def test_fastest_parts_takes_each_part_at_its_fastest():
    assert bench_run.fastest_parts([{"world": 1.0, "rest": 3.0}, {"world": 2.0, "rest": 2.0}]) == 3.0


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
        shutil.copytree(ROOT / "results", tmp_path / "results")
    return tmp_path


def test_corrupted_reference_fails_the_run(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    pinned = root / "results" / "figure3.txt"
    pinned.write_text(pinned.read_text() + "corrupted\n")
    code, line, _ = run(["--workload", "strata_cold", "--reps", "1", "--json", str(root / "run.json")],
                        root=root)
    assert code == 1 and line["correct"] is False
    result = json.loads((root / "run.json").read_text())["workloads"]["strata_cold"]
    assert result["metrics"]["mismatch_frac"]["value"] > 0
    assert result["mismatched"] == ["text:figure3@top-100k"]


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    code, line, _ = run(["--workload", "battery_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                        root=root, timeout=170)
    assert code != 0 and line is None
