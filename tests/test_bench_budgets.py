"""The bench gate's budgets table (``scripts/bench.py``) over a temp dir.

A budget file within its bound passes and one out of it fails.  A file
that exists but cannot be read, or lacks the row's key, fails too: a
gate that cannot run counts as a regression.  Only an absent file, whose
bench did not run, is skipped.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, name, payload):
    (directory / name).write_text(
        payload if isinstance(payload, str) else json.dumps(payload)
    )


def test_within_budget_passes(bench, tmp_path, capsys):
    _write(tmp_path, "OBS_OVERHEAD.json", {"implied_overhead_pct": 0.5})
    _write(tmp_path, "INCREMENTAL.json", {"speedup": 40.0})
    assert bench.check_budgets(tmp_path)
    assert "OUT OF BUDGET" not in capsys.readouterr().out


def test_over_budget_fails(bench, tmp_path, capsys):
    _write(tmp_path, "OBS_OVERHEAD.json", {"implied_overhead_pct": 1.5})
    assert not bench.check_budgets(tmp_path)
    assert "OUT OF BUDGET" in capsys.readouterr().out
    _write(tmp_path, "OBS_OVERHEAD.json", {"implied_overhead_pct": 0.5})
    _write(tmp_path, "INCREMENTAL.json", {"speedup": 2.0})  # under a floor
    assert not bench.check_budgets(tmp_path)


def test_corrupt_file_fails(bench, tmp_path, capsys):
    _write(tmp_path, "CHAOS_OVERHEAD.json", '{"implied_overhead_pct": 0.')
    assert not bench.check_budgets(tmp_path)
    assert "GATE FAILED" in capsys.readouterr().out


def test_missing_key_fails(bench, tmp_path, capsys):
    _write(tmp_path, "SCALE.json", {"cpu_count": 8, "worker_efficiency": 0.9})
    assert not bench.check_budgets(tmp_path)  # no memory_ratio
    assert "GATE FAILED" in capsys.readouterr().out
    _write(tmp_path, "SCALE.json", {"cpu_count": 8, "memory_ratio": None,
                                    "worker_efficiency": 0.9})
    assert not bench.check_budgets(tmp_path)


def test_absent_file_is_skipped(bench, tmp_path, capsys):
    assert bench.check_budgets(tmp_path)
    out = capsys.readouterr().out
    assert out.count("skipped") == len(bench.BUDGETS)


def test_cpu_precondition_gates_only_on_enough_cpus(bench, tmp_path):
    scale = {"memory_ratio": 1.2, "worker_efficiency": 0.3}
    _write(tmp_path, "SCALE.json", dict(scale, cpu_count=2))
    assert bench.check_budgets(tmp_path)
    _write(tmp_path, "SCALE.json", dict(scale, cpu_count=4))
    assert not bench.check_budgets(tmp_path)
