"""Shared fixtures for the benchmark harness.

The heavy simulated worlds (the longitudinal population with its
fifteen crawled snapshots, and the audit-tier population) are built
once per session and shared across benches; each bench then times its
own measurement pipeline and asserts the paper's bands.

Every bench writes its rendered artifact (the table/figure text the
paper reports) to ``benchmarks/output/<experiment>.txt`` so results are
inspectable after a run regardless of pytest capture settings.  The
harness additionally records per-bench wall-clock timings to a
machine-readable ``benchmarks/output/BENCH_RESULTS.json`` so future
changes have a perf trajectory to regress against.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import time

import pytest

from repro.report.longitudinal import (
    ExperimentResult,
    LongitudinalBundle,
    build_longitudinal_bundle,
)
from repro.web.population import PopulationConfig
from repro.web.worldstore import shared_world_store

#: The default bench scale: a 1:25 model of the paper's setting.
BENCH_CONFIG = PopulationConfig()

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

BENCH_RESULTS_PATH = OUTPUT_DIR / "BENCH_RESULTS.json"

#: History entries kept in BENCH_RESULTS.json (oldest dropped first).
HISTORY_LIMIT = 50

#: Wall-clock call durations per bench nodeid, collected as tests run.
_TIMINGS: dict = {}


def _git_commit() -> str:
    """The short hash of HEAD, or ``"unknown"`` outside a git checkout.

    Stamped into every history entry so a perf regression in the
    trajectory can be attributed to the commit that introduced it.
    """
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        ).strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@pytest.fixture(scope="session")
def longitudinal_bundle() -> LongitudinalBundle:
    """The Section 3 world with all fifteen snapshots crawled.

    Served from the content-addressed world store, so the bundle and
    the audit population share one frozen world build per session.
    """
    return build_longitudinal_bundle(BENCH_CONFIG, store=shared_world_store())


@pytest.fixture(scope="session")
def audit_population():
    """The population whose audit tier Section 6 / 2.2 benches probe.

    The same frozen world the longitudinal bundle holds, not a copy:
    it rejects every write, so no bench can change what another reads.
    """
    return shared_world_store().population(BENCH_CONFIG)


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def record_timing():
    """Record a precisely measured duration under an explicit bench key.

    Benches that time several distinct regimes inside one test (e.g.
    cold-start vs warm-incremental reproduction) use this to give each
    regime its own key in ``BENCH_RESULTS.json``, so the rolling-median
    regression gate in ``scripts/bench.py`` never mixes regimes whose
    costs differ by orders of magnitude.
    """

    def _record(key: str, seconds: float) -> None:
        _TIMINGS[key] = round(seconds, 6)

    return _record


def save_artifact(directory: pathlib.Path, result: ExperimentResult) -> None:
    """Write one experiment's rendered text under benchmarks/output/."""
    path = directory / f"{result.experiment_id}.txt"
    lines = [result.title, "", result.text, "", "metrics:"]
    for name, value in sorted(result.metrics.items()):
        lines.append(f"  {name} = {value:.4f}")
    path.write_text("\n".join(lines) + "\n")


# -- machine-readable timing trajectory ----------------------------------------


def pytest_runtest_logreport(report) -> None:
    """Collect the measurement-phase (call) wall clock of every bench."""
    if report.when == "call" and report.passed:
        _TIMINGS[report.nodeid] = round(report.duration, 6)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Merge this run's timings into ``BENCH_RESULTS.json``.

    The file maps bench nodeids to their most recent wall-clock call
    duration (seconds) plus run metadata.  Timings from benches not
    selected in this run are preserved, so partial runs refine rather
    than erase the trajectory; additionally every run appends a
    ``history`` entry carrying *only its own* timings, giving
    ``scripts/bench.py`` a per-run trajectory to regress against.
    """
    if not _TIMINGS:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    previous: dict = {}
    if BENCH_RESULTS_PATH.exists():
        try:
            previous = json.loads(BENCH_RESULTS_PATH.read_text())
        except (ValueError, OSError):
            previous = {}
    timings = dict(previous.get("timings_seconds", {}))
    timings.update(_TIMINGS)
    commit = _git_commit()
    history = list(previous.get("history", []))
    history.append(
        {
            "recorded_at_unix": round(time.time(), 3),
            "git_commit": commit,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timings_seconds": dict(sorted(_TIMINGS.items())),
        }
    )
    payload = {
        "schema_version": 2,
        "recorded_at_unix": round(time.time(), 3),
        "git_commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timings_seconds": dict(sorted(timings.items())),
        "history": history[-HISTORY_LIMIT:],
    }
    BENCH_RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
