"""One phase of one benchmark repetition, in a fresh interpreter.

``perf/run.py`` starts this script once per phase with a JSON spec as
its only argument and reads the JSON result it writes to
``spec["result"]``.  The script times only calls into the program's
public functions (``run_all``, ``run_strata``, ``LogStore.open`` and
``verify``) and reports, per phase:

* ``setup_s``: from the parent's spawn to the first timed call;
* ``metrics``: wall and CPU seconds and peak RSS of the timed call,
  bytes written, and the reopen time;
* ``parts``: for each time taken from one run report, that time split
  into the report's own experiment and world-build spans plus the rest;
* ``outputs``: ``[id, sha256]`` for every result text (as
  ``results/<id>.txt`` holds it) and artifact the phase produced;
* ``ledger``: the per-layer ledger, in the traced pass, whose spans go
  to ``<result>.spans.jsonl`` when the parent asks for them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: All-hit reopens per repetition; their median is the repetition's
#: ``reopen_s``, which steadies a timing of about 0.1 s.
HIT_RUNS = 5

#: Artifacts of the planes workload that must be byte-stable across
#: repetitions (``TRACE.jsonl`` carries wall-clock stamps, so it is not).
STABLE_ARTIFACTS = ("METRICS.json", "SERIES.json", "FEATURES.json", "BEHAVIORAL.json")

#: The stratum ``strata_cold`` runs; at the default config it is the
#: default world itself, so its texts equal the battery's.
STRATUM = "top-100k"
STRATA_KEYS = ("figure2", "figure3", "figure4", "table3")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    """This interpreter's peak resident set, in MiB.

    ``ru_maxrss`` survives ``execve`` and so starts at the parent's
    peak; the kernel's per-address-space high-water mark does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _parts(report, wall: float) -> dict:
    """*wall* split along the program's own spans: one part per
    experiment, one for the world build and one for the rest."""
    parts = {f"experiment:{key}": seconds for key, seconds in report.timings_seconds.items()}
    parts["world"] = report.world_seconds
    parts["rest"] = wall - sum(parts.values())
    return parts


def _disk_bytes(root: Path) -> int:
    """On-disk bytes under *root*, without the timestamped trace."""
    return sum(
        path.stat().st_size
        for path in root.rglob("*")
        if path.is_file() and path.name != "TRACE.jsonl"
    )


class Phase:
    """Timing, output and ledger bookkeeping for one child."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.work = Path(spec["work"])
        self.rep = spec["rep"]
        self.setup_s = None
        self.metrics = {}
        self.parts = {}
        self.outputs = []
        self.ledger = None
        self.call_self_s = None
        self.timings = {}

    def timed(self, function, *args, **kwargs):
        """Call *function*; return its value and wall, CPU, peak RSS."""
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        value = function(*args, **kwargs)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return value, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}

    def call(self, function, *args, **kwargs):
        """The repetition's timed call, which returns a run report: sets
        wall, CPU and peak RSS, and the parts of the wall time."""
        value, measured = self.timed(function, *args, **kwargs)
        self.metrics.update(measured)
        self.parts["wall_s"] = _parts(value, measured["wall_s"])
        if self.ledger is not None:
            self.call_self_s = self.ledger.self_seconds()
        return value

    def record(self, report, rename=None) -> int:
        """Note every result text of *report*; return their bytes."""
        total = 0
        for result in report.results:
            data = (result.text + "\n").encode("utf-8")
            name = (rename or {}).get(result.experiment_id, result.experiment_id)
            self.outputs.append([f"text:{name}", _digest(data)])
            total += len(data)
        return total

    def reopen(self, function, check) -> None:
        """Median of :data:`HIT_RUNS` timed calls to *function*."""
        seconds = []
        for _ in range(HIT_RUNS):
            value, measured = self.timed(function)
            seconds.append(measured["wall_s"])
            check(value)
        self.metrics["reopen_s"] = statistics.median(seconds)

    def payload(self) -> dict:
        out = {
            "setup_s": self.setup_s,
            "metrics": self.metrics,
            "parts": self.parts,
            "outputs": self.outputs,
            "timings": self.timings,
        }
        if self.ledger is not None:
            out["ledger"] = self.ledger.snapshot()
            out["call_self_s"] = self.call_self_s
        return out


# -- phases ------------------------------------------------------------------
#
# Each phase receives the Phase, the generated config and the program's
# entry points; repetitions differ only in their work directories.


def battery_cold(phase, config, api):
    """The full battery over a fresh world store."""
    report = phase.call(api.run_all, config, workers=1, store=api.WorldStore())
    phase.timings = dict(report.timings_seconds)
    phase.metrics["bytes_written"] = phase.record(report)


def battery_planes(phase, config, api):
    """The battery with telemetry, log store and a fresh incremental store."""
    telemetry = phase.work / "telemetry"
    report = phase.call(
        api.run_all, config, workers=1, store=api.WorldStore(), telemetry_dir=telemetry,
        log_dir=phase.work / "logs", incremental=phase.work / "incremental",
    )
    phase.timings = dict(report.timings_seconds)
    phase.metrics["bytes_written"] = phase.record(report) + _disk_bytes(phase.work)
    for name in STABLE_ARTIFACTS:
        phase.outputs.append([f"artifact:{name}", _digest((telemetry / name).read_bytes())])


def planes_reopen(phase, config, api):
    """Serve the battery from the incremental store ``battery_planes``
    filled, then open and verify its log store."""

    def reopen():
        hit = api.run_all(config, workers=1, store=api.WorldStore(), incremental=phase.work / "incremental")
        with api.LogStore.open(phase.work / "logs") as store:
            store.verify()
            phase.metrics["log_records"] = store.n_records
        return hit

    phase.reopen(reopen, phase.record)


def _figure2_overrides(require_explicit: bool):
    overrides = {"figure2": {"require_explicit": require_explicit}}
    rename = None if require_explicit else {"figure2": "figure2[require_explicit=false]"}
    return overrides, rename


def battery_warm_prep(phase, config, api):
    """Fill the shared incremental store: one cold run, then one warm-up
    at each value of ``figure2.require_explicit``."""
    incremental = phase.work / "incremental"
    start = time.perf_counter()
    phase.record(api.run_all(config, workers=1, store=api.WorldStore(), incremental=incremental))
    for value in (True, False):
        overrides, rename = _figure2_overrides(value)
        report = api.run_all(
            config, workers=1, store=api.WorldStore(),
            incremental=incremental, param_overrides=overrides,
        )
        phase.record(report, rename)
    phase.metrics["prep_s"] = time.perf_counter() - start


def _warm_run(phase, config, api):
    """This repetition's warm call (figure2 flips every repetition)."""
    overrides, rename = _figure2_overrides(phase.rep % 2 == 0)

    def run():
        return api.run_all(
            config, workers=1, store=api.WorldStore(),
            incremental=phase.work / "incremental", param_overrides=overrides,
        )

    return run, rename


def battery_warm(phase, config, api):
    """Flip ``figure2.require_explicit`` so figure2 is invalidated: the
    world is rebuilt and figure2 re-runs from persisted body facts."""
    run, rename = _warm_run(phase, config, api)
    report = phase.call(run)
    phase.timings = {k: v for k, v in report.timings_seconds.items() if v}
    phase.metrics["bytes_written"] = phase.record(report, rename) + _disk_bytes(phase.work / "incremental")


def warm_reopen(phase, config, api):
    """The all-hit battery at the parameters ``battery_warm`` just ran."""
    run, rename = _warm_run(phase, config, api)
    phase.reopen(run, lambda hit: phase.record(hit, rename))


def _strata(config, api, archive):
    return api.run_strata([STRATUM], config=config, workers=1, archive_dir=archive, store=api.WorldStore())


def strata_cold(phase, config, api):
    """Crawl the stratum into a fresh columnar archive and aggregate it."""
    archive = phase.work / "archive"
    report = phase.call(_strata, config, api, archive)
    phase.timings = dict(report.timings_seconds)
    phase.metrics["bytes_written"] = phase.record(report) + _disk_bytes(archive)


def strata_reopen(phase, config, api):
    """Reopen the archive ``strata_cold`` wrote and aggregate it again."""
    report, measured = phase.timed(_strata, config, api, phase.work / "archive")
    phase.metrics["reopen_s"] = measured["wall_s"]
    phase.parts["reopen_s"] = _parts(report, measured["wall_s"])
    phase.record(report)


def reference(phase, config, api):
    """Classic-path texts of the strata figures, for the cross-path check."""
    report = api.run_all(config, workers=1, store=api.WorldStore(), experiments=list(STRATA_KEYS))
    phase.record(report, {key: f"{key}@{STRATUM}" for key in STRATA_KEYS})


PHASES = {
    fn.__name__: fn
    for fn in (battery_cold, battery_planes, planes_reopen, battery_warm_prep,
               battery_warm, warm_reopen, strata_cold, strata_reopen, reference)
}


class _Api:
    """The program's public entry points, imported once."""

    def __init__(self) -> None:
        from repro.net.logstore import LogStore
        from repro.report.orchestrator import run_all, run_strata
        from repro.web.worldstore import WorldStore

        self.LogStore = LogStore
        self.run_all = run_all
        self.run_strata = run_strata
        self.WorldStore = WorldStore


def make_config(seed: int, tiny: bool):
    """The generated input: the paper-scale config at *seed*, or the
    40-site top-1k stratum of it for smoke tests."""
    from repro.web.population import PopulationConfig, stratum_config

    config = PopulationConfig(seed=seed)
    return stratum_config("top-1k", config) if tiny else config


def main(argv) -> int:
    spec = json.loads(argv[1])
    phase = Phase(spec)
    if spec["trace"]:
        from ledger import Ledger

        # Installed before the entry points are imported, so the
        # references the phases hold are the wrapped ones.
        phase.ledger = Ledger(f"{spec['workload']}/{spec['phase']}").install()
    api = _Api()
    config = make_config(spec["seed"], spec["tiny"])
    # Every phase starts with its first timed call.
    phase.setup_s = time.monotonic() - spec["spawned"]
    try:
        PHASES[spec["phase"]](phase, config, api)
    finally:
        if phase.ledger is not None:
            phase.ledger.uninstall()
    result = Path(spec["result"])
    if phase.ledger is not None and spec["spans"]:
        with open(result.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as sink:
            for span in phase.ledger.span_records():
                sink.write(json.dumps(span) + "\n")
    result.write_text(json.dumps(phase.payload()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
