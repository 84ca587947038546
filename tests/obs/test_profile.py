"""Continuous profiling hooks: phase samplers and the PROFILE.json artifact."""

import json

import pytest

from repro.obs.analyze import TelemetryError
from repro.obs.profile import PROFILE_SCHEMA_VERSION, Profiler, load_profile


class TestPhases:
    def test_phase_records_wall_time_and_attrs(self):
        profiler = Profiler()
        with profiler.phase("world_build", world="seeded"):
            pass
        (phase,) = profiler.phases
        assert phase.name == "world_build"
        assert phase.attrs == {"world": "seeded"}
        assert phase.seconds >= 0.0

    def test_memory_sampler_sees_allocations(self):
        profiler = Profiler()
        with profiler.phase("alloc"):
            blob = [str(i) * 100 for i in range(2000)]
        del blob
        (phase,) = profiler.phases
        assert phase.memory_peak_bytes is not None
        assert phase.memory_peak_bytes > 100_000

    def test_memory_peaks_are_per_phase(self):
        profiler = Profiler()
        with profiler.phase("big"):
            blob = [str(i) * 100 for i in range(5000)]
            del blob
        with profiler.phase("small"):
            pass
        big, small = profiler.phases
        # The peak resets per phase; a quiet phase must not inherit the
        # noisy neighbor's high-water mark.
        assert small.memory_peak_bytes < big.memory_peak_bytes

    def test_cpu_sampler_captures_hot_functions(self):
        profiler = Profiler()
        with profiler.phase("spin"):
            sum(i * i for i in range(200_000))
        (phase,) = profiler.phases
        assert phase.cpu_seconds is not None
        assert phase.cpu_top  # entries like {"function": "file:line:name", ...}
        assert all("function" in entry for entry in phase.cpu_top)

    def test_nested_phases_record_independently(self):
        profiler = Profiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        names = [phase.name for phase in profiler.phases]
        assert names == ["inner", "outer"]  # completion order
        outer = profiler.phases[1]
        assert outer.cpu_seconds is not None  # only the outermost samples CPU

    def test_phase_survives_exceptions(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("doomed"):
                raise RuntimeError("boom")
        assert [phase.name for phase in profiler.phases] == ["doomed"]


class TestExport:
    def test_export_writes_schema_versioned_profile(self, tmp_path):
        profiler = Profiler()
        with profiler.phase("only"):
            pass
        path = profiler.export(tmp_path)
        assert path.name == "PROFILE.json"
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == PROFILE_SCHEMA_VERSION
        assert [phase["name"] for phase in payload["phases"]] == ["only"]

    def test_load_round_trips(self, tmp_path):
        profiler = Profiler()
        with profiler.phase("p", key="figure2"):
            pass
        profiler.export(tmp_path)
        payload = load_profile(tmp_path / "PROFILE.json")
        assert payload["phases"][0]["attrs"] == {"key": "figure2"}

    def test_load_missing_raises_telemetry_error(self, tmp_path):
        with pytest.raises(TelemetryError, match="missing telemetry artifact"):
            load_profile(tmp_path / "PROFILE.json")

    def test_load_corrupt_raises_telemetry_error(self, tmp_path):
        path = tmp_path / "PROFILE.json"
        path.write_text('{"schema_version": 1, "phases": {}}')
        with pytest.raises(TelemetryError, match="corrupt PROFILE.json"):
            load_profile(path)
        path.write_text('{"schema_version": 99, "phases": []}')
        with pytest.raises(TelemetryError,
                           match="unsupported PROFILE.json schema_version 99"):
            load_profile(path)

    def test_summary_lines_one_per_phase(self):
        profiler = Profiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        lines = profiler.summary_lines()
        assert len(lines) == 2
        assert lines[0].startswith("a")
