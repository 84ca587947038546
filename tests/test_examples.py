"""The replication example runs end to end in the tier-1 suite.

``examples/replication_package.py`` is the only entry point that
reaches :mod:`repro.report.datasets`: it exports the snapshot corpus as
a shard archive and the other datasets as JSONL, reloads them and
re-analyses.  Run with its output directory moved to a temporary one,
it must reproduce the Figure 2 trend and write nothing under
``results/``.
"""

import importlib.util
from pathlib import Path

from repro.web.archive import ArchiveSet

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = ROOT / "examples" / "replication_package.py"


def _results_state():
    results = ROOT / "results"
    if not results.is_dir():
        return {}
    return {
        str(path.relative_to(results)): path.stat().st_mtime_ns
        for path in results.rglob("*")
    }


def test_replication_package_round_trips(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("replication_package", EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.setattr(example, "OUT", tmp_path)
    before = _results_state()
    example.main()
    out = capsys.readouterr().out
    assert "figure-2 trend reproduced exactly from the exported corpus" in out
    assert "survey statistics reproduced exactly" in out
    with ArchiveSet.open(tmp_path / "snapshots") as archive:
        assert len(archive.specs) == 15
    assert (tmp_path / "schedules.jsonl").stat().st_size > 0
    assert (tmp_path / "survey.jsonl").stat().st_size > 0
    assert _results_state() == before
