"""Interrupted commits: every on-disk store fails closed or keeps its state.

Each case commits a prior state, then commits new content over it
while the k-th filesystem mutation fails, for k = 1..N, where N is
the number of mutations a clean commit makes.  A mutation is opening a
file for writing, ``os.replace``, ``os.unlink`` or ``os.rmdir`` on a
path under the store root.  A file opened for writing fails part-way,
like a full disk: its first ``write`` stores half the data and raises
``ENOSPC``.  The other mutations raise before they act.

After each failure the store is reopened.  It must raise its one-line
error, or every layer must read back as its whole prior or whole new
content, and every JSON file that is present must load as its whole
prior or whole new text.  The snapshot archive and the log store are
one layer each; the incremental store's three files, and each exported
artifact, are separate layers.
"""

import builtins
import errno
import hashlib
import io
import json
import os
import shutil
from contextlib import contextmanager

import pytest

from repro.core.classify import VerdictRow
from repro.core.policy import RobotsPolicy
from repro.measure.incremental import IncrementalStore
from repro.measure.longitudinal import collect_shard_archives
from repro.net.logstore import LogSink, LogStore, LogStoreError, log_stream
from repro.obs.metrics import MetricsRegistry, export_metrics
from repro.obs.profile import PhaseProfile, Profiler
from repro.obs.series import export_series
from repro.obs.trace import write_trace
from repro.report.experiments import ExperimentResult
from repro.web.archive import ArchiveBodyStore, ArchiveError, ArchiveSet
from repro.web.population import PopulationConfig, build_web_population, stratum_config
from repro.web.worldstore import config_digest

from .archive_cells import archive_cells

_REAL_OPEN = builtins.open


class _TornFile:
    """A writable file whose first write stores half its data, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class _Faults:
    """Counts filesystem mutations under *root* and fails the *fail_at*-th."""

    def __init__(self, root, fail_at=None):
        self.root = os.fspath(root)
        self.fail_at = fail_at
        self.count = 0

    def _hit(self, path) -> bool:
        if not isinstance(path, (str, os.PathLike)):
            return False
        path = os.path.abspath(os.fspath(path))
        if not path.startswith(self.root + os.sep):
            return False
        self.count += 1
        return self.count == self.fail_at

    def _raise(self, path):
        raise OSError(errno.EIO, "injected fault", os.fspath(path))

    def open(self, file, mode="r", *args, **kwargs):
        handle = _REAL_OPEN(file, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+") and self._hit(file):
            return _TornFile(handle)
        return handle

    @contextmanager
    def installed(self):
        real_replace, real_unlink, real_rmdir = os.replace, os.unlink, os.rmdir

        def replace(src, dst, *args, **kwargs):
            if self._hit(dst):
                self._raise(dst)
            return real_replace(src, dst, *args, **kwargs)

        def unlink(path, *args, **kwargs):
            if self._hit(path):
                self._raise(path)
            return real_unlink(path, *args, **kwargs)

        def rmdir(path, *args, **kwargs):
            if self._hit(path):
                self._raise(path)
            return real_rmdir(path, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builtins, "open", self.open)
            patch.setattr(io, "open", self.open)
            patch.setattr(os, "replace", replace)
            patch.setattr(os, "unlink", unlink)
            patch.setattr(os, "rmdir", rmdir)
            yield self


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _json_texts(root):
    return {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in root.rglob("*.json")
    }


# -- snapshot archive ------------------------------------------------------


def _crawl(seed):
    def commit(root):
        config = stratum_config("top-1k", PopulationConfig(seed=seed))
        collect_shard_archives(
            build_web_population(config),
            root,
            shards=2,
            workers=1,
            config_digest=config_digest(config),
        )

    return commit


def _read_archive(root):
    with ArchiveSet.open(root) as archive:
        cells = archive_cells(archive)
        return {"archive": _digest((archive.config_digest, archive.specs, cells))}


# -- log store -------------------------------------------------------------


def _log_commit(agent):
    def commit(root):
        sink = LogSink()
        with log_stream("unit"):
            for index in range(40):
                sink.emit(f"site-{index}.example", f"/p/{index}", f"{agent}/1.0",
                          agent, "served", "art", index % 12, 200, index, False)
        sink.commit(root, config_digest="cfg", n_shards=2)

    return commit


def _read_log_store(root):
    with LogStore.open(root) as store:
        store.verify()
        return {"logs": _digest(list(store.records()))}


# -- per-body facts --------------------------------------------------------

_BODIES = ("User-agent: GPTBot\nDisallow: /\n", "User-agent: *\nAllow: /\n")
_BODY_DIGESTS = [hashlib.sha256(body.encode("utf-8")).hexdigest() for body in _BODIES]


def _put_facts(store, index):
    body, digest = _BODIES[index], _BODY_DIGESTS[index]
    store.put_row(digest, VerdictRow.of(RobotsPolicy(body)).pack())


def _facts(store):
    return [store.get_row(digest) for digest in _BODY_DIGESTS]


def _archive_facts_commit(index):
    def commit(root):
        store = ArchiveBodyStore(root)
        _put_facts(store, index)
        store.flush()

    return commit


def _read_archive_facts(root):
    return {"facts": _digest(_facts(ArchiveBodyStore(root)))}


def _incremental_commit(index):
    def commit(root):
        store = IncrementalStore(root)
        _put_facts(store, index)
        store.record_experiment(
            f"exp{index}", "inputs",
            ExperimentResult(f"exp{index}", "title", f"text {index}", {"n": index}),
        )
        store.flush()

    return commit


def _read_incremental(root):
    store = IncrementalStore(root)
    experiments = [store.lookup_experiment(f"exp{i}", "inputs") for i in (0, 1)]
    return {"bodies": _digest(_facts(store)), "experiments": _digest(experiments)}


# -- exported artifacts ----------------------------------------------------


def _export_commit(value):
    def commit(root):
        registry = MetricsRegistry()
        registry.counter("requests", agent="GPTBot").inc(value)
        registry.add("traffic", 3, value, agent="GPTBot")
        export_metrics(root / "METRICS.json", registry)
        export_series(root / "SERIES.json", registry)
        write_trace(root / "TRACE.jsonl", [{"span": "run", "value": value}])
        profiler = Profiler()
        profiler.phases.append(PhaseProfile(name="run", seconds=float(value)))
        profiler.export(root)

    return commit


def _read_exports(root):
    return {
        name: _digest((root / name).read_bytes()) if (root / name).exists() else None
        for name in ("METRICS.json", "SERIES.json", "TRACE.jsonl", "PROFILE.json")
    }


#: ``(id, commit prior state, commit new state, reopen, one-line error)``.
CASES = [
    ("archive-crawl", _crawl(42), _crawl(43), _read_archive, ArchiveError),
    ("log-store", _log_commit("OLD"), _log_commit("NEW"), _read_log_store, LogStoreError),
    ("archive-facts", _archive_facts_commit(0), _archive_facts_commit(1),
     _read_archive_facts, None),
    ("incremental", _incremental_commit(0), _incremental_commit(1),
     _read_incremental, None),
    ("exporters", _export_commit(1), _export_commit(2), _read_exports, None),
]


@pytest.mark.parametrize(
    "commit_prior, commit_new, reopen, error",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_interrupted_commit_fails_closed_or_keeps_prior_state(
    tmp_path, commit_prior, commit_new, reopen, error
):
    pristine = tmp_path / "prior"
    pristine.mkdir()
    commit_prior(pristine)
    prior_state = reopen(pristine)
    prior_json = _json_texts(pristine)

    clean = tmp_path / "clean"
    shutil.copytree(pristine, clean)
    with _Faults(clean).installed() as counter:
        commit_new(clean)
    n_mutations = counter.count
    new_state = reopen(clean)
    new_json = _json_texts(clean)
    assert n_mutations > 0
    assert all(new_state[layer] != prior_state[layer] for layer in prior_state)

    for fail_at in range(1, n_mutations + 1):
        root = tmp_path / f"fail-{fail_at}"
        shutil.copytree(pristine, root)
        with _Faults(root, fail_at).installed() as faults:
            with pytest.raises(OSError, match="injected"):
                commit_new(root)
        assert faults.count == fail_at
        for name, text in _json_texts(root).items():
            assert text in (prior_json.get(name), new_json.get(name)), (fail_at, name)
            json.loads(text)
        try:
            state = reopen(root)
        except Exception as exc:  # the store's one-line error, or a defect
            assert error is not None and isinstance(exc, error), (fail_at, exc)
            assert "\n" not in str(exc)
            continue
        for layer, digest in state.items():
            assert digest in (prior_state[layer], new_state[layer]), (fail_at, layer)
