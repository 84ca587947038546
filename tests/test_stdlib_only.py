"""``src/`` imports only the standard library and ``repro`` itself.

``pyproject.toml`` declares ``dependencies = []``, and no output may
depend on which optional packages happen to be installed.  Every import
counts, including those inside functions and ``try`` blocks.

The package also runs on one thread: the TCP bridge's serving thread
(``repro.net.realserver``) runs handlers only while its caller waits,
so no other module may import :mod:`threading` or :mod:`contextvars`,
and a lock, a thread-local or a context variable fails here.  So does
:func:`functools.cached_property`, which on Python 3.11 takes a
class-wide lock on each instance's first access; the package's
lock-free form is :class:`repro.util.computed_once`.

A run loads only what it reaches.  Package ``__init__`` modules import
nothing, so importing a submodule loads its own imports and no
siblings; the fork pool, the TCP bridge and the profilers load on first
use; and the Section 3 runners live apart from the rest, so a strata
run loads none of the survey, the audits or the testbed.  A fresh
interpreter checks that budget end to end.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules that importing the entry points, and then a strata run, must
#: not load: the fork pool, the TCP bridge's HTTP stack, the profilers,
#: the runners outside Section 3, the survey and the Section 4-6
#: measurements.
NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    "http.client",
    "http.server",
    "socketserver",
    "ssl",
    "email",
    "cProfile",
    "pstats",
    "tracemalloc",
    "repro.net.realserver",
    "repro.report.experiments",
    "repro.survey.respondents",
    "repro.measure.compliance",
    "repro.measure.artists",
    "repro.measure.active_blocking",
)

IMPORT_BUDGET_SCRIPT = """
import json, sys, tempfile
import repro.report.orchestrator, repro.web.worldstore, repro.net.logstore

watched = json.loads(sys.argv[1])
imported = sorted(name for name in watched if name in sys.modules)
from repro.web.population import PopulationConfig
with tempfile.TemporaryDirectory() as archive_dir:
    repro.report.orchestrator.run_strata(
        ["top-1k"], config=PopulationConfig(seed=42), workers=1,
        archive_dir=archive_dir, store=repro.web.worldstore.WorldStore())
print(json.dumps({"imported": imported,
                  "after_strata": sorted(name for name in watched if name in sys.modules)}))
"""


def _trees():
    """``(path, tree)`` for every module under ``src/repro``."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports():
    """``(path, line, module)`` for every absolute import under ``src/repro``."""
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield path, node.lineno, module


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is new in 3.10"
)
def test_src_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    outside = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {module}"
        for path, line, module in _imports()
        if module.split(".")[0] not in allowed
    ]
    assert outside == []


def test_only_the_tcp_bridge_imports_threading():
    importers = {
        str(path.relative_to(PACKAGE))
        for path, _, module in _imports()
        if module.split(".")[0] in ("threading", "contextvars")
    }
    assert importers == {"net/realserver.py"}


def test_no_module_uses_cached_property():
    users = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
    ]
    assert users == []


def test_package_inits_import_nothing():
    importers = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path, tree in _trees()
        if path.name == "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert importers == []


def test_entry_points_and_a_strata_run_load_only_what_they_reach():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT, json.dumps(NOT_LOADED)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["imported"] == []
    assert loaded["after_strata"] == []
