"""Everything in ``src/repro`` is reached from an entry point.

A module that only its own tests import serves no run, so it is a
candidate for deletion.  The roots are the orchestrator, the CLI, and
every ``repro`` import in ``benchmarks/``, ``examples/``, ``scripts/``
and ``perf/``.  Imports count at any depth, inside functions too.  A
package-level import (``from repro.net import Network``) counts only the
submodule the package ``__init__`` re-exports that name from, never the
whole ``__init__``: a re-export alone does not make a module used.

The same holds one level down: every top-level function and class and
every non-dunder method must be named somewhere in ``src/repro`` or a
root directory, outside its own definition.  A name counts when it is
read (``f``), an attribute (``obj.f``), an imported name, or part of a
``"repro.module:Qual.name"`` target string (the ``perf/`` ledger wraps
those).  ``__all__`` entries and package ``__init__`` re-exports do not
count.  Matching is by bare name, so the check is conservative: a
method shares credit with any other attribute of the same name.
"""

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_MODULES = ("repro.report.orchestrator", "repro.cli")
ROOT_DIRS = ("benchmarks", "examples", "scripts", "perf")


def _module_paths():
    """Dotted name -> source path for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_paths()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(path, package=""):
    """``(module, names)`` per import statement in *path*, at any depth.

    Relative imports resolve against *package*; ``names`` is empty for
    ``import a.b`` and holds ``(name, bound_as)`` pairs for
    ``from a import name as bound_as``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                module = ".".join(anchor + ([module] if module else []))
            yield module, tuple(
                (alias.name, alias.asname or alias.name) for alias in node.names
            )


def _reexports():
    """Package -> {bound name: (source module, source name)}."""
    table = {}
    for package in PACKAGES:
        table[package] = {
            bound: (module, name)
            for module, names in _imports(MODULES[package], package)
            for name, bound in names
        }
    return table


REEXPORTS = _reexports()


def _resolve(module, name=None):
    """The non-package modules that importing *name* from *module* reaches."""
    if module not in MODULES:
        return set()
    if module not in PACKAGES:
        return {module}
    if name is None:
        return set()
    source = REEXPORTS[module].get(name)
    if source is not None:
        return _resolve(*source)
    return _resolve(f"{module}.{name}")


def _targets(statements):
    reached = set()
    for module, names in statements:
        if module != "repro" and not module.startswith("repro."):
            continue
        if not names:
            reached |= _resolve(module)
        for name, _ in names:
            reached |= _resolve(module, name)
    return reached


def _package_of(module):
    return module if module in PACKAGES else module.rpartition(".")[0]


def reached_modules():
    """Every non-``__init__`` module an entry point reaches."""
    frontier = set(ROOT_MODULES)
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            frontier |= _targets(_imports(path))
    reached = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier |= _targets(_imports(MODULES[module], _package_of(module)))
    return reached


def test_package_import_counts_only_the_reexporting_submodule():
    assert _resolve("repro.net", "Network") == {"repro.net.transport"}
    assert _resolve("repro.net", "chaos") == {"repro.net.chaos"}
    assert _resolve("repro.net") == set()


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - PACKAGES - reached_modules())
    assert not unreached, f"no entry point reaches: {', '.join(unreached)}"


#: Definitions no entry point names, kept on purpose (at most 10), as
#: ``"path/under/src:Qual.name": reason``.
ALLOWED_UNREFERENCED = {
    "repro/net/realserver.py:NetworkHandler": (
        "the TCP bridge's server half: the integration tests run the Section 5 "
        "testbed over genuine sockets through it, and DESIGN's substitution "
        "table cites it as the evidence that the in-memory network is faithful"
    ),
    "repro/net/realserver.py:RemoteNetwork": (
        "the TCP bridge's client half (see NetworkHandler)"
    ),
    "repro/net/accesslog.py:reset_agent_label_memo": (
        "test isolation: fixtures that reset the shared registries must also "
        "drop the process-wide agent-label memo and cached series handles"
    ),
    "repro/obs/metrics.py:metrics_disabled": (
        "test isolation: runs a block with recording off and restores the flag"
    ),
    "repro/obs/metrics.py:MetricsRegistry.counter_value": (
        "reads one counter without creating it; counter() would add "
        "instruments that the cross-mode METRICS comparisons count"
    ),
    "repro/core/legacy.py:LegacyQuirks.none": (
        "the quirk-free reference the legacy parser's tests hold against "
        "the RFC 9309 parser"
    ),
    "repro/survey/instrument.py:question": (
        "the Appendix D.1 questionnaire encoding: look a question up by id"
    ),
    "repro/survey/instrument.py:Question.is_shown": (
        "the Appendix D.1 questionnaire encoding: the skip logic of a question"
    ),
}


def _target_parts(value):
    """The names in a ``"repro.module:Qual.name"`` target string."""
    module, sep, qualname = value.partition(":")
    if sep and (module == "repro" or module.startswith("repro.")):
        return qualname.split(".")
    return ()


def _definitions(tree):
    """``(qualname, first line, last line)`` of every checked definition."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((prefix + name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, prefix + name + ".")

    visit(tree.body, "")
    return found


def _references(path, package, refs):
    """Add ``(path, line)`` to *refs* under every bare name *path* names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id].append((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs[node.attr].append((path, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in _target_parts(node.value):
                refs[part].append((path, node.lineno))
    if path.name != "__init__.py":
        for _, names in _imports(path, package):
            for name, _ in names:
                refs[name].append((path, 0))


@lru_cache(maxsize=None)
def unreferenced_definitions():
    """``("path:Qual.name", line)`` for every definition no one names."""
    refs = defaultdict(list)
    for module, path in MODULES.items():
        _references(path, _package_of(module), refs)
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            _references(path, "", refs)
    offenders = []
    for module, path in sorted(MODULES.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname, first, last in _definitions(tree):
            named = any(
                not (where == path and first <= line <= last)
                for where, line in refs[qualname.rpartition(".")[2]]
            )
            if not named:
                offenders.append((f"{path.relative_to(SRC)}:{qualname}", first))
    return tuple(offenders)


def test_target_strings_name_their_parts():
    assert _target_parts("repro.core.policy:RobotsPolicy.is_allowed") == [
        "RobotsPolicy", "is_allowed",
    ]
    assert _target_parts("os.path:join") == ()
    assert _target_parts("no colon here") == ()


def test_every_definition_is_named_from_an_entry_point():
    offenders = [
        f"src/{key.partition(':')[0]}:{line} {key.partition(':')[2]}"
        for key, line in unreferenced_definitions()
        if key not in ALLOWED_UNREFERENCED
    ]
    assert not offenders, "nothing outside tests names:\n" + "\n".join(offenders)


def test_allowlist_is_short_justified_and_current():
    assert len(ALLOWED_UNREFERENCED) <= 10
    assert all(reason.strip() for reason in ALLOWED_UNREFERENCED.values())
    unreferenced = {key for key, _ in unreferenced_definitions()}
    stale = sorted(set(ALLOWED_UNREFERENCED) - unreferenced)
    assert not stale, f"allowlisted but named (or gone): {', '.join(stale)}"
