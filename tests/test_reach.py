"""Every module in ``src/repro`` is reached from an entry point.

A module that only its own tests import serves no run, so it is a
candidate for deletion.  The roots are the orchestrator, the CLI, and
every ``repro`` import in ``benchmarks/``, ``examples/``, ``scripts/``
and ``perf/``.  Imports count at any depth, inside functions too.  A
package-level import (``from repro.net import Network``) counts only the
submodule the package ``__init__`` re-exports that name from, never the
whole ``__init__``: a re-export alone does not make a module used.
"""

import ast
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
