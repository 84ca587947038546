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
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


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
