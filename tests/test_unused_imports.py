"""Every name a ``src/`` module imports is used in that module.

A package ``__init__`` imports to re-export, so it is exempt.  In any
other module an imported name must occur as a name in the code, inside
a quoted annotation (``Optional["WorldStore"]``), or in ``__all__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node):
    """Names inside the quoted parts of one annotation."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if annotation is not None:
                used.update(_annotation_names(annotation))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _unused_imports(source):
    """``(line, name)`` for each imported name *source* never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def test_every_imported_name_is_used():
    sources = [
        path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"
    ]
    assert sources
    unused = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sources
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_check_sees_an_unused_name():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "__all__ = ['f', 'Sequence']\n"
        "from typing import Sequence\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.path.sep]\n"
    )
    assert _unused_imports(source) == [(1, "Dict")]
