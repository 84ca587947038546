"""``src/`` imports only the standard library and ``repro`` itself.

``pyproject.toml`` declares ``dependencies = []``, and no output may
depend on which optional packages happen to be installed.  Every import
counts, including those inside functions and ``try`` blocks.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is new in 3.10"
)
def test_src_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE.parent)}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] not in allowed
            ]
    assert outside == []
