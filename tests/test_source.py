import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rainbowcube"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    # __init__.py re-exports, so its imports count as used
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert unused == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib(path):
    # the package declares no runtime dependencies, so no installed
    # third-party module may creep into it
    tree = ast.parse(path.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    assert [m for m in names if m.split(".")[0] not in sys.stdlib_module_names] == []
