"""Module boundaries: no zdgraph module imports another's private names."""

import ast
from pathlib import Path

import zdgraph

PACKAGE = Path(zdgraph.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`from <zdgraph module> import _name` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("zdgraph"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {alias.name}")
    return found


def test_no_private_names_cross_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    assert [hit for path in sources for hit in private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from .finite_ring import _model, ring_table\nfrom os import _exit\n")
    assert private_imports(source) == ["sample.py:1: _model"]
