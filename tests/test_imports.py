"""Every top-level import of the package and of its tests is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "emergence").rglob("*.py"),
                  *(ROOT / "tests").rglob("*.py")])


def _bound_names(tree: ast.Module):
    """``(name, line)`` for each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(node) -> set:
    """Names inside a quoted annotation such as ``"OperatorFamily"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                used |= _annotation_names(sub)
        # names a module exports count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"line {line}: {name}" for name, line in _bound_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
