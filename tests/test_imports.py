"""Every module of the package uses every name it imports.

A stdlib ``ast`` scan: a name bound by an import must be read somewhere in
the module, in code or in a quoted annotation.  ``__init__.py`` is left
out, since its imports are the package's public names, and so is an
explicit re-export written ``from m import x as x``.
"""
import ast
from pathlib import Path

import dcx

PACKAGE = Path(dcx.__file__).resolve().parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from typing import Optional, Iterator, Any as Any\n"
        "import os.path\n"
        "def f(x: 'Optional[int]'):\n"
        "    return os.sep, 'Iterator'\n",
        encoding="utf-8",
    )
    assert unused_imports(mod) == ["mod.py:1: Iterator"]


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found.extend(unused_imports(path))
    assert found == []
