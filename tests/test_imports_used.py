"""Every name a package module imports is read in that module: an import
left behind by a removal fails here.  `from __future__ import annotations`
is exempt."""

import ast
from pathlib import Path

import ncmotives

SRC = Path(ncmotives.__file__).resolve().parent


def unused_imports(path):
    """The names one module imports and never reads, with their line
    numbers."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 13
    unused = [f"{path.name}:{line} {name}" for path in modules for line, name in unused_imports(path)]
    assert not unused, unused


def test_a_leftover_import_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from bisect import bisect_right\n"
        "from functools import partial as bind\n"
        "from .linalg import Matrix, RowBasis\n"
        "\n"
        "def f(m: Matrix):\n"
        "    return os.sep\n"
    )
    assert unused_imports(path) == [(3, "bisect_right"), (4, "bind"), (5, "RowBasis")]
