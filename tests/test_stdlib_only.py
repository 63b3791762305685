"""The runtime is the standard library only: every absolute import in the
package's modules names a standard-library module (relative imports stay
inside the package)."""

import ast
import sys
from pathlib import Path

import ncmotives

SRC = Path(ncmotives.__file__).resolve().parent


def _absolute_imports(path):
    """The top-level names of the absolute imports of one module, with their
    line numbers."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 12
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for name, line in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside
