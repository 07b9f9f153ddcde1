"""Modules of the package share only public names with each other."""

import ast
from pathlib import Path

import k3lat

PACKAGE = Path(k3lat.__file__).resolve().parent


def _private_imports(path):
    """(line, module, name) of every import of a private name from another
    package module, at module level or inside a function."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "k3lat":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, "." * node.level + module, alias.name


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{line}: from {module} import {name}"
        for path in modules
        for line, module, name in _private_imports(path)
    ]
    assert found == []


def test_the_check_sees_a_function_level_private_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from .lattice_core import is_prime\n"
        "def f():\n"
        "    from .root_config import _is_prime\n"
        "    from k3lat.classifier import _rows, table_lookup\n"
    )
    assert list(_private_imports(path)) == [
        (4, ".root_config", "_is_prime"),
        (5, "k3lat.classifier", "_rows"),
    ]
