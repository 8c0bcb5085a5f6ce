"""Module boundaries inside the crnkit package."""

import ast
from pathlib import Path

import crnkit

PACKAGE = Path(crnkit.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "crnkit"
            ):
                for alias in node.names:
                    name = alias.name
                    if name.startswith("_") and not name.endswith("__"):
                        found.append(f"{path.name}:{node.lineno} imports {name}")
    assert found == []


def test_no_module_imports_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{inner.lineno}")
    assert found == []
