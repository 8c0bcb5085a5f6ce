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


def _pattern_literal(node) -> str | None:
    """The text of a re.compile pattern written as a literal, or its last literal piece."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _pattern_literal(node.values[-1])
    return None


def test_no_compiled_pattern_ends_in_a_dollar():
    # "$" also matches before a trailing newline; names are matched with fullmatch
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
            ):
                pattern = _pattern_literal(node.args[0])
                if pattern is not None and pattern.rstrip().endswith("$"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
