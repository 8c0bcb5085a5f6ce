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


def _compiled_patterns():
    """(module file name, line, pattern node) of every re.compile call in the package."""
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
                yield path.name, node.lineno, node.args[0]


def test_no_compiled_pattern_ends_in_a_dollar():
    # "$" also matches before a trailing newline; names are matched with fullmatch
    found = []
    for name, line, node in _compiled_patterns():
        pattern = _pattern_literal(node)
        if pattern is not None and pattern.rstrip().endswith("$"):
            found.append(f"{name}:{line}")
    assert found == []


def test_only_numbers_spells_the_decimal_number():
    # the text formats build their number tokens from numbers.DECIMAL
    found = []
    for name, line, node in _compiled_patterns():
        if name == "numbers.py":
            continue
        # every literal piece of an f-string, or the one piece of a plain literal
        pieces = node.values if isinstance(node, ast.JoinedStr) else [node]
        for piece in pieces:
            if (
                isinstance(piece, ast.Constant)
                and isinstance(piece.value, str)
                and r"\d+(?:\.\d+)?" in piece.value
            ):
                found.append(f"{name}:{line}")
    assert found == []
