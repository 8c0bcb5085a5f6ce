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


def _is_call_of(node, *names: str) -> bool:
    """Is `node` a call of a function named one of `names`, bare or as an attribute?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id in names) or (
        isinstance(func, ast.Attribute) and func.attr in names
    )


# They pass their rows on, or build a matrix that is not a Lie derivative's: the
# kernel search itself, the net changes of the stoichiometric search, and the
# fixed 12-column identity of the log-integral family.
OTHER_ROW_SOURCES = {"positive_kernel_vector", "stoichiometric_conservation", "solve_log_integral_family"}


def test_integral_rows_come_from_one_builder():
    # every polynomial integral search reads its rows from conservation.lie_derivative_rows
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(function, ast.FunctionDef) or function.name in OTHER_ROW_SOURCES:
                continue
            built = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and _is_call_of(node.value, "lie_derivative_rows")
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(function):
                if not _is_call_of(node, "nullspace_basis", "positive_kernel_vector"):
                    continue
                rows = node.args[0] if node.args else next(
                    (keyword.value for keyword in node.keywords if keyword.arg == "rows"), None
                )
                if not (
                    _is_call_of(rows, "lie_derivative_rows")
                    or (isinstance(rows, ast.Name) and rows.id in built)
                ):
                    found.append(f"{path.name}:{node.lineno} in {function.name}")
    assert found == []


def _scoped_nodes(tree):
    """(node, enclosing function name, enclosing class name) of every node below `tree`."""
    stack = [(tree, None, None)]
    while stack:
        node, function, klass = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, function, klass
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, child.name, klass))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, function, child.name))
            else:
                stack.append((child, function, klass))


def test_one_integer_encoding_and_trusted_candidates_stay_in_place():
    # the integer term table is read by the one row builder, and only qfi
    # turns kernel weights into candidates without the validating constructor
    readers, trusted = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, function, klass in _scoped_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "coded_terms":
                readers.add(f"{path.name}:{function}")
            if _is_call_of(node, "_from_clean") and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                owner = receiver.id if isinstance(receiver, ast.Name) else None
                if owner == "cls":
                    owner = klass
                if owner == "QuadraticCandidate" and path.name != "qfi.py":
                    trusted.append(f"{path.name}:{node.lineno} in {function}")
    assert readers == {"conservation.py:lie_derivative_rows"}
    assert trusted == []


# The input matrix of each exact kernel entry point, by parameter name.
KERNEL_INPUTS = {"_reduce": "rows", "symmetric_inertia": "matrix"}


def test_kernel_input_rows_are_converted_only_by_integer_rows():
    # one typed pass per matrix reads the kernel's input; the shape and
    # symmetry checks of symmetric_inertia read it without converting it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                getattr(node, "name", None),
                getattr(node, "id", None),
                getattr(node, "attr", None),
            )
            if "_integer_row" in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names _integer_row")
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, parameter in KERNEL_INPUTS.items():
        function = functions[name]
        assert function.args.args[0].arg == parameter
        allowed = set()
        for node in ast.walk(function):
            if _is_call_of(node, "_integer_rows", "len") or isinstance(node, ast.Compare):
                allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id == parameter and id(node) not in allowed:
                found.append(f"linalg.py:{node.lineno} in {name} reads {parameter}")
    callers = {
        function for node, function, _ in _scoped_nodes(tree) if _is_call_of(node, "_integer_rows")
    }
    assert callers == set(KERNEL_INPUTS)
    assert found == []


# The calls that read tokens from a text: only the shared lexer makes them.
TOKEN_READS = ("findall", "finditer", "match", "search", "scanner")


def test_one_lexer_reads_the_tokens_of_both_text_formats():
    # network.py and poly.py tokenize through numbers.Lexer, and no module
    # keeps a tokenizer loop of its own
    found, lexers = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node, function, klass in _scoped_nodes(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_tokenize"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if _is_call_of(node, *TOKEN_READS) and isinstance(node.func, ast.Attribute):
                if (path.name, klass) != ("numbers.py", "Lexer"):
                    found.append(f"{path.name}:{node.lineno} calls {node.func.attr} in {function}")
            if (
                isinstance(node, ast.Assign)
                and _is_call_of(node.value, "Lexer")
                and isinstance(node.targets[0], ast.Name)
            ):
                lexers.setdefault(path.name, []).append(node.targets[0].id)
    assert found == []
    assert lexers == {"network.py": ["_NET_LEXER"], "poly.py": ["_POLY_LEXER"]}


def test_one_writer_writes_the_json_text():
    # every --json report, --out file and manifest and ReactionNetwork.to_json
    # is written by network.json_text; no module encodes JSON with the json module
    found, writers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "json_text":
                writers.append(path.name)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
                and node.attr in ("dumps", "dump", "JSONEncoder")
            ):
                found.append(f"{path.name}:{node.lineno} uses json.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno} imports {alias.name}" for alias in node.names]
    assert found == []
    assert writers == ["network.py"]


def _is_fraction_type_test(node) -> bool:
    """Is `node` a comparison `type(...) is Fraction` or `type(...) is not Fraction`?"""
    return (
        isinstance(node, ast.Compare)
        and _is_call_of(node.left, "type")
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Name) and c.id == "Fraction" for c in node.comparators)
    )


def test_one_conversion_to_fraction_and_one_literal_bound_test():
    # poly.as_fraction alone converts a caller's number to a stored Fraction,
    # and only numbers.py names LITERAL_BOUND (exceeds_literal_bound tests it)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            names = [getattr(node, "name", None)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(target, "id", None) for target in targets]
            for name in names:
                if name and name.endswith("_fraction") and (path.name, name) != ("poly.py", "as_fraction"):
                    found.append(f"{path.name}:{node.lineno} defines {name}")
        for node, function, _ in _scoped_nodes(tree):
            if _is_fraction_type_test(node) and (path.name, function) != ("poly.py", "as_fraction"):
                found.append(f"{path.name}:{node.lineno} tests type(...) is Fraction in {function}")
            if isinstance(node, ast.Name) and node.id == "LITERAL_BOUND" and path.name != "numbers.py":
                found.append(f"{path.name}:{node.lineno} names LITERAL_BOUND")
            if isinstance(node, ast.alias) and node.name == "LITERAL_BOUND" and path.name != "numbers.py":
                found.append(f"{path.name}:{node.lineno} imports LITERAL_BOUND")
    assert found == []
