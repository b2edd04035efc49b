"""Source-level rules for the package."""

import ast
from pathlib import Path

import pcfcert

SOURCES = sorted(Path(pcfcert.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no check may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_no_assertion_errors_raised():
    # an internal check raises OracleMismatch, which the CLI maps to exit 1;
    # an AssertionError would end in a traceback
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError"
        in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert SOURCES and not found, found


def test_no_function_level_imports():
    # every dependency is visible at the top of its module
    found = [
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert SOURCES and not found, found


def test_no_broad_except():
    # a broad handler turns any bug inside a proof step into a verdict
    broad = {"Exception", "BaseException"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler)
        and (
            node.type is None
            or {
                n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)
            } & broad
        )
    ]
    assert SOURCES and not found, found
