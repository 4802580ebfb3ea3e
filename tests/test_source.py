import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import jetcohom

SRC = Path(jetcohom.__file__).parent
TESTS = Path(__file__).parent


def _parsed(path):
    return ast.parse(path.read_text(), str(path))


def test_no_assert_statements_in_src():
    # checks must raise, so that none of them vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parsed(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unreferenced_definitions():
    # a function or class whose name occurs in src/ and tests/ only where it
    # is defined is dead code; dunder methods are called by the language
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.rglob("*.py"))
    occurrences = Counter(
        tok.string
        for path in files
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME
    )
    definitions = Counter(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parsed(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    unreferenced = sorted(
        name for name, n in definitions.items()
        if occurrences[name] == n and not (name.startswith("__") and name.endswith("__"))
    )
    assert unreferenced == []
