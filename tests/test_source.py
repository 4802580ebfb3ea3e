import ast
from pathlib import Path

import jetcohom

SRC = Path(jetcohom.__file__).parent


def test_no_assert_statements_in_src():
    # checks must raise, so that none of them vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
