import ast
import importlib
import importlib.util
import io
import re
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


def test_no_numpy_under_src():
    # the package runs on the standard library alone
    found = [
        f"{path.name}:{tok.start[0]}"
        for path in sorted(SRC.glob("*.py"))
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME and tok.string == "numpy"
    ]
    assert found == []


def _names(paths):
    """How often each name token occurs in the files, definitions included."""
    return Counter(
        tok.string
        for path in paths
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME
    )


def _definitions(node, owner):
    """(qualified name, name) of each function and class under an AST node,
    a method or nested definition qualified by its owners."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{owner}.{child.name}", child.name
            yield from _definitions(child, f"{owner}.{child.name}")
        else:
            yield from _definitions(child, owner)


def _unnamed(definitions, occurrences):
    """The qualified names whose name occurs only where it is defined;
    dunder methods are called by the language."""
    per_name = Counter(name for _qual, name in definitions)
    return sorted(qual for qual, name in definitions
                  if occurrences[name] == per_name[name] and not (name.startswith("__") and name.endswith("__")))


def test_no_unreferenced_definitions():
    # a function or class whose name occurs in src/ and tests/ only where it
    # is defined is dead code
    definitions = [d for path in sorted(SRC.glob("*.py")) for d in _definitions(_parsed(path), path.stem)]
    assert _unnamed(definitions, _names(sorted(SRC.glob("*.py")) + sorted(TESTS.rglob("*.py")))) == []


# definitions under src/ that no program path names, each with why it stays
_TRACED = "perfbench/tracing.py wraps it and test_every_traced_name_resolves pins it (ROADMAP item 20)"
_WITNESSES = "the Kostant witnesses of ROADMAP item 7 need it"
KEPT_UNNAMED = {
    "exactlinalg.det": _TRACED,
    "exactlinalg.matmul": _TRACED,
    "exactlinalg.mat_add": _TRACED,
    "exactlinalg.is_zero_matrix": _TRACED,
    "affine.AffineWeylGroup.inversion_set": _WITNESSES,
    "affine.AffineWeylElement.apply": _WITNESSES,
}


def test_src_defines_only_what_the_program_names():
    # a function or class defined in a module of the package is named again
    # in those modules, or it serves only tests and belongs in tests/; the
    # re-exports of __init__.py name nothing the program runs
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    definitions = [d for path in modules for d in _definitions(_parsed(path), path.stem)]
    assert _unnamed(definitions, _names(modules)) == sorted(KEPT_UNNAMED)


def test_no_unused_imports_in_src():
    # a name a module imports but never mentions again is dead; __init__.py
    # imports to re-export, and a __future__ import binds no name
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        occurrences = Counter(
            tok.string
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type == tokenize.NAME
        )
        for node in ast.walk(_parsed(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if occurrences[name] == 1:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _package_imports(path):
    """The ``jetcohom`` modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(_parsed(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "jetcohom":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("jetcohom."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("jetcohom."))
    return found


def test_the_identity_harness_is_a_leaf_of_the_exact_core():
    # fock reads only the algebra and the cochain core, and liealg, below both
    # routes, reads nothing of the front door; the check is static, since
    # importing any submodule runs the package __init__, which loads report
    imports = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert imports["fock"] <= {"liealg", "cochain"}
    assert not imports["liealg"] & {"report", "cache", "cli"}
    assert "report" in imports["cli"]  # the parse sees relative imports


def test_every_traced_name_resolves():
    # the benchmark tracer wraps these names from outside; a rename that drops
    # one leaves its layer unmeasured
    path = TESTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANNED + tracing.LEAVES + (tracing.ROOT,)
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"jetcohom.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert names and missing == []


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_the_python_floor_is_the_lowest_tested_version():
    # the code needs the floor (int.bit_count is 3.10), and only a tested
    # floor is known to hold
    root = TESTS.parent
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', (root / "pyproject.toml").read_text(), re.M)
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    tier1 = re.search(r"^  tier1:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", tier1.group(1))
    tested = [_version(v) for v in re.findall(r'"([\d.]+)"', matrix.group(1))]
    assert tested and _version(floor.group(1)) == min(tested)
