"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "metastable"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; checks that guard answers must raise instead.
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Mapping, Optional\nx: Mapping = os.sep\n")
    assert unused_imports(tree) == [(2, "Optional")]


def imports_inside_functions(tree):
    """Lines of the imports of package modules (relative, or from ``metastable``) inside a function body."""

    def sibling(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "metastable"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "metastable" for a in node.names)

    functions = (f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return sorted({node.lineno for f in functions for node in ast.walk(f) if sibling(node)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_a_sibling_module(path):
    # A module bound at call time can come from a later import of the
    # package than its caller, so siblings are bound once, at import.
    assert imports_inside_functions(ast.parse(path.read_text())) == []


def test_scan_flags_imports_inside_functions():
    tree = ast.parse(
        "from . import a\n"
        "def f():\n"
        "    from . import b\n"
        "    import os\n"
        "    def g():\n"
        "        import metastable.c\n"
        "        from metastable.d import x\n"
    )
    assert imports_inside_functions(tree) == [3, 6, 7]


def rng_draw_calls(tree):
    """Lines of calls to a ``sample``, ``randint`` or ``randrange`` attribute, on any object."""
    draws = {"sample", "randint", "randrange"}
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute))
    return sorted(node.lineno for node in calls if node.func.attr in draws)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_draws_through_the_stdlib_sampling_calls(path):
    # The random-k stream is defined by MT19937 words and the rule in
    # order._draw_ranks; random.sample and randint are its oracle, in tests.
    assert rng_draw_calls(ast.parse(path.read_text())) == []


def test_scan_flags_rng_draw_calls():
    tree = ast.parse(
        "import random\n"
        "rng = random.Random(1)\n"
        "rng.sample(range(4), 2)\n"
        "x = rng.randint(1, 3) + random.randrange(5)\n"
        "y = rng.getrandbits(32) + rng.random()\n"
    )
    assert rng_draw_calls(tree) == [3, 4, 4]
