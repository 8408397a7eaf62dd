"""Static checks on the package source that need no linter."""

import ast
import graphlib
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


def sibling_imports(tree):
    """Package modules a module imports: ``from . import x`` and ``from .x import y`` both name x."""
    nodes = (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1)
    return sorted({name for n in nodes for name in ([n.module] if n.module else [a.name for a in n.names])})


def import_cycle(graph):
    """A cycle of the import graph (its first module repeated at the end), else None."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def test_sibling_imports_form_no_cycle():
    # A cycle binds one of its modules half-initialised, so the import order decides what the other sees.
    graph = {p.stem: sibling_imports(ast.parse(p.read_text())) for p in MODULES}
    assert graph["meta"] and import_cycle(graph) is None


def test_scan_finds_an_import_cycle():
    trees = {
        "a": "from . import b as _b\nfrom .c import x\n",
        "b": "from .a import y\nimport os\n",
        "c": "from .. import d\n",
    }
    graph = {name: sibling_imports(ast.parse(text)) for name, text in trees.items()}
    assert graph == {"a": ["b", "c"], "b": ["a"], "c": []}
    assert sorted(import_cycle(graph)[:-1]) == ["a", "b"]
    assert import_cycle({"a": ["c"], "b": ["a"], "c": []}) is None


def late_imports(tree):
    """Lines of module-level imports that follow the module's first function or class."""
    body = tree.body
    first = next((k for k, n in enumerate(body) if isinstance(n, (ast.FunctionDef, ast.ClassDef))), len(body))
    return [n.lineno for n in body[first:] if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_precede_definitions(path):
    assert late_imports(ast.parse(path.read_text())) == []


def test_scan_flags_a_late_import():
    assert late_imports(ast.parse("import os\nclass A:\n    pass\nfrom . import b  # noqa: E402\n")) == [4]


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


def nets_built_in_loops(tree):
    """Lines of ``Net(...)`` calls (also ``net.Net(...)``) inside a loop or a comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = (n for loop in ast.walk(tree) if isinstance(loop, loops) for n in ast.walk(loop) if isinstance(n, ast.Call))
    return sorted({n.lineno for n in calls if getattr(n.func, "id", getattr(n.func, "attr", None)) == "Net"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_builds_a_net_per_member(path):
    # A family is one StackedFamily, checked in one build call, not a Net per member.
    assert nets_built_in_loops(ast.parse(path.read_text())) == []


def test_scan_flags_nets_built_in_loops():
    tree = ast.parse(
        "a = Net(w, s, v)\n"
        "for v in rows:\n"
        "    b = Net(w, s, v)\n"
        "c = [net.Net(w, s, v) for v in rows]\n"
        "while rows:\n"
        "    d = {k: Net(w, s, rows.pop()) for k in 'ab'}\n"
        "e = Network(w) or tuple(NetError(v) for v in rows)\n"
    )
    assert nets_built_in_loops(tree) == [3, 4, 6]


def attribute_reads(tree, name):
    """Lines that read attribute ``name`` of any object (assignments to it are not reads)."""
    reads = (n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return sorted({n.lineno for n in reads if n.attr == name})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("order.py", "serialize.py")], ids=lambda p: p.name)
def test_sampling_labels_stay_at_the_boundary(path):
    # A sampling holds position runs; its label sets (``assign``) are built
    # on demand for the boundary, so the rest of the package reads the runs.
    assert attribute_reads(ast.parse(path.read_text()), "assign") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "order.py"], ids=lambda p: p.name)
def test_the_window_order_is_read_by_position_outside_order(path):
    # order._above is the one implementation of the window order; the rest of
    # the package reads up-sets, up-runs and matrices, not label-pair ``leq`` calls.
    assert attribute_reads(ast.parse(path.read_text()), "leq") == []


def test_scan_flags_attribute_reads():
    tree = ast.parse(
        "a = eta.assign\n"
        "s.assign = 3\n"
        "f(x.sizes, assign=eta.assign[0])\n"
        "assign = g(eta)\n"
    )
    assert attribute_reads(tree, "assign") == [1, 3]


def reads_outside(tree, name, scope):
    """Lines that read attribute ``name`` outside the method ``scope`` ("Class.method") of ``tree``."""
    cls, method = scope.split(".")
    inside = [f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls for f in c.body if getattr(f, "name", None) == method]
    return sorted(set(attribute_reads(tree, name)).difference(*(attribute_reads(f, name) for f in inside)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_family_row_is_read_by_row_alone(path):
    # The array is the one member store; the rows as given (``_rows``) are read
    # by StackedFamily.row, for members and kernels alike.
    assert reads_outside(ast.parse(path.read_text()), "_rows", "StackedFamily.row") == []


def test_scan_flags_row_reads_outside_the_reader():
    tree = ast.parse(
        "class StackedFamily:\n"
        "    def row(self, k):\n"
        "        return self._rows[k]\n"
        "    def __getitem__(self, m):\n"
        "        return self._rows[m]\n"
        "def row(s, k):\n"
        "    s._rows = None\n"
        "    return s._rows[k]\n"
    )
    assert reads_outside(tree, "_rows", "StackedFamily.row") == [5, 8]


def forged_nets(tree):
    """Lines that make a ``Net`` (also ``module.Net``) past its constructor, by ``__new__``."""
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "__new__" and n.args)
    return sorted({n.lineno for n in calls if "Net" in (getattr(n.args[0], "id", None), getattr(n.args[0], "attr", None))})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "net.py"], ids=lambda p: p.name)
def test_only_net_makes_a_member_view(path):
    # A Net is checked by its family; outside net a member comes from a family or the constructor.
    assert forged_nets(ast.parse(path.read_text())) == []


def test_net_makes_its_views_in_one_place():
    assert len(forged_nets(ast.parse((SRC / "net.py").read_text()))) == 1


def test_scan_flags_forged_nets():
    tree = ast.parse(
        "a = object.__new__(Net)\n"
        "b = object.__new__(net.Net)\n"
        "c = object.__new__(cls) or Net.__new__(Net)\n"
        "d = Net(w, s, v) or object.__new__(Network)\n"
        "Net.__new__ = None\n"
    )
    assert forged_nets(tree) == [1, 2, 3]


def label_view_reads(tree):
    """Lines that read a label view: ``at`` (a sampling's label block), ``up_set`` or ``value``."""
    return sorted({line for name in ("at", "up_set", "value") for line in attribute_reads(tree, name)})


@pytest.mark.parametrize("path", [SRC / "meta.py", SRC / "analyze.py"], ids=lambda p: p.name)
def test_witness_scans_read_positions_not_labels(path):
    # The witness scan, the cover certification and refutation's far blocks read
    # block positions and family rows; labels are made only for the answer.
    assert label_view_reads(ast.parse(path.read_text())) == []


def test_scan_flags_label_view_reads():
    tree = ast.parse(
        "b = eta.at(i)\n"
        "up = w.up_set(i)\n"
        "x = max(up, key=a.value)\n"
        "y = a.values[p] + eta.block(p) + at(i) + w.index(i)\n"
        "a.value = 0\n"
    )
    assert label_view_reads(tree) == [1, 2, 3]


def json_text_writers(tree):
    """Lines that call ``json.dump``/``json.dumps`` (also under another name) or import either from ``json``."""
    names = {"dump", "dumps"}
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == "json"}
    imported = {
        n.lineno: {a.asname or a.name for a in n.names if a.name in names}
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "json"
    }
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute))
    lines = {n.lineno for n in calls if n.func.attr in names and getattr(n.func.value, "id", None) in aliases}
    return sorted(lines | {line for line, found in imported.items() if found})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_serialize_dumps_is_the_one_json_text_writer(path):
    # Every document leaves the package as serialize.dumps writes it: canonical, one writer.
    assert json_text_writers(ast.parse(path.read_text())) == []


def test_scan_flags_json_text_writers():
    tree = ast.parse(
        "import json\n"
        "import json as j\n"
        "from json import dumps as d, loads\n"
        "from json.encoder import encode_basestring_ascii\n"
        "json.dump(doc, fh)\n"
        "x = j.dumps(doc) + json.loads(text)\n"
        "y = serialize.dumps(doc)\n"
    )
    assert json_text_writers(tree) == [3, 5, 6]


def reads_and_collector_switches(tree, exempt=None):
    """Lines that call ``json.load``/``json.loads`` or ``gc.disable``/``gc.enable`` (also under
    another name) or import one of them, outside the module-level function named ``exempt``."""
    names = {"json": {"load", "loads"}, "gc": {"disable", "enable"}}
    skipped = {n for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)}
    nodes = [n for n in ast.walk(tree) if n not in skipped]
    aliases = {a.asname or a.name: a.name for n in nodes if isinstance(n, ast.Import) for a in n.names if a.name in names}
    imports = {n.lineno for n in nodes if isinstance(n, ast.ImportFrom) and any(a.name in names.get(n.module, ()) for a in n.names)}
    calls = (n for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute))
    return sorted(imports | {n.lineno for n in calls if n.func.attr in names.get(aliases.get(getattr(n.func.value, "id", None)), ())})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cli_read_is_the_one_json_reader(path):
    # Every input document is parsed and decoded by cli._read, with the cyclic GC paused and
    # then restored there; nowhere else does the package parse JSON text or switch the GC.
    assert reads_and_collector_switches(ast.parse(path.read_text()), exempt="_read" if path.name == "cli.py" else None) == []


def test_the_reader_holds_the_reads_it_is_exempt_from():
    assert len(reads_and_collector_switches(ast.parse((SRC / "cli.py").read_text()))) == 3


def test_scan_flags_json_reads_and_collector_switches():
    tree = ast.parse(
        "import gc, json\n"
        "import json as j\n"
        "from gc import disable\n"
        "from json import dumps, loads as parse\n"
        "def _read(path):\n"
        "    gc.disable()\n"
        "    return json.load(open(path))\n"
        "x = j.loads(text) or json.dumps(doc) or gc.collect()\n"
        "def f():\n"
        "    gc.enable()\n"
        "    def _read():\n"
        "        return json.load(fh)\n"
    )
    assert reads_and_collector_switches(tree) == [3, 4, 6, 7, 8, 10, 12]
    assert reads_and_collector_switches(tree, exempt="_read") == [3, 4, 8, 10, 12]


def same_kind_imports(tree):
    """Lines that import ``_same_kind``, from any module and under any name."""
    imports = (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom))
    return sorted({n.lineno for n in imports if any(a.name == "_same_kind" for a in n.names)})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "order.py"], ids=lambda p: p.name)
def test_the_window_decides_what_a_label_names(path):
    # order._position holds the one label rule (in, index, Sampling and a callable join apply it);
    # elsewhere a label is asked of the window, not looked up in its index or checked
    # with misnamed.  space.py shares _same_kind for table symbols.
    tree = ast.parse(path.read_text())
    assert attribute_reads(tree, "misnamed") == attribute_reads(tree, "_index") == []
    assert path.name == "space.py" or same_kind_imports(tree) == []


def test_scan_flags_label_rule_reads():
    tree = ast.parse(
        "from .order import _same_kind\n"
        "from metastable.order import WindowError, _same_kind as kind\n"
        "bad = w.misnamed(labels) or w._index[a]\n"
        "index = w.index(a)\n"
    )
    assert same_kind_imports(tree) == [1, 2]
    assert attribute_reads(tree, "misnamed") == attribute_reads(tree, "_index") == [3]


def phrase_sites(source, phrase):
    """The innermost enclosing ``Class.function`` (else ``<module>``) of each line of ``source`` holding ``phrase``."""
    scopes = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                scopes.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    lines = [k for k, line in enumerate(source.splitlines(), 1) if phrase in line]
    return [max((s for s in scopes if s[0] <= k <= s[1]), default=(0, 0, "<module>"))[2] for k in lines]


def test_one_wording_says_a_label_names_no_element():
    # Every entry point asks the window's index, so its message is the only one; a
    # hand-written membership check would bring a second wording of the same fact.
    sites = [(p.name, site) for p in MODULES + [SRC / "__init__.py"] for site in phrase_sites(p.read_text(), "is not an element")]
    assert sites == [("order.py", "DirectedWindow.index")]


def test_scan_finds_the_phrase_by_function():
    source = (
        "class W:\n"
        "    def index(self, a):\n"
        "        raise E(f'{a!r} is not an element')\n"
        "def check(i):\n"
        '    """Raise when i is not an element."""\n'
        "X = 'is not an element'\n"
    )
    assert phrase_sites(source, "is not an element") == ["W.index", "check", "<module>"]


def window_table_reads(tree):
    """Lines that read a window's element table, ``_index`` or ``_elements``, as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("_index", "_elements"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "order.py"] + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_only_order_reads_the_element_table(path):
    # Every label crosses the one label rule (order._positions) through in, index or a bulk call of it.
    assert window_table_reads(ast.parse(path.read_text())) == []


def test_scan_flags_a_read_of_the_element_table():
    tree = ast.parse("w._index.get(a)\nw.elements[0]\nx = w._elements\nw._indices([a])\n")
    assert window_table_reads(tree) == [1, 3]


def label_function_samplings(tree):
    """Lines that build a sampling by calling a label function per element: ``from_function``, read as an attribute."""
    return attribute_reads(tree, "from_function")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "order.py"] + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_evidence_is_placed_by_position(path):
    # Refutation places its far blocks at positions (Sampling._with_blocks); labels are made only for the answer.
    assert label_function_samplings(ast.parse(path.read_text())) == []


def test_scan_flags_label_function_samplings():
    tree = ast.parse(
        "eta = Sampling.from_function(w, lambda i: {i})\n"
        "eta = order.Sampling.from_function(w, f)\n"
        "build = Sampling.from_function\n"
        "eta = Sampling._with_blocks(w, {0: [0, 1]})\n"
        "from_function = None\n"
    )
    assert label_function_samplings(tree) == [1, 2, 3]
