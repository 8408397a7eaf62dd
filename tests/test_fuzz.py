"""Decoder fuzz test: mutated documents end in a documented outcome.

Valid documents of every kind are mutated (a node replaced by another
JSON value, a key or list entry deleted) and fed to every
``serialize.*_from_dict`` and, as files, to every CLI subcommand.  A
decoder may return or raise one of the errors the CLI maps to an exit
code; the CLI must exit 0, 2, 3, 4 or 5 and never raise.  Net lists of
every space kind whose values mix points with bools, non-finite floats,
ints beyond 2**53, strings, null and nested lists take the same path, and
so does CSV text through ``analyze --csv``.  Integers stay small, so no
document asks for a huge window.
"""

import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    CheckError,
    Net,
    binary_space,
    build_rate,
    euclidean_space,
    half_line_space,
    identity_sampling,
    make_custom_window,
    make_omega_window,
    product,
    successor_sampling,
    table_space,
    unit_interval_space,
)
from metastable.cli import main
from metastable.families import FamilySpec, rate_B, refute_C
from metastable.serialize import (
    SchemaError,
    certificate_from_dict,
    certificate_to_dict,
    family_from_dict,
    family_spec_from_dict,
    family_spec_to_dict,
    net_from_dict,
    net_to_dict,
    rate_from_dict,
    rate_to_dict,
    sampling_from_dict,
    sampling_to_dict,
    space_from_dict,
    space_to_dict,
    window_from_dict,
    window_to_dict,
)
from oracles import diamond

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([0.5, 1.0, -0.0, 1e300, math.nan, math.inf]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4
)


def _json(doc):
    return json.loads(json.dumps(doc))


W4 = make_omega_window(4)
CUSTOM = make_custom_window([0, 1, 2], lambda x, y: x <= y, max)
B_RATE = build_rate({"id": identity_sampling(W4), "succ": successor_sampling(W4)}, lambda t, eta: rate_B(eta, W4), thresholds=(0.5, 0.25))

DOCUMENTS = {
    window_from_dict: [
        window_to_dict(W4),
        window_to_dict(product(make_omega_window(2), CUSTOM)),
        window_to_dict(CUSTOM),
        window_to_dict(diamond()),
    ],
    sampling_from_dict: [sampling_to_dict(identity_sampling(CUSTOM)), sampling_to_dict(successor_sampling(W4))],
    space_from_dict: [
        space_to_dict(binary_space()),
        space_to_dict(euclidean_space(2)),
        space_to_dict(table_space(["x", "y"], [[0, 1], [1, 0]])),
    ],
    net_from_dict: [
        net_to_dict(Net(W4, binary_space(), (1, 1, 0, 0), target=0)),
        net_to_dict(Net(CUSTOM, unit_interval_space(), (0.5, 0.25, 0.0), target=0.0)),
        net_to_dict(Net(make_omega_window(2), euclidean_space(2), ((0.0, 1.0), (0.5, 0.5)))),
    ],
    rate_from_dict: [rate_to_dict(B_RATE)],
    certificate_from_dict: [certificate_to_dict(refute_C({0, 1}, make_omega_window(5), 0.5))],
    family_spec_from_dict: [
        family_spec_to_dict(FamilySpec("B", W4)),
        family_spec_to_dict(FamilySpec("D", make_omega_window(6), {"alphas": [1, 3]})),
        family_spec_to_dict(FamilySpec("paracompact", make_omega_window(6), {"n_points": 3})),
        family_spec_to_dict(FamilySpec("C", CUSTOM)),
    ],
    family_from_dict: [
        family_spec_to_dict(FamilySpec("B", W4)),
        [net_to_dict(Net(W4, binary_space(), (1, 1, 0, 0), target=0)), net_to_dict(Net(W4, binary_space(), (1, 0, 0, 0), target=0))],
        [net_to_dict(Net(W4, table_space(["a", "b"], [[0, 1], [1, 0]]), ("a", "b", "a", "b"), target="b"))],
        [net_to_dict(Net(make_omega_window(2), euclidean_space(2), ((0.0, 1.0), (0.5, 0.5)), target=(0.5, 0.5)))],
    ],
}
DOCUMENTS = {decode: [_json(d) for d in docs] for decode, docs in DOCUMENTS.items()}


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _like(node):
    # A value of the node's own JSON type half the time, so that numbers
    # stay numbers often enough to reach range checks.
    for kind, values in ((bool, st.booleans()), (int, st.integers(-3, 12)), (float, LEAVES), (str, st.text(max_size=3))):
        if type(node) is kind:
            return st.one_of(values, VALUES)
    return VALUES


def _mutate(doc, draw):
    """One to three mutations of a deep copy of ``doc``."""
    doc = _json(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_like(parent[path[-1]]))
        else:
            del parent[path[-1]]
    return doc


@pytest.mark.parametrize("decode", DOCUMENTS, ids=lambda f: f.__name__)
@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_decoders_raise_only_documented_errors(decode, data):
    doc = _mutate(data.draw(st.sampled_from(DOCUMENTS[decode])), data.draw)
    try:
        decode(doc)
    except (ValueError, CheckError):  # SchemaError, WindowError, SpaceError, RateError, FamilyError
        pass


B_FAMILY = [net_to_dict(a) for a in (Net(W4, binary_space(), (1, 0, 0, 0), target=0), Net(W4, binary_space(), (1, 1, 1, 1), target=1))]
GRID_FAMILY = [net_to_dict(Net(product(make_omega_window(2), CUSTOM), unit_interval_space(), (0.5, 0.25, 0.0, 1.0, 0.75, 0.5)))]
# A family lives on one window and one space; these two lists break that rule.
MIXED_WINDOWS = [B_FAMILY[0], net_to_dict(Net(make_omega_window(5), binary_space(), (1, 0, 0, 0, 0), target=0))]
MIXED_SPACES = [B_FAMILY[0], net_to_dict(Net(W4, unit_interval_space(), (1.0, 0.0, 0.0, 0.0), target=0.0))]

COMMANDS = {
    "verify": (["verify", "--family", "@family", "--rate", "@rate", "--eps", "0.5"],
               {"family": [family_spec_to_dict(FamilySpec("B", W4)), B_FAMILY, MIXED_WINDOWS, MIXED_SPACES], "rate": [rate_to_dict(B_RATE)]}),
    "refute": (["refute", "--family", "@family", "--candidates", "@candidates", "--eps", "0.5"],
               {"family": [family_spec_to_dict(FamilySpec("C", make_omega_window(6))), B_FAMILY, MIXED_WINDOWS, MIXED_SPACES], "candidates": [[[0, 1], [2]]]}),
    "refute-pointed": (["refute", "--family", "@family", "--candidates", "@candidates", "--eps", "0.5", "--pointed"],
                       {"family": [family_spec_to_dict(FamilySpec("D", make_omega_window(6))), B_FAMILY, MIXED_WINDOWS], "candidates": [[[0, 1]]]}),
    "analyze": (["analyze", "--family", "@family"], {"family": [B_FAMILY, GRID_FAMILY, MIXED_WINDOWS, MIXED_SPACES]}),
}


@FUZZ
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_cli_exits_with_a_documented_code(command, data):
    argv, inputs = COMMANDS[command]
    mutated = data.draw(st.sampled_from(sorted(inputs)))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, docs in inputs.items():
            doc = data.draw(st.sampled_from(docs))
            files[name] = pathlib.Path(tmp, f"{name}.json")
            files[name].write_text(json.dumps(_mutate(doc, data.draw) if name == mutated else doc))
        code = main([str(files[a[1:]]) if a.startswith("@") else a for a in argv] + ["--out", str(pathlib.Path(tmp, "out"))])
    assert code in (0, 2, 3, 4, 5)


SPACES = [binary_space(), unit_interval_space(), half_line_space(), euclidean_space(2), table_space(["x", ("p", 1)], [[0, 1], [1, 0]])]
# Values that a bulk point check must not wave through: bools, non-finite
# floats, ints beyond 2**53, strings, null and nested lists, next to points.
ODD_SCALARS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(2**53 + 1, 2**64) | st.integers(-(2**64), -(2**53 + 1)),
    st.text(max_size=3),
    st.none(),
)
ODD_VALUES = st.one_of(
    ODD_SCALARS,
    st.lists(ODD_SCALARS | st.integers(-1, 2), max_size=3),
    st.sampled_from([0, 1, 0.5, 2.0, [0.5, 1.0], [3, -4], "x", ["p", 1], ["x"]]),
)


POINTS = {  # JSON points of each space in SPACES
    "binary-discrete": st.sampled_from([0, 1]),
    "unit-interval": st.floats(0.0, 1.0),
    "half-line": st.floats(0.0, 1e300) | st.integers(0, 2**53),
    "euclidean": st.lists(st.floats(-1e300, 1e300) | st.integers(-(2**53), 2**53), min_size=2, max_size=2),
    "custom-table": st.sampled_from(["x", ["p", 1]]),
}


def _odd_net(space, draw):
    # Points of the space with zero to two of them replaced by odd values.
    values = draw(st.lists(POINTS[space.kind], min_size=4, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, 3))] = draw(ODD_VALUES)
    return {**net_to_dict(Net(W4, binary_space(), (1, 0, 0, 0))), "space": space_to_dict(space),
            "values": values, "target": draw(st.none() | POINTS[space.kind] | ODD_VALUES)}


@FUZZ
@given(st.sampled_from(SPACES), st.data())
def test_net_lists_with_odd_values_end_in_a_documented_outcome(space, data):
    family = _json([_odd_net(space, data.draw) for _ in range(data.draw(st.integers(1, 2)))])
    try:
        family_from_dict(family)
    except ValueError:  # SchemaError, SpaceError
        pass
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: pathlib.Path(tmp, f"{name}.json") for name in ("family", "rate", "candidates")}
        files["family"].write_text(json.dumps(family))
        files["rate"].write_text(json.dumps(rate_to_dict(B_RATE)))
        files["candidates"].write_text(json.dumps([[0, 1], [2]]))
        out = ["--out", str(pathlib.Path(tmp, "out"))]
        for argv in (
            ["verify", "--family", files["family"], "--rate", files["rate"], "--eps", "0.5"],
            ["refute", "--family", files["family"], "--candidates", files["candidates"], "--eps", "0.5"],
            ["analyze", "--family", files["family"]],
        ):
            assert main([str(a) for a in argv] + out) in (0, 2, 3, 4, 5)


NO_LIST = st.one_of(LEAVES, st.dictionaries(st.text(max_size=3), LEAVES, max_size=2))


@FUZZ
@given(st.sampled_from(SPACES), st.data())
def test_net_values_that_are_no_json_list_are_a_schema_error(space, data):
    # A string was split into one-character points; a Euclidean point must be a list too.
    family = [_odd_net(space, data.draw) for _ in range(data.draw(st.integers(1, 2)))]
    member = data.draw(st.sampled_from(family))
    if space.kind == "euclidean" and data.draw(st.booleans()):
        member["values"][data.draw(st.integers(0, 3))] = data.draw(NO_LIST)
    else:
        member["values"] = data.draw(NO_LIST)
    with pytest.raises(SchemaError):
        family_from_dict(_json(family))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "family.json")
        path.write_text(json.dumps(family))
        assert main(["analyze", "--family", str(path), "--out", str(pathlib.Path(tmp, "out"))]) == 4


CSV_CELLS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0.0", "1e400", "nan", "2", '"1"', "", "9" * 131073]),
    st.text(max_size=4),
)
CSV_BYTES = st.lists(st.lists(CSV_CELLS, min_size=1, max_size=3).map(",".join), min_size=1, max_size=4).map(
    lambda rows: "\n".join(rows).encode("utf-8")
)


@FUZZ
@given(CSV_BYTES, st.sampled_from([[], ["--space", "binary"], ["--space", "euclidean", "--dim", "2"]]), st.booleans())
def test_csv_input_exits_with_a_documented_code(data, space, latin):
    # Any text, an oversized field or bytes that are not UTF-8 end in a documented code, never a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "data.csv")
        path.write_bytes(data + b"\xe9" if latin else data)
        code = main(["analyze", "--csv", str(path), *space, "--out", str(pathlib.Path(tmp, "out"))])
    assert code in (0, 2, 3, 4)


@FUZZ
@given(st.sampled_from(["b-rate", "c-refute", "d-refute", "paracompact", "cesaro", "lukasiewicz"]), st.integers(-2, 12))
def test_demo_exits_with_a_documented_code(scenario, size):
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["demo", scenario, "--size", str(size), "--seed", "0", "--out", str(pathlib.Path(tmp, "out"))])
    assert code in (0, 3)
