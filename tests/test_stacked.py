"""Stacked families: every array decision against the per-net oracles,
the bulk decode, and the nets that leave the library.

A family decoded from a list of nets, enumerated from a spec, or stacked
from nets given by a caller is one array; ``verify_rate`` and
``refute_uniform`` decide all of its members at once.  These tests hold
each such decision to the brute-force oracles of ``oracles.py``, which
loop over nets one pair at a time.
"""

import copy
import itertools
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from metastable import (
    Net,
    SpaceError,
    binary_space,
    build_rate,
    euclidean_space,
    half_line_space,
    make_omega_window,
    random_sampling,
    refute_uniform,
    replay_certificate,
    table_space,
    unit_interval_space,
    verify_rate,
)
from metastable.cli import main
from metastable.families import FamilySpec, enumerate_family, stack_family
from metastable.net import StackedFamily, cauchy_indices, stacked
from metastable.serialize import SchemaError, dumps, family_from_dict, net_from_dict, net_to_dict
from oracles import brute_cauchy_index, brute_pointed_witness, brute_refute_uniform, brute_witness, windows

TABLE = table_space(["a", ("p", 1), 2], [[0, 0.5, 1.0], [0.5, 0, 0.5], [1.0, 0.5, 0]])
# Points of each space kind on a grid that puts distances exactly on the tolerances.
KINDS = {
    "binary": (binary_space(), [0, 1]),
    "unit": (unit_interval_space(), [0.0, 0.25, 0.5, 1, 1.0]),
    "half-line": (half_line_space(), [0, 0.5, 1.5, 2, 3.0]),
    "euclidean": (euclidean_space(2), [(0.0, 0.0), (0.3, 0.4), (0, 1), (0.5, 1.0), (1.5, 0.0)]),
    "table": (TABLE, ["a", ("p", 1), 2]),
}
EPS = st.sampled_from([0.25, 0.5, 1.0, 1.5])


def _members(window, kind, data, count=None):
    space, points = KINDS[kind]
    point = st.sampled_from(points)
    count = count or data.draw(st.integers(1, 4))
    return [
        Net(window, space, tuple(data.draw(point) for _ in window.elements), target=data.draw(point))
        for _ in range(count)
    ]


def _three_ways(family):
    """The same members as a list of nets, stacked from their values, and decoded from JSON."""
    a = family[0]
    return [
        family,
        StackedFamily.from_rows(a.window, a.space, [m.values for m in family], [m.target for m in family]),
        family_from_dict(json.loads(dumps([net_to_dict(m) for m in family]))),
    ]


class TestVerifyMatchesOracles:
    @settings(max_examples=150, deadline=None)
    @given(windows(), st.sampled_from(sorted(KINDS)), st.booleans(), EPS, st.data())
    def test_every_window_element_as_candidate(self, window, kind, pointed, eps, data):
        # With the whole window as candidates, a member's outcome is its first witness.
        family = _members(window, kind, data)
        eta = random_sampling(window, random.Random(data.draw(st.integers(0, 10**6))))
        rate = build_rate({"r": eta}, lambda t, e: window.elements, thresholds=(eps,), pointed=pointed)
        if pointed:
            want = tuple(brute_pointed_witness(a, a.target, eps, eta) for a in family)
        else:
            want = tuple(brute_witness(a, eps, eta) for a in family)
        for given_family in _three_ways(family):
            assert verify_rate(given_family, rate, eps, "r").outcomes == want

    @settings(max_examples=150, deadline=None)
    @given(windows(), st.sampled_from(sorted(KINDS)), st.booleans(), EPS, st.data())
    def test_a_candidate_subset(self, window, kind, pointed, eps, data):
        # The outcome is the first candidate, in window order, that the oracle finds a witness.
        family = _members(window, kind, data)
        eta = random_sampling(window, random.Random(data.draw(st.integers(0, 10**6))))
        candidates = data.draw(st.sets(st.sampled_from(window.elements), min_size=1))
        rate = build_rate({"r": eta}, lambda t, e: candidates, thresholds=(eps,), pointed=pointed)
        want = tuple(next((i for i in window.elements if i in candidates and _witnesses(a, eps, eta, i, pointed)), None) for a in family)
        for given_family in _three_ways(family):
            assert verify_rate(given_family, rate, eps, "r").outcomes == want


def _witnesses(a, eps, eta, i, pointed):
    # Whether i witnesses ``a``: the oracles' raw pairwise loop over i's block.
    block = eta.at(i)
    if pointed:
        return all(a.space.dist(a.value(j), a.target) <= eps for j in block)
    return all(a.space.dist(a.value(j), a.value(k)) <= eps for j in block for k in block)


class TestCauchyMatchesOracles:
    @settings(max_examples=100, deadline=None)
    @given(windows(), st.sampled_from(sorted(KINDS)), st.data())
    def test_one_call_for_every_member(self, window, kind, data):
        family = _members(window, kind, data)
        grid = [1.5, 1.0, 0.5, 0.25]
        want = [tuple(brute_cauchy_index(a, eps) for eps in grid) for a in family]
        for given_family in _three_ways(family)[1:]:
            assert cauchy_indices(given_family, grid) == want
        assert [cauchy_indices(stacked([a]), grid)[0] for a in family] == want


class TestRefuteMatchesOracles:
    @settings(max_examples=120, deadline=None)
    @given(windows(), st.sampled_from(sorted(KINDS)), st.booleans(), EPS, st.data())
    def test_matches_the_exhaustive_oracle(self, window, kind, pointed, eps, data):
        assume(len(window) <= 4)
        family = _members(window, kind, data)
        sets = data.draw(st.lists(st.lists(st.sampled_from(window.elements), min_size=1, max_size=2), min_size=1, max_size=2))
        want = brute_refute_uniform(family, sets, eps, pointed=pointed)
        for given_family in _three_ways(family):
            got = refute_uniform(given_family, sets, eps, pointed=pointed)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.member == want.member and replay_certificate(got)

    @settings(max_examples=60, deadline=None)
    @given(windows(), st.sampled_from(["B", "B0", "C", "D", "paracompact"]), st.booleans(), st.data())
    def test_a_spec_decides_as_its_member_list(self, window, tag, pointed, data):
        assume(len(window) <= 10 and (window.is_chain() or tag in ("B", "B0", "C")))
        spec = FamilySpec(tag, window)
        members = list(enumerate_family(spec))
        assert list(stack_family(spec)) == members
        sets = data.draw(st.lists(st.lists(st.sampled_from(window.elements), min_size=1, max_size=3), min_size=1, max_size=2))
        got, want = refute_uniform(spec, sets, 0.5, pointed=pointed), refute_uniform(members, sets, 0.5, pointed=pointed)
        assert (got is None) == (want is None)
        closed_form = (tag, pointed) in (("C", False), ("D", True))
        if got is not None and not closed_form:
            assert got.member == want.member
        eta = random_sampling(window, random.Random(0))
        rate = build_rate({"r": eta}, lambda t, e: window.elements, thresholds=(0.5,), pointed=pointed)
        assert verify_rate(stack_family(spec), rate, 0.5, "r") == verify_rate(members, rate, 0.5, "r")


class TestNetsLeaveAsDecoded:
    def test_decoding_and_refuting_a_C12_list_builds_one_net(self, monkeypatch):
        w = make_omega_window(12)
        heads = list(itertools.product((0, 1), repeat=11))
        random.Random(5).shuffle(heads)
        docs = json.loads(dumps([net_to_dict(Net(w, binary_space(), h + (0,), target=0)) for h in heads]))
        # A member leaves as a view of its row (``__getitem__``) or as a one-member family (``Net``).
        built = []
        viewed, checked = StackedFamily.__getitem__, Net.__init__
        monkeypatch.setattr(StackedFamily, "__getitem__", lambda s, m: built.append((s, m)) or viewed(s, m))
        monkeypatch.setattr(Net, "__init__", lambda a, *args, **kwargs: built.append(args) or checked(a, *args, **kwargs))
        family = family_from_dict(docs)
        cert = refute_uniform(family, [[0, 5]], 0.5)
        assert cert is not None and cert.member.family is family and built == [(family, cert.member.k)]
        monkeypatch.undo()
        assert replay_certificate(cert) and cert.member == family[list(family).index(cert.member)]

    def test_a_decoded_family_shares_no_list_with_its_document(self):
        docs = json.loads(dumps([net_to_dict(Net(make_omega_window(3), binary_space(), (1, 0, 0), target=0))]))
        family = family_from_dict(docs)
        docs[0]["values"][0] = 7
        assert family[0].values == (1, 0, 0)

    @pytest.mark.parametrize("space, values", [
        (binary_space(), [(1, 0, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1)]),
        (unit_interval_space(), [(0.5, 1.0, 0.0, -0.0), (0.25, 0.125, 1.0, 0.75)]),
        (half_line_space(), [(2.5, 1e300, 0.0, 5e-324), (0.0, 0.0, 3.0, 7.5)]),
    ], ids=["binary", "unit-floats", "half-line-floats"])
    def test_binary_and_float_lists_read_their_members_off_the_array(self, space, values):
        # The array gives these values back exactly, so the family keeps no copy of its rows.
        w = make_omega_window(4)
        docs = json.loads(dumps([net_to_dict(Net(w, space, v, target=v[1])) for v in values]))
        family = family_from_dict(docs)
        assert family._rows is None
        assert list(family) == [net_from_dict(doc) for doc in docs] == [Net(w, space, v, target=v[1]) for v in values]
        assert [[type(x) for x in a.values] for a in family] == [list(map(type, v)) for v in values]
        assert dumps([net_to_dict(a) for a in family]) == dumps(docs)

    @pytest.mark.parametrize("space", [unit_interval_space(), half_line_space()], ids=["unit", "half-line"])
    def test_int_values_off_binary_space_keep_their_rows(self, space):
        # An int 1 read back off the float array would be 1.0, and write "1.0".
        docs = json.loads(dumps([net_to_dict(Net(make_omega_window(3), space, (1, 0.5, 0)))]))
        family = family_from_dict(docs)
        assert family._rows == [(1, 0.5, 0)] and [type(v) for v in family[0].values] == [int, float, int]

    def test_an_int_one_on_the_unit_interval_refutes_as_written(self, tmp_path):
        w = make_omega_window(4)
        path, cands, out = tmp_path / "family.json", tmp_path / "cands.json", tmp_path / "out"
        path.write_text(dumps([net_to_dict(Net(w, unit_interval_space(), (0.0, 0.0, 0.0, 0.0))),
                               net_to_dict(Net(w, unit_interval_space(), (0.0, 1, 0.0, 0.0)))]))
        cands.write_text("[[0]]")
        assert main(["refute", "--family", str(path), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)]) == 2
        text = out.read_text()
        assert json.loads(text)["member"]["values"] == [0.0, 1, 0.0, 0.0]
        assert '"values": [\n      0.0,\n      1,\n      0.0,' in text

    def test_members_hold_python_scalars(self):
        spec_members = [next(enumerate_family(FamilySpec(tag, make_omega_window(5)))) for tag in ("B", "C", "D", "paracompact")]
        doc = [{**net_to_dict(Net(make_omega_window(4), unit_interval_space(), (0, 1, 0.5, 1.0), target=1)), "values": [0, 1, 0.5, 1.0]}]
        for a in [*spec_members, *family_from_dict(json.loads(json.dumps(doc)))]:
            assert {type(v) for v in (*a.values, a.target)} <= {int, float}
        assert [type(v) for v in spec_members[0].values] == [int] * 5 and type(spec_members[3].values[0]) is float

    def test_a_mixed_int_float_list_round_trips_byte_identical(self):
        w = make_omega_window(4)
        text = dumps([net_to_dict(Net(w, unit_interval_space(), (0, 1, 0.5, 1.0), target=1)),
                      net_to_dict(Net(w, unit_interval_space(), (1.0, 0.0, 1, 0), target=0.0))])
        family = family_from_dict(json.loads(text))
        assert dumps([net_to_dict(a) for a in family]) == text
        assert family[0].values == (0, 1, 0.5, 1.0) and [type(v) for v in family[0].values] == [int, int, float, float]

    def test_a_certificate_member_writes_back_its_values(self, tmp_path):
        w = make_omega_window(6)
        docs = [net_to_dict(Net(w, unit_interval_space(), (1, 0.0, 1.0, 0, 0.5, 0.5), target=0.5))]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(docs))
        (tmp_path / "cands.json").write_text("[[0]]")
        assert main(["refute", "--family", str(path), "--candidates", str(tmp_path / "cands.json"), "--eps", "0.25",
                     "--out", str(tmp_path / "out")]) == 2
        assert json.loads((tmp_path / "out").read_text())["member"]["values"] == [1, 0.0, 1.0, 0, 0.5, 0.5]


class TestMembersAreRows:
    """A member is a view of one row of its family: it holds the family and its
    row number, reads its window, space, values, target and array from the
    family, and is made each time it is asked for."""

    ROWS = {
        "binary": (binary_space(), [(1, 0, 0), (0, 1, 1)], [0, None]),
        "unit-floats": (unit_interval_space(), [(0.5, -0.0, 1.0), (0.25, 0.75, 0.0)], [0.5, 0.25]),
        "unit-mixed": (unit_interval_space(), [(1, 0.5, 0), (0.0, 1, 1.0)], [1, None]),
        "euclidean": (euclidean_space(2), [((0.0, 1), (2.5, 0.0), (1, 1)), ((0.5, 0.5), (0, 0), (0.0, 3.0))], [(0, 0), None]),
        "table": (TABLE, [("a", 2, ("p", 1)), (2, 2, "a")], ["a", 2]),
    }

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_a_member_is_a_view_of_its_row(self, kind):
        space, rows, targets = self.ROWS[kind]
        w = make_omega_window(3)
        family = StackedFamily.from_rows(w, space, rows, targets)
        for k, (values, target) in enumerate(zip(rows, targets)):
            a = family[k]
            assert a.family is family and a.k == k and a.window is w and a.space is space
            assert a.values == values and [type(v) for v in a.values] == [type(v) for v in values] and a.target == target
            assert np.array_equal(a.array, family.array[k]) and np.array_equal(a.array, Net(w, space, values, target).array)
            assert family[k] is not a and family[k] == a and family.row(k) == values

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_a_value_is_the_entry_values_holds(self, kind):
        space, rows, targets = self.ROWS[kind]
        family = StackedFamily.from_rows(make_omega_window(3), space, rows, targets)
        for a in family:
            assert [(v, type(v)) for v in map(a.value, range(3))] == [(v, type(v)) for v in a.values]

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_a_value_is_read_without_its_row(self, kind, monkeypatch):
        # One position is read off the family (StackedFamily.item), not off a rebuilt row of n values.
        space, rows, targets = self.ROWS[kind]
        family = StackedFamily.from_rows(make_omega_window(3), space, rows, targets)
        want = [a.values for a in family]

        def refuse(self, k):
            raise AssertionError(f"row {k} read")

        monkeypatch.setattr(StackedFamily, "row", refuse)
        assert [tuple(map(a.value, range(3))) for a in family] == want
        assert family[0].dist(0, 2) == space.unchecked_dist(want[0][0], want[0][2])

    def test_a_net_is_the_one_member_of_its_family(self):
        a = Net(make_omega_window(3), binary_space(), (1, 0, 1), target=1)
        assert len(a.family) == 1 and a.k == 0 and a.family[0] == a and list(a.family) == [a]
        assert a.family.targets == [1] and a.family.array.tolist() == [[1.0, 0.0, 1.0]]

    def test_a_list_of_values_is_read_as_its_tuple(self):
        # Before, the net kept the caller's list: it did not hash, compared unequal to the
        # tuple-built net, and a later change to the list reached values but not array.
        w, values = make_omega_window(3), [0, 1, 1]
        a = Net(w, binary_space(), values)
        assert a == Net(w, binary_space(), (0, 1, 1)) and hash(a) == hash(Net(w, binary_space(), (0, 1, 1)))
        values[0] = 1
        assert type(a.values) is tuple and a.values == (0, 1, 1) and a.array.tolist() == [0.0, 1.0, 1.0]
        mixed = [1, 0.5, 0]  # kept as given, off the float array
        b = Net(w, unit_interval_space(), mixed)
        mixed[1] = 0.25
        assert b.values == (1, 0.5, 0) and type(b.values[0]) is int

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_a_member_round_trips_through_pickle_and_copy(self, kind):
        space, rows, targets = self.ROWS[kind]
        a = StackedFamily.from_rows(make_omega_window(3), space, rows, targets)[1]
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and b.k == 1 and np.array_equal(b.array, a.array)

    def test_members_compare_as_their_fields(self):
        w = make_omega_window(2)
        a = Net(w, binary_space(), (0, 1), target=1)
        assert a != Net(w, binary_space(), (0, 1)) and a != Net(w, unit_interval_space(), (0, 1), target=1)
        assert a != (w, binary_space(), (0, 1), 1) and len({a, Net(w, binary_space(), (0, 1), target=1)}) == 1
        assert repr(a) == f"Net(window={w!r}, space={binary_space()!r}, values=(0, 1), target=1)"

    @pytest.mark.parametrize("rows, targets", [([(0, 1, 1), (1, 1, 1)], [None]), ([(0, 1, 1)], [None, None])])
    def test_one_target_per_row(self, rows, targets):
        # Before, a family took the target count as its length: the kernels decided a
        # row that was no member, or a member had no row.
        with pytest.raises(ValueError, match=f"{len(rows)} rows has {len(targets)} targets"):
            StackedFamily.from_rows(make_omega_window(3), binary_space(), rows, targets)
        with pytest.raises(ValueError, match=f"{len(rows)} rows has {len(targets)} targets"):
            StackedFamily(make_omega_window(3), binary_space(), np.array(rows, float), targets)


class TestRowsOffScalarSpaces:
    """A family built from an array alone reads its members off that array, which
    holds their values only on scalar spaces (Euclidean: one row per axis; tables:
    symbol positions), so elsewhere it needs the rows as given."""

    @pytest.mark.parametrize("space, values", [(euclidean_space(2), ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))), (TABLE, ("a", 2, ("p", 1)))])
    def test_no_rows_off_scalar_spaces_is_refused(self, space, values):
        w = make_omega_window(3)
        family = stacked([Net(w, space, values)])
        assert family[0].values == values
        with pytest.raises(ValueError, match="rows"):
            StackedFamily(w, space, family.array.copy(), family.targets)

    def test_scalar_members_are_the_arrays_values(self):
        w = make_omega_window(3)
        family = StackedFamily(w, binary_space(), np.array([[1.0, 0.0, 0.0]]), [0])
        assert family[0] == Net(w, binary_space(), (1, 0, 0), target=0)


class TestTableExactness:
    """A table point names a symbol of its own kind: a bool names only a bool, a float only a float."""

    SPACE = table_space([1, 2, True], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    @pytest.mark.parametrize("point", [True, 2.0, 1.0, (1,), False])
    def test_an_equal_value_of_another_kind_is_no_point(self, point):
        # Before, (True, 2.0) was accepted on symbols [1, 2] and measured as (1, 2).
        space = table_space([1, 2], [[0, 1], [1, 0]])
        assert not space.contains(point)
        with pytest.raises(SpaceError, match="is not a point"):
            Net(make_omega_window(1), space, (point,))

    def test_each_kind_names_its_own_symbol(self):
        a = Net(make_omega_window(3), self.SPACE, (1, 2, True))
        assert a.array.tolist() == [0, 1, 2] and a.dist(0, 2) == 1.0
        assert StackedFamily.from_rows(a.window, self.SPACE, [(True, 1, 2)], [None]).array.tolist() == [[2, 0, 1]]

    def test_a_decoded_list_exits_three(self, tmp_path, capsys):
        space = table_space([1, 2], [[0, 1], [1, 0]])
        doc = {**net_to_dict(Net(make_omega_window(2), space, (1, 2))), "values": [True, 2.0]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps([doc]))
        assert main(["analyze", "--family", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "True is not a point" in capsys.readouterr().err


class TestValuesAreJsonLists:
    SPACE = table_space(["a", "b"], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("values", ["ab", 1, {"a": 0}, None])
    def test_values_that_are_no_list_are_a_schema_error(self, tmp_path, values):
        # Before, "ab" decoded to the points ('a', 'b').
        doc = {**net_to_dict(Net(make_omega_window(2), self.SPACE, ("a", "b"))), "values": values}
        with pytest.raises(SchemaError, match="JSON list"):
            family_from_dict([doc])
        path = tmp_path / "family.json"
        path.write_text(json.dumps([doc]))
        assert main(["analyze", "--family", str(path), "--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("point", [0.5, "ab", None, {"x": 1}])
    def test_a_euclidean_point_must_be_a_list(self, point):
        doc = net_to_dict(Net(make_omega_window(2), euclidean_space(1), ((0.5,), (1.0,))))
        doc["values"][1] = point
        with pytest.raises(SchemaError, match="JSON list of coordinates"):
            family_from_dict([json.loads(json.dumps(doc))])
