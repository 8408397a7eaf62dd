import collections
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    SpaceError,
    binary_space,
    distance_to_point,
    euclidean_space,
    half_line_space,
    make_omega_window,
    mutual_distance,
    product,
    self_distance,
    table_space,
    unit_interval_space,
    window_cauchy_index,
    cesaro_rotation_nets,
)
from metastable.meta import is_witness
from metastable.net import StackedFamily
from oracles import all_samplings, brute_cauchy_index, brute_table_fault, label_chain, random_binary_net, random_unit_net


class TestSpaces:
    def test_binary(self):
        s = binary_space()
        assert s.dist(0, 1) == 1.0 and s.dist(1, 1) == 0.0
        assert s.diameter_bound == 1.0

    def test_unit_interval_rejects_outside(self):
        with pytest.raises(SpaceError):
            unit_interval_space().require(1.5)

    def test_dist_checks_points(self):
        with pytest.raises(SpaceError):
            unit_interval_space().dist(0.5, 1.5)
        with pytest.raises(SpaceError):
            euclidean_space(2).dist((0.0, 0.0), (1.0,))

    def test_euclidean(self):
        s = euclidean_space(2)
        assert s.dist((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_table_checked(self):
        s = table_space(["x", "y", "z"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert s.dist("x", "z") == 2.0
        assert s.diameter_bound == 2.0

    def test_table_triangle_violation(self):
        with pytest.raises(SpaceError):
            table_space(["x", "y", "z"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_table_asymmetry(self):
        with pytest.raises(SpaceError):
            table_space(["x", "y"], [[0, 1], [2, 0]])

    @pytest.mark.parametrize("seed", range(80))
    def test_table_checks_name_the_first_fault_the_loops_name(self, seed):
        # A metric (points on a line, or shortest paths), then a few planted faults of some
        # kinds: the numpy passes must name the pair or triple the row-by-row loops name first.
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        if seed % 2:
            points = [rng.choice([rng.randint(0, 4), rng.random(), rng.uniform(0, 1e308)]) for _ in range(n)]
            table = [[abs(x - y) for y in points] for x in points]
        else:
            table = [[0.0 if p == q else rng.choice([0.1, 0.2, 0.3, 0.1 + 0.2, 1, 2.5]) for q in range(n)] for p in range(n)]
            for p in range(n):
                table[p] = [min(table[p][q], table[q][p]) for q in range(n)]
            for k, p, q in itertools.product(range(n), repeat=3):  # Floyd-Warshall: a metric up to rounding
                table[p][q] = min(table[p][q], table[p][k] + table[k][q])
        kinds = rng.choice([["triangle"], ["triangle"], ["diagonal", "asymmetric"], ["diagonal", "asymmetric", "triangle"]])
        for _ in range(rng.randint(0, 4)):
            p, q = rng.sample(range(n), 2)
            kind = rng.choice(kinds)
            if kind == "diagonal":
                table[p][p] = rng.choice([1, 0.5])
            elif kind == "asymmetric":
                table[p][q] = math.nextafter(table[p][q], math.inf)
            else:
                table[p][q] = table[q][p] = table[p][q] * 1.5 + 1
        symbols = [f"s{p}" for p in range(n)]
        expected = brute_table_fault(symbols, table)
        if expected is None:
            assert table_space(symbols, table).table == tuple(tuple(map(float, row)) for row in table)
        else:
            with pytest.raises(SpaceError) as info:
                table_space(symbols, table)
            assert str(info.value) == expected

    def test_the_triangle_check_adds_in_binary64(self):
        # 0.1 + 0.2 is 0.30000000000000004: a side of exactly that length passes, the next float fails.
        for side, fails in [(0.1 + 0.2, False), (math.nextafter(0.1 + 0.2, 1.0), True), (0.3, False)]:
            table = [[0, 0.1, side], [0.1, 0, 0.2], [side, 0.2, 0]]
            assert brute_table_fault("xyz", table) == ("triangle inequality fails at 'x', 'y', 'z'" if fails else None)
            if fails:
                with pytest.raises(SpaceError, match="'x', 'y', 'z'"):
                    table_space("xyz", table)
            else:
                table_space("xyz", table)

    def test_a_sum_past_the_float_range_is_no_fault(self):
        big = 1.5e308
        assert table_space("xyz", [[0, big, big], [big, 0, big], [big, big, 0]]).diameter_bound == big

    @pytest.mark.parametrize("entry", ["1.5", False, True, math.nan, math.inf, None])
    def test_table_entries_are_finite_reals(self, entry):
        # Strings and bools were coerced by float(); NaN broke the checks.
        with pytest.raises(SpaceError, match="finite reals"):
            table_space(["x", "y"], [[0, entry], [entry, 0]])

    @pytest.mark.parametrize("eps", [True, False, 0, -1.0, math.nan, math.inf, "0.5"])
    def test_require_eps_rejects_bools_and_non_tolerances(self, eps):
        from metastable.net import require_eps

        with pytest.raises(ValueError, match="eps must be"):
            require_eps(eps)

    @pytest.mark.parametrize(
        "space, point",
        [
            (unit_interval_space(), True),
            (unit_interval_space(), math.nan),
            (half_line_space(), math.inf),
            (half_line_space(), math.nan),
            (half_line_space(), "1"),
            (half_line_space(), 2**53 + 1),  # not a binary64 value
            # A binary64 value, but int subtraction from it is not binary64:
            # 2**60 - 255 is exact as an int and rounds as a float.
            (half_line_space(), 2**60),
            (euclidean_space(2), (math.nan, 0.0)),
            (euclidean_space(2), (0.0, -math.inf)),
            (euclidean_space(2), ("a", 0.0)),
            (euclidean_space(2), (False, 0.0)),
            (euclidean_space(2), [0.0, 0.0]),
        ],
    )
    def test_rejects_points_that_are_not_finite_binary64(self, space, point):
        assert not space.contains(point)
        with pytest.raises(SpaceError):
            Net(make_omega_window(1), space, (point,))

    @pytest.mark.parametrize(
        "space, point",
        [
            (unit_interval_space(), 1),
            (half_line_space(), 2**53),
            (half_line_space(), 1e300),
            (euclidean_space(2), (-3, 0.5)),
        ],
    )
    def test_accepts_finite_binary64_points(self, space, point):
        assert space.contains(point)


class _Int(int):
    pass


_Point = collections.namedtuple("_Point", "x y")
# Values at the edges of the point check: bools and floats on binary (which
# the bulk test for exact ints in {0, 1} must leave to ``require``),
# non-finite floats, ints at and beyond 2**53, signed zero, the least
# subnormal, float and int subclasses, lists, tuples of the wrong length or
# type, and unhashable values (which a table space must still look up).
EDGE_VALUES = [
    True, False, 1.0, 0.0, 0, 1, -1, 2, 0.5, 1.5, -0.0, 5e-324, 1e300, -1e300,
    math.nan, math.inf, -math.inf,
    2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 2**60, 10**400,
    np.float64(0.25), np.float64(math.nan), np.int64(1), _Int(1), _Int(2**60),
    "x", "a", None, [1], [0.5, 0.5], {}, {"a": 1},
    (0.5,), (0.5, 0.25), (0.5, 0.25, 0.0), (1, 2**53 + 1), (True, 0.0), (math.inf, 0.0),
    ("p", 1), ["p", 1], _Point(0.5, 0.25),
]
REAL = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**53), 2**53))
POINT_SPACES = {
    "binary": (binary_space(), st.sampled_from([0, 1])),
    "unit": (unit_interval_space(), st.one_of(st.floats(0.0, 1.0), st.integers(0, 1))),
    "half-line": (half_line_space(), st.one_of(st.floats(0.0, allow_infinity=False), st.integers(0, 2**53))),
    "euclidean": (euclidean_space(2), st.tuples(REAL, REAL)),
    "table": (table_space(["a", ("p", 1), 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]), st.sampled_from(["a", ("p", 1), 2])),
}


def _net(space, values, target=None):
    return Net(make_omega_window(len(values)), space, values, target=target)


class TestEuclideanDim:
    @pytest.mark.parametrize("dim", [True, 2.0, "2", None])
    def test_dim_is_an_int_that_is_not_a_bool(self, dim):
        # true and 2.0 were accepted and written back as the dimension.
        with pytest.raises(TypeError, match="dimension must be an int"):
            euclidean_space(dim)

    def test_nonpositive_dim_is_a_space_error(self):
        with pytest.raises(SpaceError):
            euclidean_space(0)


class TestNetPointCheck:
    """A net's values and target are accepted exactly when each passes
    ``require``, and otherwise the first non-point, in order, is named."""

    @pytest.mark.parametrize("kind", sorted(POINT_SPACES))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_accepts_exactly_the_points_and_names_the_first_other(self, kind, data):
        space, points = POINT_SPACES[kind]
        values = data.draw(st.lists(points, min_size=1, max_size=5))
        for v in data.draw(st.lists(st.sampled_from(EDGE_VALUES), max_size=2)):
            values.insert(data.draw(st.integers(0, len(values))), v)
        target = data.draw(st.one_of(st.none(), points, st.sampled_from(EDGE_VALUES)))
        values = tuple(values)
        try:  # the oracle: one ``require`` per value, in order, then the target
            for v in values if target is None else (*values, target):
                space.require(v)
        except SpaceError as exc:
            with pytest.raises(type(exc)) as err:
                _net(space, values, target)
            assert str(err.value) == str(exc)
        else:
            a = _net(space, values, target)
            assert type(a.values) is tuple and a.values == values and list(map(type, a.values)) == list(map(type, values))

    @pytest.mark.parametrize("kind", sorted(POINT_SPACES))
    def test_every_edge_value_alone_and_behind_points(self, kind):
        space, _ = POINT_SPACES[kind]
        point = {"binary": 0, "unit": 0.5, "half-line": 2.0, "euclidean": (0.0, 1.0), "table": "a"}[kind]
        for v in EDGE_VALUES:
            accepted = space.contains(v)
            cases = [((v,), None), ((point, v, point), None)] + [((point,), v)] * (v is not None)
            for values, target in cases:
                if accepted:
                    _net(space, values, target)
                else:
                    with pytest.raises(SpaceError, match=f"^{re.escape(repr(v))} is not a point"):
                        _net(space, values, target)

    @pytest.mark.parametrize("kind", sorted(POINT_SPACES))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_stacked_family_accepts_exactly_the_points_and_names_the_first_other(self, kind, data):
        # The array decoder's one bulk test against one ``require`` per value,
        # member by member with its length first and its values before its target.
        space, points = POINT_SPACES[kind]
        n = data.draw(st.integers(1, 4))
        rows, targets = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            values = data.draw(st.lists(points, min_size=n, max_size=n))
            for v in data.draw(st.lists(st.sampled_from(EDGE_VALUES), max_size=2)):
                values[data.draw(st.integers(0, n - 1))] = v
            if data.draw(st.integers(0, 4)) == 0:
                values = values[1:] if data.draw(st.booleans()) else values + values[:1]
            rows.append(tuple(values))
            targets.append(data.draw(st.one_of(st.none(), points, st.sampled_from(EDGE_VALUES))))
        try:
            for values, target in zip(rows, targets):
                if len(values) != n:
                    raise SpaceError(f"net has {len(values)} values for a window of {n}")
                for v in values if target is None else (*values, target):
                    space.require(v)
        except SpaceError as exc:
            with pytest.raises(type(exc)) as err:
                StackedFamily.from_rows(make_omega_window(n), space, rows, targets)
            assert str(err.value) == str(exc)
        else:
            family = StackedFamily.from_rows(make_omega_window(n), space, rows, targets)
            assert [(a.values, a.target) for a in family] == list(zip(rows, targets))
            for a, values, target in zip(family, rows, targets):
                assert np.array_equal(a.array, _net(space, values, target).array)

    @pytest.mark.parametrize("kind", sorted(POINT_SPACES))
    def test_every_edge_value_in_a_stacked_family(self, kind):
        space, _ = POINT_SPACES[kind]
        point = {"binary": 0, "unit": 0.5, "half-line": 2.0, "euclidean": (0.0, 1.0), "table": "a"}[kind]
        for v in EDGE_VALUES:
            cases = [([(v,)], [None]), ([(point, point), (point, v)], [point, None])]
            cases += [([(point,), (point,)], [None, v])] * (v is not None)
            for rows, targets in cases:
                if space.contains(v):
                    StackedFamily.from_rows(make_omega_window(len(rows[0])), space, rows, targets)
                else:
                    with pytest.raises(SpaceError, match=f"^{re.escape(repr(v))} is not a point"):
                        StackedFamily.from_rows(make_omega_window(len(rows[0])), space, rows, targets)


class TestTableSymbols:
    SPACE = table_space(["a", ("p", 1), 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    @pytest.mark.parametrize("point", [np.float64(0.25), np.float64(math.nan), np.int64(1), np.array([1.0, 2.0])])
    def test_numpy_value_against_a_tuple_symbol_is_no_point(self, point):
        # Comparing it with ("p", 1) gives an array; that is no match.
        assert not self.SPACE.contains(point)
        with pytest.raises(SpaceError, match="is not a point"):
            Net(make_omega_window(1), self.SPACE, (point,))

    def test_numpy_value_equal_to_a_symbol_still_matches(self):
        # Of its own kind: numpy's float64 is a float, so it names no int symbol.
        a = Net(make_omega_window(2), self.SPACE, (np.int64(2), "a"))
        assert self.SPACE.contains(np.int64(2)) and not self.SPACE.contains(np.float64(2.0))
        assert a.dist(0, 1) == 2.0 and a.array.tolist() == [2, 0]


class TestNet:
    def test_length_mismatch(self):
        with pytest.raises(SpaceError):
            Net(make_omega_window(3), binary_space(), (0, 1))

    def test_value_outside_space(self):
        with pytest.raises(SpaceError):
            Net(make_omega_window(2), binary_space(), (0, 2))

    @pytest.mark.parametrize("values", [(True, 0), (0.0, 1), (1, 1.0), (False, True)])
    def test_binary_points_are_the_ints_0_and_1(self, values):
        # The decoder reads binary points as they stand, so a net built with
        # bools or floats would encode to a document it cannot decode.
        assert not binary_space().contains(values[0]) or not binary_space().contains(values[1])
        with pytest.raises(SpaceError):
            Net(make_omega_window(2), binary_space(), values)


class TestSelfDistance:
    def test_constant_net_is_zero(self):
        w = make_omega_window(4)
        a = Net(w, binary_space(), (1, 1, 1, 1))
        sd = self_distance(a)
        assert all(v == 0.0 for v in sd.values)

    def test_discrete_values(self):
        w = make_omega_window(2)
        sd = self_distance(Net(w, binary_space(), (1, 0)))
        assert sd.value((0, 0)) == 0.0
        assert sd.value((0, 1)) == 1.0
        assert sd.value((1, 0)) == 1.0
        assert sd.value((1, 1)) == 0.0

    def test_symmetry_random(self):
        rng = random.Random(31)
        for _ in range(100):
            w = make_omega_window(rng.randint(1, 6))
            a = random_unit_net(w, rng)
            sd = self_distance(a)
            for i in w.elements:
                for j in w.elements:
                    assert sd.value((i, j)) == sd.value((j, i))

    def test_diagonal_zero(self):
        rng = random.Random(32)
        w = make_omega_window(5)
        sd = self_distance(random_unit_net(w, rng))
        assert all(sd.value((i, i)) == 0.0 for i in w.elements)

    def test_target_is_zero(self):
        a = Net(make_omega_window(2), binary_space(), (0, 1))
        assert self_distance(a).target == 0.0

    def test_mutual_distance_shape(self):
        w = make_omega_window(2)
        a = Net(w, binary_space(), (1, 0))
        b = Net(w, binary_space(), (0, 0))
        md = mutual_distance(a, b)
        assert md.window == product(w, w)
        assert md.value((0, 1)) == 1.0


class TestDistanceToPoint:
    def test_constant_at_target(self):
        w = make_omega_window(3)
        a = Net(w, unit_interval_space(), (0.3, 0.3, 0.3))
        assert distance_to_point(a, 0.3).values == (0.0, 0.0, 0.0)

    def test_discrete(self):
        w = make_omega_window(4)
        a = Net(w, binary_space(), (1, 1, 0, 0))
        assert distance_to_point(a, 0).values == (1.0, 1.0, 0.0, 0.0)

    def test_cesaro_quarter_turn_index_4(self):
        # averages of the quarter-turn orbit: the first four steps cancel
        net = cesaro_rotation_nets([math.pi / 2], 8)[0]
        d = distance_to_point(net, (0.0, 0.0))
        assert d.value(4) == 0.0

    def test_lipschitz_in_base_point(self):
        rng = random.Random(77)
        w = make_omega_window(6)
        a = random_unit_net(w, rng)
        for _ in range(50):
            b, b2 = rng.random(), rng.random()
            da, da2 = distance_to_point(a, b), distance_to_point(a, b2)
            for i in w.elements:
                assert abs(da.value(i) - da2.value(i)) <= abs(b - b2) + 1e-15


class TestWindowCauchyIndex:
    def test_constant(self):
        a = Net(make_omega_window(5), binary_space(), (1,) * 5)
        assert window_cauchy_index(a, 0.01) == 0

    def test_single_spike(self):
        a = Net(make_omega_window(4), binary_space(), (1, 0, 0, 0))
        assert window_cauchy_index(a, 0.5) == 1

    def test_alternating_has_none(self):
        a = Net(make_omega_window(4), binary_space(), (1, 0, 1, 0))
        assert window_cauchy_index(a, 0.5) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for _ in range(200):
            w = make_omega_window(rng.randint(1, 10))
            a = random_binary_net(w, rng) if rng.random() < 0.5 else random_unit_net(w, rng)
            eps = rng.choice((0.1, 0.3, 0.5, 0.9))
            assert window_cauchy_index(a, eps) == brute_cauchy_index(a, eps)

    def test_rejects_nonpositive_eps(self):
        a = Net(make_omega_window(2), binary_space(), (0, 0))
        with pytest.raises(ValueError):
            window_cauchy_index(a, 0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        a = Net(make_omega_window(2), binary_space(), (0, 0))
        with pytest.raises(ValueError):
            window_cauchy_index(a, eps)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
        st.sampled_from(["labels", "column", "row"]),
        st.sampled_from([0.05, 0.25, 0.5]),
    )
    def test_other_chains_agree_with_brute_force(self, values, shape, eps):
        n = len(values)
        w = {
            "labels": lambda: label_chain([f"x{p}" for p in range(n)]),
            "column": lambda: product(make_omega_window(n), make_omega_window(1)),
            "row": lambda: product(make_omega_window(1), make_omega_window(n)),
        }[shape]()
        assert w.is_chain()
        a = Net(w, unit_interval_space(), tuple(values))
        assert window_cauchy_index(a, eps) == brute_cauchy_index(a, eps)

    def test_index_witnesses_every_sampling_exhaustively(self):
        # tail-bound index => universal witness, on all samplings of small windows
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            w = make_omega_window(n)
            for _ in range(5):
                a = random_binary_net(w, rng)
                i0 = window_cauchy_index(a, 0.5)
                if i0 is None:
                    continue
                for eta in all_samplings(w, max_size=2):
                    assert is_witness(a, 0.5, eta, i0)

    def test_index_witnesses_random_samplings_large_window(self):
        from metastable import random_sampling

        rng = random.Random(6)
        w = make_omega_window(64)
        for _ in range(20):
            a = random_unit_net(w, rng)
            eps = rng.choice((0.3, 0.6, 0.9))
            i0 = window_cauchy_index(a, eps)
            if i0 is None:
                continue
            for _ in range(20):
                eta = random_sampling(w, rng)
                assert is_witness(a, eps, eta, i0)
