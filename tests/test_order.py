import functools
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Sampling,
    WindowError,
    doubling_sampling,
    identity_sampling,
    induced_sampling,
    make_custom_window,
    make_omega_window,
    product,
    project_set,
    random_sampling,
    successor_sampling,
    validate_sampling,
)
from metastable import order
from metastable.order import CUSTOM, WINDOW_CAP, DirectedWindow
from metastable.serialize import window_to_dict
from oracles import (
    all_samplings,
    brute_join,
    brute_leq,
    brute_position,
    brute_up_set,
    brute_validate_window,
    diamond,
    label_chain,
    windows,
)


@st.composite
def order_data(draw):
    """Elements, a 0/1 order matrix and a join table on at most 6 elements, repaired
    to a random depth: raw, reflexive, also antisymmetric, also transitive (then
    listed in a random order), with each join an upper bound where one exists, mostly."""
    n = draw(st.integers(1, 6))
    rel = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))
    depth = draw(st.integers(0, 3))
    if depth >= 1:
        rel = [[r[q] or p == q for q in range(n)] for p, r in enumerate(rel)]
    if depth >= 2:
        rel = [[r[q] and p <= q for q in range(n)] for p, r in enumerate(rel)]
    if depth >= 3:
        for b, a, c in itertools.product(range(n), repeat=3):
            rel[a][c] = rel[a][c] or (rel[a][b] and rel[b][c])
    perm = draw(st.permutations(range(n)))
    rel = [[int(rel[perm[p]][perm[q]]) for q in range(n)] for p in range(n)]
    join = []
    for p in range(n):
        row = []
        for q in range(n):
            bounds = [r for r in range(n) if rel[p][r] and rel[q][r]]
            free = not bounds or draw(st.integers(0, 9)) == 0
            row.append(draw(st.integers(0, n - 1)) if free else draw(st.sampled_from(bounds)))
        join.append(row)
    return [f"e{p}" for p in range(n)], rel, join


@st.composite
def upper_bound_joins(draw):
    """A custom window on the order of a label chain (listed in or out of order) or of the diamond,
    whose join table names any common upper bound, not only the least; alone or in a product."""
    base = draw(
        st.one_of(
            st.integers(1, 5).map(lambda n: label_chain([f"x{p}" for p in range(n)])),
            st.permutations(["a", "b", "c", "d"]).map(label_chain),
            st.just(diamond()),
        )
    )
    rel, n = base._order, len(base)
    join = [[draw(st.sampled_from(np.flatnonzero(rel[p] & rel[q]).tolist())) for q in range(n)] for p in range(n)]
    w = make_custom_window(base.elements, rel.astype(int).tolist(), join)
    return draw(st.sampled_from([w, product(w, make_omega_window(2)), product(diamond(), w), product(w, w)]))


class TestPositionalJoin:
    """``order._join`` is the one join rule, over positions; ``join`` and ``join_all`` are its label cases."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(windows(), upper_bound_joins()), st.data())
    def test_join_matches_the_label_oracle(self, w, data):
        els, p = w.elements, np.arange(len(w))
        table = order._join(w, p[:, None], p)
        assert table.shape == (len(w), len(w))
        for a, b in itertools.product(range(len(w)), repeat=2):
            want = brute_join(w, els[a], els[b])
            assert els[order._join(w, a, b)] == want and els[table[a, b]] == want and w.join(els[a], els[b]) == want
        items = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=6))
        ordered = sorted(items, key=functools.partial(brute_position, w))  # a repeated item joins as often as given
        assert w.join_all(items) == functools.reduce(functools.partial(brute_join, w), ordered)
        pairs = set(zip(items, reversed(items)))
        assert project_set(pairs, w) == {brute_join(w, a, b) for a, b in pairs}
        for a in items:
            assert w.strictly_above(a) == tuple(b for b in brute_up_set(w, a) if b != a)

    def test_join_all_keeps_repeats_and_names_a_stray_label(self):
        # A chain whose join of 0 with itself is 1: the repeat counts.
        w = make_custom_window([0, 1, 2], lambda x, y: x <= y, [[1, 1, 2], [1, 1, 2], [2, 2, 2]])
        assert w.join_all([0]) == 0 and w.join_all([0, 0]) == 1 and w.join_all([2, 0, 0]) == 2
        for stray in (5, True, [0]):
            with pytest.raises(WindowError, match=f"^{re.escape(repr(stray))} is not an element of this window$"):
                w.join_all([0, stray])
        with pytest.raises(WindowError, match="join_all of empty collection"):
            w.join_all([])

    @settings(max_examples=300, deadline=None)
    @given(order_data(), st.data())
    def test_validation_of_products_and_custom_windows_names_the_oracles_first_offender(self, data, pick):
        # Custom windows built unvalidated, alone and as product factors: validate reads _join and _above.
        elements, rel, join = data
        leaf = DirectedWindow(CUSTOM, elements, leq_matrix=rel, join_table=join)
        point = make_omega_window(2)
        w = pick.draw(st.sampled_from([leaf, product(leaf, point), product(point, leaf), product(leaf, leaf)]))
        expected = brute_validate_window(w.elements, functools.partial(brute_leq, w), functools.partial(brute_join, w))
        try:
            w.validate()
        except WindowError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_no_label_join_is_called(self, monkeypatch):
        def refuse(self, a, b):
            raise AssertionError(f"join({a!r}, {b!r}) called")

        monkeypatch.setattr(DirectedWindow, "join", refuse)
        # A bottom 0, a top 3 and two incomparable elements between them.
        star = make_custom_window(
            range(4), lambda x, y: x == y or x == 0 or y == 3, lambda x, y: x if x == y else max(x, y) if 0 in (x, y) else 3
        )
        for w in [make_omega_window(6), product(make_omega_window(3), diamond()), diamond(), star, product(star, star)]:
            w.validate()
            assert w.top() == w.join_all(w.elements) and project_set({(w.top(), w.elements[0])}, w) == {w.top()}
            for eta in (identity_sampling(w), random_sampling(w, random.Random(3))):
                assert validate_sampling(induced_sampling(eta, w)) == []


class TestOmegaWindow:
    def test_singleton(self):
        w = make_omega_window(1)
        assert w.elements == range(1)
        assert w.join(0, 0) == 0

    def test_chain_join_is_max(self):
        w = make_omega_window(5)
        assert w.elements == range(5)
        assert w.join(1, 3) == 3
        assert w.leq(0, 4) and not w.leq(4, 0)

    def test_antisymmetry_on_chain(self):
        w = make_omega_window(3)
        assert not w.leq(2, 0)

    def test_rejects_empty(self):
        with pytest.raises(WindowError):
            make_omega_window(0)

    def test_validate_passes(self):
        make_omega_window(6).validate()

    def test_holds_no_element_table(self):
        # Its elements are range(n): a tuple and an index dict of 2**16 elements would take about 7.4 MiB.
        tracemalloc.start()
        try:
            w = make_omega_window(2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert 2**16 < WINDOW_CAP and w.elements == range(2**16) and w.index(2**16 - 1) == 2**16 - 1


class TestProductWindow:
    def test_componentwise_order(self):
        p = product(make_omega_window(2), make_omega_window(2))
        assert p.leq((0, 1), (1, 1))
        assert not p.leq((0, 1), (1, 0))

    def test_componentwise_join(self):
        p = product(make_omega_window(3), make_omega_window(3))
        assert p.join((1, 2), (2, 0)) == (2, 2)

    def test_cardinality(self):
        assert len(product(make_omega_window(2), make_omega_window(2))) == 4

    def test_validate_passes(self):
        product(make_omega_window(3), make_omega_window(4)).validate()


class TestWindowCap:
    def test_cap_fits_the_self_distance_net_of_omega_1024(self):
        assert WINDOW_CAP == 1024 * 1024

    def test_checked_at_the_cap_before_building(self, monkeypatch):
        monkeypatch.setattr(order, "WINDOW_CAP", 12)
        assert len(make_omega_window(12)) == 12
        assert len(product(make_omega_window(3), make_omega_window(4))) == 12
        for build in (lambda: make_omega_window(13), lambda: product(make_omega_window(3), make_omega_window(5))):
            with pytest.raises(WindowError, match=r"^a window of (13|15) elements exceeds WINDOW_CAP = 12$"):
                build()


class TestCustomWindow:
    def test_diamond(self):
        w = diamond()
        assert w.join("a", "b") == "top"
        assert not w.is_chain()

    def test_invalid_order_rejected(self):
        # 0 <= 1 <= 2 but not 0 <= 2: transitivity fails
        leq = lambda x, y: (x, y) in {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
        with pytest.raises(WindowError):
            make_custom_window([0, 1, 2], leq, max)

    def test_join_outside_window_rejected(self):
        w = lambda x, y: x <= y
        with pytest.raises(WindowError):
            make_custom_window([0, 1], w, lambda x, y: max(x, y) + 1)

    @pytest.mark.parametrize("join", [[[0, 2], [1, 1]], [[0, -1], [1, 1]], [[0, 1.0], [1, 1]], [[0, True], [1, 1]]])
    def test_join_table_entries_are_positions(self, join):
        # An entry past the end indexed out of the element tuple, and a
        # negative one wrapped round to another element.
        with pytest.raises(WindowError):
            make_custom_window([0, 1], [[1, 1], [0, 1]], join)

    @pytest.mark.parametrize("entry", ["no", [0], 2, 1.0, None])
    def test_leq_matrix_entries_are_0_1_or_bools(self, entry):
        # "no" and [0] were read as true by bool().
        with pytest.raises(WindowError, match="leq matrix entries"):
            make_custom_window([0, 1], [[1, entry], [0, 1]], [[0, 1], [1, 1]])

    def test_leq_matrix_accepts_ints_and_bools(self):
        for one, zero in ((1, 0), (True, False)):
            w = make_custom_window([0, 1], [[one, one], [zero, one]], [[0, 1], [1, 1]])
            assert w.leq(0, 1) and not w.leq(1, 0) and w.is_chain()

    @settings(max_examples=400, deadline=None)
    @given(order_data())
    def test_validation_names_the_oracles_first_offender(self, data):
        elements, rel, join = data
        pos = {e: p for p, e in enumerate(elements)}
        expected = brute_validate_window(
            elements, lambda a, b: rel[pos[a]][pos[b]], lambda a, b: elements[join[pos[a]][pos[b]]]
        )
        try:
            make_custom_window(elements, rel, join)
        except WindowError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_building_and_encoding_a_custom_chain_makes_no_leq_call(self, monkeypatch):
        def refuse(self, a, b):
            raise AssertionError(f"leq({a!r}, {b!r}) called")

        monkeypatch.setattr(DirectedWindow, "leq", refuse)
        n = 300
        rel = [[p <= q for q in range(n)] for p in range(n)]
        w = make_custom_window(range(n), rel, [[max(p, q) for q in range(n)] for p in range(n)])
        doc = window_to_dict(w)
        assert w.is_chain() and doc["leq"] == [[int(v) for v in row] for row in rel] and doc["join"][7][3] == 7

    def test_join_not_upper_bound_rejected(self):
        leq = lambda x, y: x <= y
        with pytest.raises(WindowError):
            make_custom_window([0, 1, 2], leq, min)


class TestMisnamed:
    """Labels equal to an element but of another kind (a dict lookup matches True and 1.0 to 1)."""

    @pytest.mark.parametrize("a, b", [(True, 0), (2.0, 1), (0, False)])
    def test_omega_join_refuses_a_label_of_another_kind(self, a, b):
        # True, 2.0 and False equal omega elements but name none; the ints as written join.
        w = make_omega_window(4)
        named = a if type(a) is not int else b
        with pytest.raises(WindowError, match=f"{named!r} is not an element"):
            w.join(a, b)
        assert w.join(int(a), int(b)) == max(int(a), int(b))


class TestTop:
    @settings(max_examples=200, deadline=None)
    @given(windows())
    def test_top_is_the_greatest_element(self, w):
        greatest = [g for g in w.elements if all(w.leq(a, g) for a in w.elements)]
        assert greatest == [w.top()]

    def test_examples(self):
        assert make_omega_window(5).top() == 4
        assert product(make_omega_window(2), diamond()).top() == (1, "top")
        assert label_chain(["b", "a", "c"]).top() == "c"


class TestChainFact:
    def test_omega(self):
        assert make_omega_window(1).is_chain() and make_omega_window(5).is_chain()

    def test_product_is_chain_only_beside_a_point(self):
        assert product(make_omega_window(4), make_omega_window(1)).is_chain()
        assert product(make_omega_window(1), make_omega_window(4)).is_chain()
        assert not product(make_omega_window(2), make_omega_window(2)).is_chain()
        diamond = product(make_omega_window(2), make_omega_window(2))
        assert not product(diamond, make_omega_window(1)).is_chain()
        point = make_omega_window(1)
        assert product(point, point).is_chain() and product(product(point, make_omega_window(4)), point).is_chain()

    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_a_chain_is_ordered_as_it_is_listed(self, w):
        # The definition, on an order matrix built here from the leaves (a product's by
        # the Kronecker product of its factors'): leq(a, b) iff index(a) <= index(b).
        def matrix(v):
            if v.factors is not None:
                return np.kron(*(matrix(f).astype(int) for f in v.factors)).astype(bool)
            return np.triu(np.ones((len(v), len(v)), bool)) if v.kind == order.OMEGA else v._order

        assert w.is_chain() == np.array_equal(matrix(w), np.triu(np.ones((len(w), len(w)), bool)))

    def test_custom_chain_in_listing_order(self):
        w = label_chain(["a", "b", "c", "d"])
        assert w.is_chain()
        assert w.leq("a", "c") and not w.leq("c", "a")
        assert w.up_set("b") == ("b", "c", "d")

    def test_custom_chain_out_of_listing_order(self):
        w = label_chain(["b", "a", "c", "d"])
        assert not w.is_chain()
        assert w.leq("a", "b") and not w.leq("b", "a")
        assert w.up_set("a") == ("b", "a", "c", "d")
        assert w.up_set("b") == ("b", "c", "d")

    @pytest.mark.parametrize("build", [successor_sampling, doubling_sampling])
    def test_chain_samplings_reject_other_windows(self, build):
        for w in (
            product(make_omega_window(3), make_omega_window(3)),
            label_chain(["b", "a", "c"]),
        ):
            with pytest.raises(WindowError):
                build(w)
        chain = label_chain(["a", "b", "c"])
        assert validate_sampling(build(chain)) == []


class TestLeq:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_leq_matches_the_label_rule(self, w):
        for a, b in itertools.product(w.elements, repeat=2):
            assert w.leq(a, b) is brute_leq(w, a, b)
        assert brute_validate_window(w.elements, functools.partial(brute_leq, w), w.join) is None
        w.validate()


class TestUpSet:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_up_set_matches_leq_filter(self, w):
        for a in w.elements:
            ups = brute_up_set(w, a)
            assert w.up_set(a) == ups
            assert w.strictly_above(a) == tuple(b for b in ups if b != a)

    def test_non_element_raises_window_error(self):
        for w in (product(make_omega_window(2), make_omega_window(3)), diamond(), make_omega_window(3)):
            for a in (5, (0, 7), "top!"):
                with pytest.raises(WindowError):
                    w.up_set(a)
                with pytest.raises(WindowError):
                    w.strictly_above(a)


class TestValidateSampling:
    def test_identity_ok(self):
        assert validate_sampling(identity_sampling(make_omega_window(4))) == []

    def test_empty_set_flagged(self):
        w = make_omega_window(3)
        s = Sampling(w, (frozenset(), frozenset({1}), frozenset({2})))
        violations = validate_sampling(s)
        assert len(violations) == 1
        assert violations[0].element == 0 and "empty" in violations[0].reason

    def test_below_upset_flagged(self):
        w = make_omega_window(3)
        s = Sampling(w, (frozenset({0}), frozenset({1}), frozenset({1})))
        violations = validate_sampling(s)
        assert [(v.element, v.offender) for v in violations] == [(2, 1)]


class TestInducedSampling:
    def test_singleton_sampling(self):
        w = make_omega_window(4)
        eta = identity_sampling(w)
        ind = induced_sampling(eta, w)
        for i in range(4):
            for j in range(4):
                m = max(i, j)
                assert ind.at((i, j)) == frozenset({(m, m)})

    def test_successor_blocks(self):
        w = make_omega_window(4)
        eta = Sampling.from_function(w, lambda i: {i, min(i + 1, 3)})
        ind = induced_sampling(eta, w)
        assert ind.at((1, 2)) == frozenset(
            {(a, b) for a in (2, 3) for b in (2, 3)}
        )

    def test_validity_random(self):
        rng = random.Random(20240)
        for _ in range(200):
            w = make_omega_window(rng.randint(1, 8))
            eta = random_sampling(w, rng)
            assert validate_sampling(induced_sampling(eta, w)) == []

    def test_validity_exhaustive_small(self):
        for n in (1, 2, 3):
            w = make_omega_window(n)
            for eta in all_samplings(w, max_size=2):
                assert validate_sampling(induced_sampling(eta, w)) == []


class TestProjectSet:
    def test_chain_joins(self):
        w = make_omega_window(5)
        assert project_set({(1, 2), (3, 0)}, w) == frozenset({2, 3})

    def test_empty(self):
        assert project_set(set(), make_omega_window(3)) == frozenset()

    def test_diagonal(self):
        w = make_omega_window(5)
        assert project_set({(2, 2)}, w) == frozenset({2})

    def test_cardinality_never_grows(self):
        rng = random.Random(7)
        w = make_omega_window(6)
        for _ in range(50):
            s = {(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 10))}
            assert len(project_set(s, w)) <= len(s)

    def test_foreign_pair_rejected(self):
        with pytest.raises(WindowError):
            project_set({(1, 9)}, make_omega_window(3))


def stdlib_ranks(rng, sizes, max_size):
    # The draw rule's oracle: CPython's own calls, one up-set size at a time.
    ranks, counts = [], []
    for m in sizes:
        drawn = rng.sample(range(m), rng.randint(1, min(max_size, m)))
        ranks += drawn
        counts.append(len(drawn))
    return ranks, counts


class TestRankDraw:
    """``order._draw_ranks`` replays ``random.sample``/``randint`` on the same MT19937 words."""

    def test_block_bound_is_where_the_rule_is_exact(self):
        # The output bytes fix the bound at 3, and the set method is written
        # out for at most three picks (past 5, random.sample's pool/set switch
        # would move as well).
        assert order.RANDOM_BLOCK_MAX == 3

    @pytest.mark.parametrize(
        "sizes, max_size",
        [
            # Up to 21 elements (the pool method) any count up to 5 is drawn; above, at most three.
            pytest.param(sizes, k, id=f"{name}-{k}")
            for name, sizes in {
                "size-1": [1] * 300,
                "small": [2, 3, 4, 5] * 40,
                "pool-21": [21] * 60,
                "set-22": [22] * 60,
                "switch": [20, 21, 22, 23] * 20,
                "wide": [2**20, 2**20 - 1, 2**16 + 1],
                "chain-300": list(range(300, 0, -1)),
                "orthant-16x16": [(16 - i) * (16 - j) for i in range(16) for j in range(16)],
            }.items()
            for k in range(1, 6)
            if k <= 3 or max(sizes) <= 21
        ],
    )
    def test_sizes_match_the_stdlib(self, sizes, max_size, monkeypatch):
        # Size 1 draws randint(1, 1), which rejects half of all words; 21 is
        # the last pool-method size and 22 the first set-method one.  The
        # up-set sizes of a descending chain and of a 16 x 16 grid in C order
        # are what random_samplings feeds the rule; both cross the switch.
        monkeypatch.setattr(order, "RANDOM_BLOCK_MAX", max_size)
        for seed in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert order._draw_ranks(ours, sizes) == stdlib_ranks(theirs, sizes, max_size)
            assert ours.getstate() == theirs.getstate()
