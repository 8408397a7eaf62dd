"""One label rule, decided by the window: a label names an element only as written.

``True`` and ``1.0`` name no element of an omega window, ``(0, True)`` none
of a product of omega windows, and ``0`` none of a window whose element is
``False``.  ``order._position`` holds the rule, which ``in``, ``index`` and
``Sampling`` apply, so every entry point that takes a label refuses these
with WindowError.  Whatever the API builds is then written with labels its own
decoder reads back: every sampling, rate, certificate and net decodes from
its document to itself.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    FamilySpec,
    Net,
    Rate,
    RefutationCertificate,
    Sampling,
    SpaceError,
    WindowError,
    binary_space,
    build_rate,
    identity_sampling,
    make_custom_window,
    make_omega_window,
    product,
    project_set,
    random_sampling,
    refute_C,
    refute_D_pointed,
    refute_uniform,
    table_space,
    unit_interval_space,
)
from metastable.families import FamilyError
from metastable.serialize import (
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    net_from_dict,
    net_to_dict,
    rate_from_dict,
    rate_to_dict,
    sampling_from_dict,
    sampling_to_dict,
)
from metastable.order import _positions
from oracles import brute_position, windows


def _chain(elements):
    # A custom chain listed in its own order, joined by position.
    n = len(elements)
    return make_custom_window(elements, [[int(p <= q) for q in range(n)] for p in range(n)], [[max(p, q) for q in range(n)] for p in range(n)])


BOOLS = _chain([False, True])
FLOATS = _chain([0.0, 1.0, 2.0])

# (window, a label equal to an element of it but of another kind); every window is a chain, for refute_D_pointed.
MISNAMED = [
    pytest.param(make_omega_window(8), True, id="True-omega"),
    pytest.param(make_omega_window(8), 1.0, id="1.0-omega"),
    pytest.param(product(make_omega_window(1), make_omega_window(8)), (0, True), id="(0,True)-product"),
    pytest.param(BOOLS, 0, id="0-bools"),
    pytest.param(FLOATS, 1, id="1-floats"),
]


class TestMisnamedLabels:
    @pytest.mark.parametrize("w, label", MISNAMED)
    def test_the_window_refuses_it(self, w, label):
        assert label not in w
        with pytest.raises(WindowError, match="is not an element"):
            w.index(label)
        with pytest.raises(WindowError, match="is not an element"):
            w.join(label, w.elements[0])
        assert any(e == label for e in w.elements)  # equal to an element, so a dict lookup would find it

    def test_a_product_joins_only_its_elements(self):
        # The factors' joins read only the first two entries: (0, 0, 7) was joined as (0, 0).
        w = product(make_omega_window(2), make_omega_window(2))
        for a in [(0, 0, 7), (0,), ((0, 0), 0)]:
            with pytest.raises(WindowError, match="is not an element"):
                w.join(a, (1, 0))
            with pytest.raises(WindowError, match="is not an element"):
                w.join((1, 0), a)

    @pytest.mark.parametrize("w, label", MISNAMED)
    def test_every_entry_point_refuses_it(self, w, label):
        builds = {
            "Sampling": lambda: Sampling(w, [[label], *([e] for e in w.elements[1:])]),
            "build_rate": lambda: build_rate({"i": identity_sampling(w)}, lambda t, eta: {label}, thresholds=(0.5,)),
            "refute_C": lambda: refute_C({label}, w, 0.5),
            "refute_D_pointed": lambda: refute_D_pointed({label}, w, 0.5),
            "refute_uniform": lambda: refute_uniform(FamilySpec("C", w), [[label]], 0.5),
        }
        for name, build in builds.items():
            with pytest.raises(WindowError, match=r"not an? (window )?element"):
                build()

    @pytest.mark.parametrize("label", [np.True_, np.False_, np.float32(1.0), np.float64(1.0), np.float16(0.0)])
    def test_numpy_bools_and_floats_name_no_int(self, label):
        w = make_omega_window(3)
        assert label not in w and (0, label) not in product(w, w)
        with pytest.raises(WindowError, match="is not an element of this window"):
            w.index(label)
        with pytest.raises(WindowError, match="is not an element of this window"):
            Sampling(w, [[label], [1], [2]])

    @pytest.mark.parametrize("w, label, p", [(BOOLS, np.True_, 1), (FLOATS, np.float32(1.0), 1), (make_omega_window(3), np.int64(2), 2)])
    def test_numpy_labels_name_their_own_kind(self, w, label, p):
        assert label in w and w.index(label) == p

    @pytest.mark.parametrize("w, label, p", [(make_omega_window(8), 1, 1), (BOOLS, False, 0), (FLOATS, 1.0, 1)])
    def test_the_element_as_written_is_accepted(self, w, label, p):
        assert label in w and w.index(label) == p and w.join(label, w.elements[0]) is w.elements[p]

    @settings(max_examples=200, deadline=None)
    @given(windows())
    def test_each_element_and_no_other_kind_of_it(self, w):
        # An int part turned into a bool or a float names nothing; the element itself names its position.
        def variants(e):
            if type(e) is tuple:
                for k, part in enumerate(e):
                    yield from (e[:k] + (v,) + e[k + 1:] for v in variants(part))
            elif type(e) is int:
                yield float(e)
                if e in (0, 1):
                    yield bool(e)

        for p, e in enumerate(w.elements):
            equal = tuple(list(e)) if type(e) is tuple else e  # a tuple that is not the element itself
            assert e in w and w.index(e) == p and equal in w and w.index(equal) == p
            for v in variants(e):
                assert v not in w
                with pytest.raises(WindowError):
                    w.index(v)


class TestBesideItsEqual:
    """A misnamed label next to the element it equals, which a set would merge into it, is still refused."""

    W = make_omega_window(6)

    def test_in_a_document(self):
        cert = refute_C({1}, self.W, 0.5)
        rate = build_rate({"i": identity_sampling(self.W)}, lambda t, eta: {1}, thresholds=(0.5,))
        edits = [
            (sampling_to_dict(identity_sampling(self.W)), sampling_from_dict, lambda doc: doc["assign"][1].append(True)),
            (rate_to_dict(rate), rate_from_dict, lambda doc: doc["table"][0]["candidates"].append(True)),
            (certificate_to_dict(cert), certificate_from_dict, lambda doc: doc["candidate_set"].append(1.0)),
        ]
        for doc, decode, edit in edits:
            doc = json.loads(dumps(doc))
            edit(doc)
            with pytest.raises(WindowError, match="is not an element of this window"):
                decode(doc)

    def test_in_a_list_of_candidates(self):
        with pytest.raises(WindowError, match="True is not an element of this window"):
            refute_uniform(FamilySpec("C", self.W), [[1, True]], 0.5)
        with pytest.raises(WindowError, match="True is not an element of this window"):
            Rate((0.5,), {"i": identity_sampling(self.W)}, {(0.5, "i"): [1, True]})


def _round_trip(x, encode, decode):
    return decode(json.loads(dumps(encode(x))))


def _label_windows():
    # windows() plus the custom chains of bools and floats, alone and in products.
    custom = st.sampled_from([BOOLS, FLOATS])
    return st.one_of(windows(), custom, st.tuples(custom, windows()).map(lambda de: product(*de)))


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(_label_windows(), st.integers(0, 10**6))
    def test_what_the_api_builds_decodes_to_itself(self, w, seed):
        rng = random.Random(seed)
        samplings = {"identity": identity_sampling(w), "random": random_sampling(w, rng)}
        for s in samplings.values():
            assert _round_trip(s, sampling_to_dict, sampling_from_dict) == s
        picks = rng.sample(w.elements, min(2, len(w)))
        rate = build_rate(samplings, lambda t, eta: picks[:1] if t == 0.5 else picks, thresholds=(0.5, 0.25))
        assert _round_trip(rate, rate_to_dict, rate_from_dict) == rate
        net = Net(w, unit_interval_space(), tuple(rng.random() for _ in w.elements), target=0.5)
        assert _round_trip(net, net_to_dict, net_from_dict) == net
        certificates = []
        try:
            certificates.append(refute_C({w.elements[0]}, w, 0.5))
        except FamilyError:  # no two elements strictly above the first
            pass
        if len(w) <= 10:  # C has 2**(n - 1) members, which the search may read
            certificates += [refute_uniform(FamilySpec("C", w), [picks], 0.5, pointed=pointed) for pointed in (False, True)]
        for cert in filter(None, certificates):
            assert _round_trip(cert, certificate_to_dict, certificate_from_dict) == cert

    @pytest.mark.parametrize("w", [FLOATS, product(FLOATS, BOOLS), product(BOOLS, FLOATS)], ids=["floats", "floats-x-bools", "bools-x-floats"])
    def test_custom_labels_keep_their_kind(self, w):
        def kind(x):
            return tuple(map(kind, x)) if type(x) is tuple else type(x)

        cert = refute_C({w.elements[0]}, w, 0.5)
        decoded = _round_trip(cert, certificate_to_dict, certificate_from_dict)
        assert decoded == cert and [kind(i) for i in decoded.candidate_set] == [kind(w.elements[0])]
        assert all(kind(j) == kind(w.elements[w.index(j)]) for _, eta in decoded.sampling.items() for j in eta)


_PARTS = st.integers(0, 4)
# Labels of every kind a caller can hand the library: unhashable ones (a list, a set, a tuple holding
# a list), ones equal to an int element but of another kind (a bool, a float), nested tuples,
# which name the elements of a nested product, and None, which no window holds.
ODD_LABELS = st.one_of(
    st.none(),
    st.lists(_PARTS, max_size=2),
    st.sets(_PARTS, max_size=2),
    st.booleans(),
    st.floats(),
    st.tuples(st.tuples(_PARTS, _PARTS), _PARTS),
    st.tuples(_PARTS, st.lists(_PARTS, max_size=2)),
)


def _named_or_refused(w, label, call):
    # A label naming an element is taken; any other raises WindowError and nothing else.
    if label in w:
        call()
    else:
        with pytest.raises(WindowError, match="is not an element of this window"):
            call()


def _only_window_error(call):
    try:
        call()
    except WindowError:
        pass


class TestEveryEntryPointCrossesTheOneRule:
    @settings(max_examples=300, deadline=None)
    @given(windows(), ODD_LABELS)
    def test_in_never_raises_and_the_rest_raise_only_window_error(self, w, label):
        assert (label in w) in (True, False)
        first, identity = w.elements[0], identity_sampling(w)
        for call in [
            lambda: w.index(label),
            lambda: w.join(label, first),
            lambda: w.join(first, label),
            lambda: w.up_set(label),
            lambda: Sampling(w, [[label], *([e] for e in w.elements[1:])]),
            lambda: identity.at(label),
            lambda: Rate((0.5,), {"i": identity}, {(0.5, "i"): [label]}),
            lambda: refute_uniform([Net(w, binary_space(), (0,) * len(w))], [[label]], 0.5),
        ]:
            _named_or_refused(w, label, call)
        _only_window_error(lambda: project_set([label], w))
        member = Net(w, binary_space(), (0,) * len(w))
        doc = json.loads(dumps(certificate_to_dict(RefutationCertificate(0.5, identity, member, frozenset({first})))))
        doc["candidate_set"] = [label]
        _only_window_error(lambda: certificate_from_dict(doc))

    @settings(max_examples=100, deadline=None)
    @given(ODD_LABELS)
    def test_a_callable_join_is_tabulated_through_the_rule(self, label):
        # 1.0 equals the element 1, and a list is unhashable: neither names an element.
        for join in (lambda a, b: float(max(a, b)), lambda a, b: label):
            with pytest.raises(WindowError):
                make_custom_window([0, 1], lambda a, b: a <= b, join)


class TestNoneIsNoLabel:
    """None stands for "no answer" (no witness, no Cauchy index, no target), so no window
    holds it as an element and no table space as a symbol: an answer of None is never a label."""

    def test_a_custom_window_refuses_none(self):
        for elements in ([None, 1], [1, None]):
            with pytest.raises(WindowError, match="None cannot be a window element"):
                make_custom_window(elements, [[1, 1], [0, 1]], [[0, 1], [1, 1]])
        w = make_custom_window([(None, 0), 1], [[1, 1], [0, 1]], [[0, 1], [1, 1]])  # a tuple holding None is a label
        assert (None, 0) in w and None not in w

    def test_a_table_space_refuses_a_none_symbol(self):
        with pytest.raises(SpaceError, match="None cannot be a symbol"):
            table_space(["x", None], [[0, 1], [1, 0]])


# Labels of every kind, as the bulk rule meets them: ints in and past the window and past int64, bools and
# floats (Python's and numpy's), numbers equal to an int (numpy's int, a fraction, a decimal, a complex),
# strings, None, unhashable lists and dicts, and nested tuples of these.
_SCALAR_LABELS = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([-1, 2**63, 2**70, -(2**70), 0.0, 1.0, np.True_, np.False_, np.float32(1.0), np.float64(2.0),
                     np.int64(1), Fraction(1), Decimal(2), 1 + 0j, "1", "x0", "a", None]),
    st.booleans(),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=1),
)
_ANY_LABELS = st.recursive(_SCALAR_LABELS, lambda inner: st.tuples(inner, inner), max_leaves=4)
_CASTS = [int, bool, float, np.bool_, np.float32, np.float64, np.int64, Fraction, Decimal, complex, str]


@st.composite
def _recast(draw, w):
    # An element with some of its numbers cast to another kind of number or to a string, through tuples.
    def cast(x):
        if type(x) is tuple:
            return tuple(map(cast, x))
        return draw(st.sampled_from(_CASTS))(x) if type(x) in (int, bool, float) and draw(st.booleans()) else x

    return cast(draw(st.sampled_from(w.elements)))


def _brute_positions(w, labels):
    return [-1 if (p := brute_position(w, a)) is None else p for a in labels]


def _refusal(call):
    # The type and wording of what ``call`` raises, else None.
    try:
        call()
    except Exception as exc:  # its type is part of the answer
        return type(exc), str(exc)
    return None


class TestTheBulkRuleMatchesTheLabelByLabelRule:
    """``_positions`` against ``oracles.brute_position``, the rule as a dict lookup label by label."""

    @settings(max_examples=400, deadline=None)
    @given(_label_windows(), st.data())
    def test_positions_in_index_and_sampling_agree(self, w, data):
        elements = st.sampled_from(w.elements)
        labels = data.draw(st.lists(st.one_of(elements, _recast(w), _ANY_LABELS, st.tuples(elements, _ANY_LABELS)), max_size=8))
        expected = _brute_positions(w, labels)
        assert _positions(w, list(labels)) == expected
        for a, p in zip(labels, expected):
            assert (a in w) is (p >= 0)
            if p >= 0:
                assert w.index(a) == p
            else:
                assert _refusal(lambda: w.index(a)) == (WindowError, f"{a!r} is not an element of this window")
        blocks = [labels[k::3] for k in range(3)]
        bad = [a for block in blocks for a, p in zip(block, _brute_positions(w, block)) if p < 0]
        if bad:
            assert _refusal(lambda: Sampling(w, blocks)) == (WindowError, f"{bad[0]!r} is not an element of this window")
        else:
            s = Sampling(w, blocks)
            assert [s.block(k) for k in range(3)] == [sorted(set(_brute_positions(w, block))) for block in blocks]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.lists(st.integers(-(2**70), 2**70) | st.integers(-3, 45), max_size=12))
    def test_ints_on_an_omega_window(self, n, labels):
        # Exact ints take the range test; any other type in the list sends every label through the lookup.
        w = make_omega_window(n)
        expected = _brute_positions(w, labels)
        assert _positions(w, list(labels)) == expected == _positions(w, [*labels, "x"])[:-1]
