import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    DirectedWindow,
    Net,
    binary_space,
    build_rate,
    find_pointed_witness,
    find_witness,
    identity_sampling,
    is_witness,
    make_custom_window,
    make_omega_window,
    product,
    random_sampling,
    refute_uniform,
    replay_certificate,
    successor_sampling,
    verify_rate,
    window_cauchy_index,
)
from metastable.families import (
    BRUTE_FORCE_CAP,
    FAMILY_MEMBER_CAP,
    FamilyError,
    FamilySpec,
    closed_form_refutation,
    d_member,
    enumerate_family,
    paracompact_nets,
    rate_B,
    refute_C,
    refute_D_pointed,
    _eventually_zero,
    _nonincreasing,
)
from oracles import all_binary_nets, brute_eventually_zero, brute_nonincreasing, label_chain, windows


def members(tag, window, **params):
    return list(enumerate_family(FamilySpec(tag, window, params)))


class TestEnumeration:
    def test_B_on_omega3(self):
        got = [m.values for m in members("B", make_omega_window(3))]
        assert got == [(1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]

    def test_B0_drops_constant_one(self):
        got = [m.values for m in members("B0", make_omega_window(3))]
        assert (1, 1, 1) not in got and len(got) == 3

    def test_C_on_omega2(self):
        got = sorted(m.values for m in members("C", make_omega_window(2)))
        assert got == [(0, 0), (1, 0)]

    def test_C_count_on_chain(self):
        assert len(members("C", make_omega_window(6))) == 2**5

    def test_D_members(self):
        w = make_omega_window(6)
        got = [m.values for m in members("D", w, alphas=[0, 3])]
        assert got == [(0, 1, 1, 1, 1, 1), (0, 1, 0, 1, 1, 1)]
        for m in members("D", w):
            assert m.target == 1

    def test_targets(self):
        for m in members("B", make_omega_window(4)):
            assert m.target == (1 if all(v == 1 for v in m.values) else 0)
        for m in members("C", make_omega_window(4)):
            assert m.target == 0

    @pytest.mark.parametrize("listing", [["b", "a", "c", "d"], ["a", "b", "c", "d"], ["d", "c", "b", "a"]])
    def test_label_chains_match_brute_force(self, listing):
        # Filter every binary net by the label order itself, not the window.
        w = label_chain(listing)
        nets = [a.values for a in all_binary_nets(w)]
        at = lambda v, x: v[listing.index(x)]
        nonincreasing = [v for v in nets if all(at(v, x) >= at(v, y) for x in listing for y in listing if x <= y)]
        eventually_zero = [
            v for v in nets if any(all(at(v, y) == 0 for y in listing if x <= y) for x in listing)
        ]
        assert sorted(m.values for m in members("B", w)) == sorted(nonincreasing)
        assert sorted(m.values for m in members("C", w)) == sorted(eventually_zero)

    @settings(max_examples=150, deadline=None)
    @given(windows().filter(lambda w: len(w) <= 8))
    def test_C_is_the_filter_in_lexicographic_order(self, w):
        # One path on every window: 0 at the top, the other positions in
        # lexicographic order, which is the order of the filtered assignments.
        want = [a.values for a in all_binary_nets(w) if brute_eventually_zero(w, a.values)]
        assert [m.values for m in members("C", w)] == want

    @settings(max_examples=150, deadline=None)
    @given(windows().filter(lambda w: len(w) <= 8), st.sampled_from(["B", "B0", "C", "D", "paracompact"]), st.data())
    def test_member_count_is_the_enumeration_length(self, w, tag, data):
        # Counted off the parameters, or None for B and B0 off chains.
        if tag in ("D", "paracompact") and not w.is_chain():
            tag = "C"
        params = {}
        if tag == "D" and data.draw(st.booleans()):
            params = {"alphas": data.draw(st.lists(st.integers(0, len(w) - 1), min_size=1, max_size=5))}
        if tag == "paracompact" and data.draw(st.booleans()):
            params = {"n_points": data.draw(st.integers(1, 9))}
        count = FamilySpec(tag, w, params).member_count
        assert (count is None) == (tag in ("B", "B0") and not w.is_chain())
        assert count in (None, len(members(tag, w, **params)))

    def test_enumeration_raises_at_member_cap_plus_one(self):
        got = enumerate_family(FamilySpec("C", make_omega_window(14)))
        assert len(list(itertools.islice(got, FAMILY_MEMBER_CAP))) == FAMILY_MEMBER_CAP
        with pytest.raises(FamilyError, match="FAMILY_MEMBER_CAP"):
            next(got)

    def test_C_on_a_large_non_chain_window_is_lazy(self):
        # No brute-force cap for C: members come one at a time, up to the member cap.
        w = product(make_omega_window(3), label_chain([f"x{p}" for p in range(6)]))
        assert len(w) > BRUTE_FORCE_CAP and not w.is_chain()
        first = next(enumerate_family(FamilySpec("C", w)))
        assert first.values == (0,) * len(w)
        with pytest.raises(FamilyError, match="FAMILY_MEMBER_CAP"):
            members("C", w)

    def test_D_needs_chain_in_listing_order(self):
        with pytest.raises(FamilyError):
            members("D", label_chain(["b", "a", "c", "d"]))

    def test_paracompact_needs_a_chain(self):
        # Its members were built on a private omega window, so the spec's
        # own labels were rejected as candidates and positions 0..5 accepted.
        with pytest.raises(FamilyError, match="needs a chain window"):
            FamilySpec("paracompact", product(make_omega_window(2), make_omega_window(3)))

    def test_paracompact_members_live_on_the_spec_window(self):
        spec = FamilySpec("paracompact", label_chain(["a", "b", "c", "d"]), {"n_points": 3})
        got = list(enumerate_family(spec))
        assert all(a.window is spec.window for a in got)
        assert [a.values for a in got] == [a.values for a in paracompact_nets(3, 4)]

    def test_nonchain_brute_force_matches_invariants(self):
        # diamond window: enumeration must respect the partial order
        elements = [0, 1, 2, 3]
        pairs = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
        leq = lambda x, y: x == y or (x, y) in pairs
        join = lambda x, y: x if leq(y, x) else (y if leq(x, y) else 3)
        w = make_custom_window(elements, leq, join)
        b = [m.values for m in members("B", w)]
        # non-increasing: value at 0 >= values at 1, 2 >= value at 3
        assert (1, 1, 1, 1) in b and (1, 1, 0, 0) in b
        assert (0, 1, 0, 0) not in b
        c = [m.values for m in members("C", w)]
        assert all(v[3] == 0 for v in c)

    def test_nonchain_cap(self):
        elements = list(range(BRUTE_FORCE_CAP + 2))
        pairs = set()
        leq = lambda x, y: x == y or (x == 0) or (y == len(elements) - 1)
        # build a genuine (crude) order: 0 bottom, last top, middles incomparable
        top = len(elements) - 1
        join = lambda x, y: x if leq(y, x) else (y if leq(x, y) else top)
        w = make_custom_window(elements, leq, join)
        with pytest.raises(FamilyError):
            members("B", w)

    def test_paracompact_points_are_capped_before_enumeration(self):
        w = make_omega_window(4)
        assert len(members("paracompact", w, n_points=FAMILY_MEMBER_CAP)) == FAMILY_MEMBER_CAP
        for n_points in (FAMILY_MEMBER_CAP + 1, 10**7):
            with pytest.raises(FamilyError, match="FAMILY_MEMBER_CAP"):
                FamilySpec("paracompact", w, {"n_points": n_points})
        # Without the parameter a paracompact family has one point per index.
        with pytest.raises(FamilyError, match="FAMILY_MEMBER_CAP"):
            FamilySpec("paracompact", make_omega_window(FAMILY_MEMBER_CAP + 1))
        assert FamilySpec("B", make_omega_window(FAMILY_MEMBER_CAP + 1)).tag == "B"


class TestRateB:
    def test_identity_sampling(self):
        w = make_omega_window(6)
        assert rate_B(identity_sampling(w), w) == frozenset({0})

    def test_successor_sampling(self):
        w = make_omega_window(6)
        assert rate_B(successor_sampling(w), w) == frozenset({0, 1})

    def test_uniform_over_family_random_samplings(self):
        rng = random.Random(42)
        w = make_omega_window(8)
        family = members("B", w)
        for _ in range(100):
            eta = random_sampling(w, rng)
            cand = rate_B(eta, w)
            eps = rng.choice((0.25, 0.5, 0.99))
            for m in family:
                assert any(is_witness(m, eps, eta, i) for i in cand)

    def test_via_verify_rate(self):
        w = make_omega_window(6)
        rng = random.Random(9)
        suite = {f"s{i}": random_sampling(w, rng) for i in range(20)}
        rate = build_rate(suite, lambda t, eta: rate_B(eta, w))
        family = members("B", w)
        for sid in suite:
            assert verify_rate(family, rate, 0.5, sid).overall


class TestRefuteC:
    def test_example_on_omega6(self):
        w = make_omega_window(6)
        cert = refute_C({0, 1, 2}, w, 0.5)
        assert cert.sampling.at(0) == frozenset({3, 4})
        assert cert.sampling.at(5) == frozenset({5})
        assert cert.member.values == (0, 0, 0, 1, 0, 0)
        assert replay_certificate(cert)

    def test_member_is_in_family(self):
        w = make_omega_window(8)
        cert = refute_C({2, 4}, w, 0.5)
        assert cert.member.values in {m.values for m in members("C", w)}

    def test_no_room_above(self):
        w = make_omega_window(4)
        with pytest.raises(FamilyError):
            refute_C({3}, w, 0.5)

    def test_eps_bounds(self):
        w = make_omega_window(6)
        with pytest.raises(FamilyError):
            refute_C({0}, w, 1.5)

    def test_randomized_always_replays(self):
        rng = random.Random(314)
        for _ in range(500):
            n = rng.randint(4, 32)
            w = make_omega_window(n)
            s = {rng.randrange(n - 2) for _ in range(rng.randint(1, 5))}
            cert = refute_C(s, w, rng.choice((0.25, 0.5, 0.75)))
            assert replay_certificate(cert)
            # directly: no i in s witnesses the member
            for i in s:
                assert not is_witness(cert.member, cert.eps, cert.sampling, i)


class TestRefuteDPointed:
    def test_example_on_omega6(self):
        w = make_omega_window(6)
        cert = refute_D_pointed({0, 1}, w)
        assert cert.member.values == (0, 1, 0, 1, 1, 1)
        assert cert.pointed_target == 1
        assert replay_certificate(cert)

    def test_window_too_small(self):
        w = make_omega_window(4)
        with pytest.raises(FamilyError):
            refute_D_pointed({2}, w)

    def test_positions_not_labels(self):
        # alpha is read off positions, so any chain in listing order works
        for w, s in (
            (label_chain(list("abcdef")), {"a", "b"}),
            (product(make_omega_window(6), make_omega_window(1)), {(0, 0), (1, 0)}),
        ):
            cert = refute_D_pointed(s, w)
            assert replay_certificate(cert)
            assert cert.member.values == (0, 1, 0, 1, 1, 1)

    def test_randomized_always_replays(self):
        rng = random.Random(2718)
        for _ in range(500):
            n = rng.randint(5, 32)
            w = make_omega_window(n)
            s = {rng.randrange(n - 3) for _ in range(rng.randint(1, 5))}
            cert = refute_D_pointed(s, w, eps=rng.choice((0.25, 0.5)))
            assert replay_certificate(cert)
            assert cert.member.values in {m.values for m in members("D", w)}

    def test_members_converge_individually(self):
        # pointwise convergence to 1 despite no uniform pointed rate
        w = make_omega_window(10)
        for m in members("D", w, alphas=range(8)):
            assert window_cauchy_index(m, 0.5) is not None


class TestParacompact:
    def test_value_pattern(self):
        nets = paracompact_nets(3, 6)
        assert [n.values for n in nets] == [
            (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            (1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
            (1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
        ]
        # at point p the value is 0 exactly at odd steps <= p
        deep = paracompact_nets(4, 6)[3]
        assert deep.values == (1.0, 0.0, 1.0, 0.0, 1.0, 1.0)

    def test_each_net_eventually_one(self):
        for n in paracompact_nets(4, 12):
            assert n.values[-3:] == (1.0, 1.0, 1.0)
            assert n.target == 1.0

    def test_pointwise_convergence(self):
        for n in paracompact_nets(5, 16):
            i = find_pointed_witness(n, 1.0, 0.5, identity_sampling(n.window))
            assert i is not None

    def test_closed_form_refutation(self):
        # The exact search finds the construction's member: the point one
        # past the candidate set, whose iterate is 0 at step 3.
        spec = FamilySpec("paracompact", make_omega_window(12), {"n_points": 6})
        cert = refute_uniform(spec, [{0, 1, 2}], 0.5, pointed=True)
        assert cert is not None and replay_certificate(cert)
        assert cert.pointed_target == 1.0
        assert cert.member == paracompact_nets(6, 12)[3]

    def test_refutation_needs_deep_point(self):
        spec = FamilySpec("paracompact", make_omega_window(12), {"n_points": 2})
        assert refute_uniform(spec, [{3, 4}], 0.5, pointed=True) is None

    def test_points_past_the_member_cap_raise(self):
        with pytest.raises(FamilyError, match="FAMILY_MEMBER_CAP = 4096"):
            paracompact_nets(FAMILY_MEMBER_CAP + 1, 8)

    @pytest.mark.parametrize("m, horizon", [(1, 1), (3, 4), (6, 12), (9, 5), (0, 4), (3, 0), (FAMILY_MEMBER_CAP + 1, 8)])
    def test_nets_are_the_spec_members(self, m, horizon):
        # Values, targets and window agree, and so does any error.
        def outcome(build):
            try:
                return [(a.values, a.target, a.window) for a in build()]
            except ValueError as exc:
                return type(exc), str(exc)

        def spec_members():
            return enumerate_family(FamilySpec("paracompact", make_omega_window(horizon), {"n_points": m}))

        assert outcome(lambda: paracompact_nets(m, horizon)) == outcome(spec_members)


class TestClosedFormDispatch:
    def test_C_plain(self):
        spec = FamilySpec("C", make_omega_window(6))
        cert = closed_form_refutation(spec, {0, 1}, 0.5)
        assert cert is not None and replay_certificate(cert)

    def test_B_has_no_refutation(self):
        spec = FamilySpec("B", make_omega_window(6))
        assert closed_form_refutation(spec, {0, 1}, 0.5) is None

    def test_B0_pointed(self):
        # No closed form: the exact search over the enumeration refutes.
        spec = FamilySpec("B0", make_omega_window(6))
        assert closed_form_refutation(spec, {0, 1}, 0.5, pointed=True) is None
        cert = refute_uniform(spec, [{0, 1}], 0.5, pointed=True)
        assert cert is not None and replay_certificate(cert)
        assert cert.member.values in {m.values for m in members("B0", spec.window)}

    def test_failure_returns_none(self):
        # candidate set at the top: construction impossible, not an exception
        spec = FamilySpec("C", make_omega_window(3))
        assert closed_form_refutation(spec, {2}, 0.5) is None


class TestDMember:
    def test_pattern(self):
        w = make_omega_window(7)
        assert d_member(w, 4).values == (0, 1, 0, 1, 0, 1, 1)

    def test_alpha_bounds(self):
        with pytest.raises(FamilyError):
            d_member(make_omega_window(3), 5)

    def test_unknown_tag_rejected(self):
        with pytest.raises(FamilyError):
            FamilySpec("X", make_omega_window(3))


class TestInvariantFastPaths:
    @settings(max_examples=300, deadline=None)
    @given(windows(), st.data())
    def test_invariants_match_oracles(self, w, data):
        # Zero on the up-closure of a random set is non-increasing (and
        # eventually zero when the set is nonempty); a flip may break that.
        seeds = data.draw(st.sets(st.sampled_from(w.elements)))
        zeros = {j for i in seeds for j in w.up_set(i)}
        values = [0 if e in zeros else 1 for e in w.elements]
        if data.draw(st.booleans()):
            p = data.draw(st.integers(0, len(w) - 1))
            values[p] = 1 - values[p]
        values = tuple(values)
        assert _nonincreasing(w, values) == brute_nonincreasing(w, values)
        assert _eventually_zero(w, values) == brute_eventually_zero(w, values)

    @settings(max_examples=200, deadline=None)
    @given(windows(), st.data())
    def test_invariants_match_oracles_on_random_values(self, w, data):
        values = tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(w), max_size=len(w))))
        assert _nonincreasing(w, values) == brute_nonincreasing(w, values)
        assert _eventually_zero(w, values) == brute_eventually_zero(w, values)

    def test_chain_B_enumeration_makes_no_leq_calls(self, monkeypatch):
        calls = []
        original = DirectedWindow.leq

        def counting(self, a, b):
            calls.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(DirectedWindow, "leq", counting)
        got = members("B", make_omega_window(128))
        assert len(got) == 129 and calls == []
        make_omega_window(4).leq(1, 2)
        assert len(calls) == 1  # the counter does see leq


class TestSpecParameters:
    @pytest.mark.parametrize(
        "params", [{"alphas": 3}, {"alphas": [1.5]}, {"alphas": [True]}, {"alphas": "01"}, {"n_points": "x"}, {"n_points": 2.0}, {"n_points": False}]
    )
    def test_wrong_type_raises_type_error(self, params):
        with pytest.raises(TypeError):
            FamilySpec("D", make_omega_window(4), params)

    @pytest.mark.parametrize("params", [{"alphas": [-1]}, {"alphas": [0, 4]}, {"n_points": 0}])
    def test_out_of_range_raises_family_error(self, params):
        with pytest.raises(FamilyError):
            FamilySpec("paracompact", make_omega_window(4), params)

    def test_valid_parameters_accepted(self):
        w = make_omega_window(4)
        assert [m.values for m in members("D", w, alphas=(0, 3))] == [(0, 1, 1, 1), (0, 1, 0, 1)]
        assert len(members("paracompact", w, n_points=7)) == 7
