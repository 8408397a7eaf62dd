import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    Rate,
    RateError,
    RefutationCertificate,
    Sampling,
    SpaceError,
    binary_space,
    build_rate,
    distance_to_point,
    euclidean_space,
    find_pointed_witness,
    find_witness,
    identity_sampling,
    induced_sampling,
    is_pointed_witness,
    is_witness,
    make_omega_window,
    pointed_to_plain,
    product,
    project_set,
    random_sampling,
    refute_uniform,
    replay_certificate,
    require_replay,
    sampling_independent_bound,
    self_distance,
    selfdist_rate_to_net_rate,
    table_space,
    unit_interval_space,
    verify_rate,
)
from metastable import families, meta, order
from metastable.families import FamilySpec, d_member, enumerate_family, rate_B, refute_C, refute_D_pointed
from metastable.serialize import certificate_to_dict, dumps
from oracles import (
    all_binary_nets,
    all_samplings,
    brute_join,
    brute_leq,
    brute_pointed_witness,
    brute_position,
    brute_refute_uniform,
    brute_up_set,
    brute_values,
    brute_witness,
    diamond,
    eventually_constant_net,
    label_chain,
    random_binary_net,
    random_unit_net,
)


def constant_net(window, v=0):
    return Net(window, binary_space(), (v,) * len(window), target=v)


#: A custom-table space with a tuple symbol, its distances on the tolerances
#: the tests use; witness checks read its points by position.
TABLE = table_space(["p", (0, 1), 2], [[0, 0.5, 1.0], [0.5, 0, 0.5], [1.0, 0.5, 0]])


def random_table_net(window, rng):
    return Net(window, TABLE, tuple(rng.choice(TABLE.symbols) for _ in window.elements), target=rng.choice(TABLE.symbols))


class TestFindWitness:
    def test_constant(self):
        w = make_omega_window(3)
        assert find_witness(constant_net(w), 0.1, identity_sampling(w)) == 0

    def test_spike_with_successor_sampling(self):
        w = make_omega_window(4)
        a = Net(w, binary_space(), (1, 0, 0, 0))
        eta = Sampling.from_function(w, lambda i: {i, min(i + 1, 3)})
        assert find_witness(a, 0.5, eta) == 1

    def test_bad_pair_skipped(self):
        w = make_omega_window(2)
        a = Net(w, binary_space(), (1, 0))
        eta = Sampling(w, (frozenset({0, 1}), frozenset({1})))
        assert find_witness(a, 0.5, eta) == 1

    def test_window_mismatch(self):
        a = constant_net(make_omega_window(3))
        eta = identity_sampling(make_omega_window(4))
        with pytest.raises(Exception):
            find_witness(a, 0.5, eta)

    def test_agrees_with_oracle(self):
        rng = random.Random(1234)
        for _ in range(300):
            w = make_omega_window(rng.randint(1, 12))
            a = rng.choice((random_binary_net, random_unit_net, random_table_net))(w, rng)
            eta = random_sampling(w, rng)
            eps = rng.choice((0.05, 0.2, 0.5, 0.8))
            assert find_witness(a, eps, eta) == brute_witness(a, eps, eta)

    def test_soundness_by_reevaluation(self):
        rng = random.Random(4321)
        for _ in range(100):
            w = make_omega_window(rng.randint(2, 10))
            a = random_unit_net(w, rng)
            eta = random_sampling(w, rng)
            i = find_witness(a, 0.4, eta)
            if i is not None:
                assert max(
                    a.dist(j, k) for j in eta.at(i) for k in eta.at(i)
                ) <= 0.4


class TestFindPointedWitness:
    def test_constant_at_target(self):
        w = make_omega_window(3)
        a = constant_net(w, 1)
        assert find_pointed_witness(a, 1, 0.1, identity_sampling(w)) == 0

    def test_spike(self):
        w = make_omega_window(3)
        a = Net(w, binary_space(), (1, 0, 0))
        assert find_pointed_witness(a, 0, 0.5, identity_sampling(w)) == 1

    def test_never_near(self):
        w = make_omega_window(3)
        a = constant_net(w, 1)
        for eta in (identity_sampling(w), random_sampling(w, random.Random(0))):
            assert find_pointed_witness(a, 0, 0.5, eta) is None

    def test_agrees_with_oracle(self):
        rng = random.Random(555)
        for _ in range(200):
            w = make_omega_window(rng.randint(1, 10))
            if rng.random() < 0.3:
                a = random_table_net(w, rng)
                b, eps = rng.choice(TABLE.symbols), rng.choice((0.25, 0.5, 1.0))
            else:
                a = random_unit_net(w, rng)
                b, eps = rng.random(), rng.choice((0.1, 0.4, 0.7))
            eta = random_sampling(w, rng)
            assert find_pointed_witness(a, b, eps, eta) == brute_pointed_witness(a, b, eps, eta)


class TestRate:
    def test_lookup_uses_largest_threshold_below(self):
        w = make_omega_window(4)
        suite = {"id": identity_sampling(w)}
        rate = build_rate(suite, lambda t, eta: {0} if t >= 0.5 else {1}, thresholds=(0.5, 0.125))
        assert rate.lookup(0.7, "id") == frozenset({0})
        assert rate.lookup(0.5, "id") == frozenset({0})
        assert rate.lookup(0.3, "id") == frozenset({1})

    def test_lookup_below_grid_fails(self):
        w = make_omega_window(4)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, eta: {0}, thresholds=(0.5,))
        with pytest.raises(RateError):
            rate.lookup(0.1, "id")

    def test_empty_candidates_rejected(self):
        w = make_omega_window(2)
        with pytest.raises(RateError):
            Rate((0.5,), {"id": identity_sampling(w)}, {(0.5, "id"): frozenset()})

    def test_ascending_thresholds_rejected(self):
        w = make_omega_window(2)
        with pytest.raises(RateError):
            Rate((0.25, 0.5), {"id": identity_sampling(w)}, {})


    def test_no_samplings_rejected(self):
        # Such a rate verified every family, C included, and had no window.
        with pytest.raises(RateError, match="at least one sampling"):
            Rate((0.5,), {}, {})
        with pytest.raises(RateError, match="at least one sampling"):
            build_rate({}, lambda t, eta: {0})

    def test_samplings_on_different_windows_rejected(self):
        suite = {"a": identity_sampling(make_omega_window(3)), "b": identity_sampling(make_omega_window(4))}
        with pytest.raises(RateError, match="one window"):
            Rate((0.5,), suite, {})

    def test_lookup_and_verify_take_a_registered_id(self):
        w = make_omega_window(3)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, eta: {0}, thresholds=(0.5,))
        for sid in ("nope", identity_sampling(w)):
            with pytest.raises(RateError, match="unregistered"):
                rate.lookup(0.5, sid)
            with pytest.raises(RateError, match="unregistered"):
                verify_rate([constant_net(w)], rate, 0.5, sid)


class TestVerifyRate:
    def test_constant_family(self):
        w = make_omega_window(4)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, eta: {0})
        report = verify_rate([constant_net(w), constant_net(w, 1)], rate, 0.5, "id")
        assert report.overall and report.outcomes == (0, 0)

    def test_family_B_random_samplings(self):
        rng = random.Random(88)
        w = make_omega_window(6)
        family = [
            Net(w, binary_space(), tuple(1 if p < m else 0 for p in range(6)))
            for m in range(7)
        ]
        suite = {f"s{i}": random_sampling(w, rng) for i in range(50)}
        rate = build_rate(suite, lambda t, eta: rate_B(eta, w), thresholds=(0.5,))
        for sid in suite:
            assert verify_rate(family, rate, 0.5, sid).overall

    def test_failing_family(self):
        w = make_omega_window(2)
        eta = Sampling(w, (frozenset({0, 1}), frozenset({1})))
        rate = build_rate({"s": eta}, lambda t, e: {0}, thresholds=(0.5,))
        report = verify_rate(
            [Net(w, binary_space(), (1, 0)), Net(w, binary_space(), (0, 0))],
            rate,
            0.5,
            "s",
        )
        assert not report.overall
        assert report.outcomes == (None, 0)

    def test_pointed_needs_target(self):
        w = make_omega_window(2)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, e: {0}, pointed=True)
        with pytest.raises(RateError):
            verify_rate([Net(w, binary_space(), (0, 0))], rate, 0.5, "id")

    def test_infinite_eps_raises_on_an_empty_family(self):
        # eps is checked once per call, not once per member, so an empty
        # family no longer gets a vacuous report at eps = inf.
        w = make_omega_window(4)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, e: {0})
        with pytest.raises(ValueError, match="eps must be") as err:
            verify_rate([], rate, math.inf, "id")
        assert not isinstance(err.value, RateError)

    @pytest.mark.parametrize("eps", [math.nan, 0, -1.0])
    def test_eps_below_the_grid_raises_rate_error(self, eps):
        # The lookup comes first, so these keep their RateError.
        w = make_omega_window(4)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, e: {0})
        with pytest.raises(RateError, match="no rate entry"):
            verify_rate([constant_net(w)], rate, eps, "id")

    @pytest.mark.parametrize("pointed", [False, True])
    def test_one_eps_check_per_call_and_one_window_comparison_per_member(self, monkeypatch, pointed):
        w = make_omega_window(32)
        family = list(enumerate_family(FamilySpec("B", w)))
        suite = {"id": identity_sampling(w), "r": random_sampling(w, random.Random(3))}
        rate = build_rate(suite, lambda t, eta: rate_B(eta, w), pointed=pointed)
        counts = {"eps": 0, "window": 0}

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(meta, "require_eps", counting("eps", meta.require_eps))
        monkeypatch.setattr(order.DirectedWindow, "__eq__", counting("window", order.DirectedWindow.__eq__))
        report = verify_rate(family, rate, 0.5, "r")
        assert counts == {"eps": 1, "window": len(family)}
        assert report.overall or pointed


class TestPointedToPlain:
    def test_entry_shift(self):
        w = make_omega_window(4)
        suite = {"id": identity_sampling(w)}
        rate = build_rate(
            suite, lambda t, eta: {0} if t >= 0.25 else {1}, thresholds=(0.5, 0.25, 0.125), pointed=True
        )
        plain = pointed_to_plain(rate)
        assert not plain.pointed
        # entry at 0.5 comes from the pointed entry at 0.25
        assert plain.lookup(0.5, "id") == rate.lookup(0.25, "id")

    def test_rejects_plain_input(self):
        w = make_omega_window(2)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, e: {0})
        with pytest.raises(RateError):
            pointed_to_plain(rate)

    def test_rejects_grid_without_halves(self):
        w = make_omega_window(2)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, e: {0}, thresholds=(0.3,), pointed=True)
        with pytest.raises(RateError):
            pointed_to_plain(rate)

    def test_law_on_random_pointed_families(self):
        # pointed pass at eps/2 implies plain pass at eps, via the transform
        rng = random.Random(2025)
        for _ in range(500):
            n = rng.randint(2, 6)
            w = make_omega_window(n)
            suite = {f"s{i}": random_sampling(w, rng) for i in range(3)}
            family = [eventually_constant_net(w, rng) for _ in range(rng.randint(1, 4))]
            # candidate sets: every pointed witness at each threshold
            thresholds = (0.5, 0.25)

            def pointed_sets(t, eta):
                out = set()
                for a in family:
                    i = brute_pointed_witness(a, a.target, t, eta)
                    out.add(i if i is not None else w.elements[0])
                return out

            rate = build_rate(suite, pointed_sets, thresholds=thresholds, pointed=True)
            plain = pointed_to_plain(rate)
            for sid in suite:
                if verify_rate(family, rate, 0.25, sid).overall:
                    assert verify_rate(family, plain, 0.5, sid).overall


class TestSelfDistanceRate:
    def _setup(self, n, eta):
        w = make_omega_window(n)
        return w, {"base": eta}, {"base": induced_sampling(eta, w)}

    def test_singleton_projection(self):
        w = make_omega_window(5)
        eta = identity_sampling(w)
        base = {"base": eta}
        induced = {"base": induced_sampling(eta, w)}
        rate = Rate((0.5,), induced, {(0.5, "base"): frozenset({(1, 2)})}, pointed=True)
        out = selfdist_rate_to_net_rate(rate, w, base)
        assert out.table[(0.5, "base")] == frozenset({2})
        assert not out.pointed

    def test_rejects_non_induced_samplings(self):
        w = make_omega_window(3)
        p = product(w, w)
        base = {"base": identity_sampling(w)}
        not_induced = {"base": identity_sampling(p)}
        rate = Rate((0.5,), not_induced, {(0.5, "base"): frozenset({(0, 0)})}, pointed=True)
        with pytest.raises(RateError):
            selfdist_rate_to_net_rate(rate, w, base)

    def test_law_exhaustive_small_windows(self):
        # a pointed self-distance witness in S near 0 projects to a plain witness
        for n in (2, 3):
            w = make_omega_window(n)
            for a in all_binary_nets(w):
                sd = self_distance(a)
                for eta in all_samplings(w, max_size=2):
                    ind = induced_sampling(eta, w)
                    for pair in product(w, w).elements:
                        if is_pointed_witness(sd, 0.0, 0.5, ind, pair):
                            j = w.join(*pair)
                            assert is_witness(a, 0.5, eta, j)

    def test_law_randomized(self):
        rng = random.Random(31415)
        for _ in range(300):
            n = rng.randint(2, 6)
            w = make_omega_window(n)
            a = random_unit_net(w, rng)
            eta = random_sampling(w, rng)
            sd = self_distance(a)
            ind = induced_sampling(eta, w)
            eps = rng.choice((0.2, 0.5))
            pairs = [
                (rng.choice(w.elements), rng.choice(w.elements)) for _ in range(4)
            ]
            s = {p for p in pairs if is_pointed_witness(sd, 0.0, eps, ind, p)}
            if s:
                assert any(
                    is_witness(a, eps, eta, j) for j in project_set(s, w)
                )


class TestSamplingIndependentBound:
    def test_join_on_chain(self):
        w = make_omega_window(6)
        suite = {"a": identity_sampling(w), "b": random_sampling(w, random.Random(3))}
        rate = build_rate(suite, lambda t, eta: {1, 3}, thresholds=(0.5,))
        assert sampling_independent_bound(rate) == {0.5: 3}

    def test_tail_bound_for_restricted_family(self):
        w = make_omega_window(6)
        family = [
            Net(w, binary_space(), tuple(1 if p < m else 0 for p in range(6)))
            for m in range(3)  # thresholds 0..2: all zero from index 2 on
        ]
        suite = {"id": identity_sampling(w)}
        rate = build_rate(suite, lambda t, eta: {2}, thresholds=(0.5,))
        bound = sampling_independent_bound(rate)[0.5]
        assert bound == 2
        for a in family:
            tail = w.up_set(bound)
            assert all(a.dist(j, k) <= 0.5 for j in tail for k in tail)

    def test_dependent_sets_rejected(self):
        w = make_omega_window(4)
        suite = {"a": identity_sampling(w), "b": random_sampling(w, random.Random(9))}
        rate = build_rate(suite, lambda t, eta: {0} if eta == suite["a"] else {1}, thresholds=(0.5,))
        with pytest.raises(RateError):
            sampling_independent_bound(rate)


class TestPointedDistanceTransfer:
    def test_law_randomized(self):
        # a pointed-near-0 witness for d(a, b) is a pointed witness for a near b
        rng = random.Random(777)
        for _ in range(300):
            w = make_omega_window(rng.randint(2, 8))
            a = random_unit_net(w, rng)
            b = rng.random()
            eta = random_sampling(w, rng)
            d = distance_to_point(a, b)
            i = find_pointed_witness(d, 0.0, 0.3, eta)
            if i is not None:
                assert is_pointed_witness(a, b, 0.3, eta, i)


def spikes(w):
    """Eventually-zero binary nets, the m-th with its one 1 at position m."""
    n = len(w)
    return [Net(w, binary_space(), tuple(1 if p == m else 0 for p in range(n)), target=0) for m in range(n)]


def refute_members(window, rng, kind):
    """A few nets on ``window`` with targets, values on a grid that puts
    distances exactly on the tolerances."""
    if kind == "binary":
        space, point = binary_space(), lambda: rng.randint(0, 1)
    elif kind == "unit":
        space, point = unit_interval_space(), lambda: rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
    elif kind == "table":
        space, point = TABLE, lambda: rng.choice(TABLE.symbols)
    else:
        space, point = euclidean_space(2), lambda: (rng.choice((0.0, 0.3, 0.5)), rng.choice((0.0, 0.4, 1.0)))
    return [
        Net(window, space, tuple(point() for _ in window.elements), target=point())
        for _ in range(rng.randint(1, 4))
    ]


class TestRefuteUniform:
    def test_family_C_closed_form(self):
        w = make_omega_window(6)
        cert = refute_uniform(FamilySpec("C", w), [{0, 1, 2}], 0.5)
        assert cert is not None
        assert replay_certificate(cert)
        assert cert.sampling.at(0) == frozenset({3, 4})
        assert cert.member.values == (0, 0, 0, 1, 0, 0)

    def test_constant_family_exhausts(self):
        w = make_omega_window(4)
        family = [constant_net(w)]
        assert refute_uniform(family, [{0}], 0.5) is None
        assert brute_refute_uniform(family, [{0}], 0.5) is None

    def test_B0_pointed_closed_form(self):
        w = make_omega_window(6)
        cert = refute_uniform(FamilySpec("B0", w), [{0, 1}], 0.5, pointed=True)
        assert cert is not None and replay_certificate(cert)
        assert cert.pointed_target == 0
        # the defeating member is constant 1 on the candidate set: the first
        # member of B0's enumeration, cutoff n - 1, under the identity sampling
        assert all(cert.member.value(i) == 1 for i in {0, 1})
        assert cert.member.values == (1, 1, 1, 1, 1, 0)
        assert cert.sampling == identity_sampling(w)

    def test_exact_search_finds_refutation(self):
        # Plain lists have no closed form.  The first spike's up-set at 0
        # holds its largest and smallest value, 1 at 0 and 0 at 1.
        w = make_omega_window(8)
        family = spikes(w)
        cert = refute_uniform(family, [{0}], 0.5)
        assert cert is not None and replay_certificate(cert)
        assert cert.member is family[0]
        assert cert.sampling.at(0) == frozenset({0, 1})
        assert all(cert.sampling.at(i) == {i} for i in range(1, 8))

    def test_returns_first_defeated_member(self):
        # Spike 0 is constant on the up-set of 1, so spike 1 is the first
        # member defeated on {0, 1}; reversed, the last spike comes first.
        w = make_omega_window(8)
        family = spikes(w)
        cert = refute_uniform(family, [{0}, {1}], 0.5)
        assert cert.member is family[1]
        assert cert == refute_uniform(family, [{0}, {1}], 0.5)
        assert refute_uniform(family[::-1], [{0}, {1}], 0.5).member is family[-1]

    @pytest.mark.parametrize("tag, pointed", [("C", False), ("D", True)])
    def test_candidate_outside_the_window_never_reaches_a_closed_form(self, monkeypatch, tag, pointed):
        # The spec path checks the candidates before it decides, as the list path does.
        calls = []
        monkeypatch.setattr(families, "closed_form_refutation", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(order.WindowError, match="99 is not an element"):
            refute_uniform(FamilySpec(tag, make_omega_window(8)), [{0, 1}, {99}], 0.5, pointed=pointed)
        assert calls == []

    def test_D_closed_form_only_for_a_listed_member(self):
        # The closed form's cutoff 2 net (0, 1, 0, 1, 1, ...) is not the cutoff-0
        # net, which no sampling defeats at 1: its up-set there is all 1.
        w = make_omega_window(8)
        assert refute_uniform(FamilySpec("D", w, {"alphas": [0]}), [{0, 1}], 0.5, pointed=True) is None
        assert refute_uniform([d_member(w, 0)], [{0, 1}], 0.5, pointed=True) is None
        for alpha in (2, 3):  # both cutoffs give the closed form's net, so it answers
            cert = refute_uniform(FamilySpec("D", w, {"alphas": [alpha]}), [{0, 1}], 0.5, pointed=True)
            assert cert.member == d_member(w, alpha) == d_member(w, 2)
            assert cert.sampling == order.successor_sampling(w)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_D_spec_answers_as_its_member_list(self, n, data):
        w = make_omega_window(n)
        positions = st.integers(0, n - 1)
        spec = FamilySpec("D", w, {"alphas": data.draw(st.lists(positions, min_size=1, max_size=4))})
        sets = data.draw(st.lists(st.lists(positions, min_size=1, max_size=3), min_size=1, max_size=3))
        eps = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        members = list(enumerate_family(spec))
        got = refute_uniform(spec, sets, eps, pointed=True)
        assert (got is None) == (refute_uniform(members, sets, eps, pointed=True) is None)
        if got is not None:
            assert got.member in members

    def test_empty_candidates_rejected(self):
        w = make_omega_window(4)
        with pytest.raises(ValueError):
            refute_uniform([constant_net(w)], [], 0.5)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["B", "C", "D"]), st.integers(2, 5), st.booleans(), st.data())
    def test_matches_per_member_replay(self, tag, n, pointed, data):
        # Seeded lists of family members; candidate sets sometimes reach
        # past the window top, which raises WindowError.  The same list
        # with one net on another window inserted anywhere raises it too.
        w = make_omega_window(n)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        if tag == "D":
            family = [d_member(w, rng.randrange(n)) for _ in range(rng.randint(1, 6))]
        else:
            family = list(enumerate_family(FamilySpec(tag, w)))
            family = rng.sample(family, min(len(family), rng.randint(1, 6)))
        foreign = random_binary_net(make_omega_window(n - 1), rng, target=0)
        mixed = family[:]
        mixed.insert(rng.randint(0, len(family)), foreign)
        labels = list(range(n + 1 if rng.random() < 0.1 else n))
        sets = [rng.sample(labels, rng.randint(1, min(3, len(labels)))) for _ in range(rng.randint(1, 3))]
        eps = rng.choice([0.25, 0.5, 1.0])
        with pytest.raises(order.WindowError):
            refute_uniform(mixed, sets, eps, pointed=pointed)
        if any(i not in w for s in sets for i in s):
            with pytest.raises(order.WindowError, match="not an element of this window"):
                refute_uniform(family, sets, eps, pointed=pointed)
            return
        got = refute_uniform(family, sets, eps, pointed=pointed)
        want = brute_refute_uniform(family, sets, eps, pointed=pointed)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.member is want.member and require_replay(got) is got

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 5).map(make_omega_window),
            st.integers(1, 5).map(lambda n: label_chain([f"x{p}" for p in range(n)])),
            st.just(diamond()),
            st.just(product(make_omega_window(2), make_omega_window(2))),
        ),
        st.sampled_from(["binary", "unit", "euclidean", "table"]),
        st.booleans(),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.data(),
    )
    def test_matches_exhaustive_oracle(self, window, kind, pointed, eps, data):
        # On windows of at most 5 elements every sampling with blocks of
        # at most two elements is tried, so agreement on the member (or
        # None) checks that the per-index rule is exact.
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        family = refute_members(window, rng, kind)
        # The last element is the top; a union holding it is rarely defeated.
        elements = list(window.elements)[: None if rng.random() < 0.2 else -1] or [window.elements[0]]
        sets = [rng.sample(elements, rng.randint(1, min(2, len(elements)))) for _ in range(rng.randint(1, 2))]
        got = refute_uniform(family, sets, eps, pointed=pointed)
        want = brute_refute_uniform(family, sets, eps, pointed=pointed)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.member is want.member and require_replay(got) is got
            assert all(len(got.sampling.at(i)) == (1 if pointed else 2) for i in got.candidate_set)

    def test_validates_only_the_certificate(self, monkeypatch):
        # No random draws at all; the one sampling validated is the
        # returned certificate's, in its final replay.
        def no_draws(*args):
            raise AssertionError("refute_uniform drew a random number")

        monkeypatch.setattr(random.Random, "randint", no_draws)
        monkeypatch.setattr(random.Random, "sample", no_draws)
        validations = []
        original = order.validate_sampling
        monkeypatch.setattr(order, "validate_sampling", lambda s: validations.append(1) or original(s))
        w = make_omega_window(16)
        family = [constant_net(w, 0), constant_net(w, 1)]
        assert refute_uniform(family, [{0, 3}], 0.5) is None
        assert refute_uniform(FamilySpec("B", w), [{0, 15}], 0.5) is None
        assert validations == []
        assert refute_uniform(spikes(w), [{0}], 0.5) is not None
        assert refute_uniform(FamilySpec("B0", w), [{0}], 0.5, pointed=True) is not None
        assert len(validations) == 2

    def test_paracompact_enumeration_is_lazy(self, monkeypatch):
        # Point 3 is the first whose iterate is 0 above 2; it lies in the first
        # chunk of 64 members, and no later chunk is built.
        chunks, original = [], families._members

        def counted(spec, size):
            for chunk in original(spec, size):
                chunks.append(len(chunk))
                yield chunk

        monkeypatch.setattr(families, "_members", counted)
        spec = FamilySpec("paracompact", make_omega_window(64), {"n_points": 4096})
        cert = refute_uniform(spec, [{0, 1, 2}], 0.5, pointed=True)
        assert cert is not None and cert.member.values[:5] == (1.0, 0.0, 1.0, 0.0, 1.0)
        assert chunks == [64]

    def test_net_lists_are_not_capped(self):
        # Only enumeration is capped; member 4097 of a list is examined.
        w = make_omega_window(3)
        family = [Net(w, binary_space(), (0, 0, 0), target=0)] * 4096 + [Net(w, binary_space(), (1, 0, 0), target=0)]
        cert = refute_uniform(family, [{0}], 0.5)
        assert cert is not None and cert.member is family[-1]

    def test_closed_form_that_fails_replay_raises(self, monkeypatch):
        # A broken closed form is a defect, not a cue to search on.
        from metastable import families
        from metastable.net import CheckError

        w = make_omega_window(8)
        good = refute_C({0, 1}, w, 0.5)
        bad = dataclasses.replace(good, member=Net(w, binary_space(), (0,) * 8, target=0))
        monkeypatch.setattr(families, "closed_form_refutation", lambda *args, **kwargs: bad)
        with pytest.raises(CheckError, match="does not replay"):
            refute_uniform(FamilySpec("C", w), [{0, 1}], 0.5)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_member_on_another_window_raises(self, position):
        # Even behind a member that would be defeated: the list is read whole.
        w = make_omega_window(4)
        family = [Net(w, binary_space(), (1, 0, 0, 0), target=0), constant_net(w)]
        family.insert(position, Net(make_omega_window(5), binary_space(), (1, 0, 0, 0, 0), target=0))
        with pytest.raises(order.WindowError, match="different windows"):
            refute_uniform(family, [{0}], 0.5)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty family"):
            refute_uniform([], [{0}], 0.5)

    def test_pointed_needs_every_target_up_front(self):
        w = make_omega_window(6)
        family = [d_member(w, 3), Net(w, binary_space(), (0,) * 6)]
        with pytest.raises(RateError):
            refute_uniform(family, [{0}], 0.5, pointed=True)


class TestReplay:
    def test_replay_detects_broken_certificate(self):
        w = make_omega_window(4)
        a = constant_net(w)
        cert = RefutationCertificate(0.5, identity_sampling(w), a, frozenset({0}))
        assert not replay_certificate(cert)  # constant nets are witnessed everywhere

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_invalid_eps_raises(self, eps):
        cert = refute_C({0, 1}, make_omega_window(6), 0.5)
        assert replay_certificate(cert)
        with pytest.raises(ValueError):
            replay_certificate(dataclasses.replace(cert, eps=eps))

    def test_invalid_pointed_target_raises(self):
        cert = refute_D_pointed({0, 1}, make_omega_window(6))
        with pytest.raises(SpaceError):
            replay_certificate(dataclasses.replace(cert, pointed_target=2))


    def test_sampling_on_another_window_does_not_replay(self):
        cert = refute_C({0, 1}, make_omega_window(6), 0.5)
        assert not replay_certificate(dataclasses.replace(cert, sampling=identity_sampling(make_omega_window(7))))

    def test_candidate_outside_the_window_does_not_replay(self):
        cert = refute_C({0, 1}, make_omega_window(6), 0.5)
        assert not replay_certificate(dataclasses.replace(cert, candidate_set=frozenset({0, 6})))


class TestCandidatesAsGiven:
    """A candidate names an element only as written: True and 1.0 are not 1."""

    @pytest.mark.parametrize("sets, named", [([[True, 2.0]], "True"), ([[2, 1.0]], "1.0"), ([[1, True]], "True")])
    def test_omega(self, sets, named):
        with pytest.raises(order.WindowError, match=f"{named} is not an element of this window"):
            refute_uniform(FamilySpec("C", make_omega_window(8)), sets, 0.5)

    def test_product(self):
        w = product(make_omega_window(2), make_omega_window(2))
        with pytest.raises(order.WindowError, match=r"\(0, True\) is not an element of this window"):
            refute_uniform(FamilySpec("C", w), [[(0, 0), (0, True)]], 0.5)

    def test_labels_as_written_refute(self):
        cert = refute_uniform(FamilySpec("C", make_omega_window(8)), [[1, 2]], 0.5)
        assert cert.candidate_set == {1, 2} and all(type(i) is int for i in cert.candidate_set)


class TestTrustedInputs:
    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf, "0.5"])
    def test_witness_checks_reject_invalid_eps(self, eps):
        w = make_omega_window(3)
        a, eta = constant_net(w), identity_sampling(w)
        for check in (
            lambda: is_witness(a, eps, eta, 0),
            lambda: is_pointed_witness(a, 0, eps, eta, 0),
            lambda: find_witness(a, eps, eta),
            lambda: refute_uniform([a], [{0}], eps),
        ):
            with pytest.raises(ValueError):
                check()

    def test_witness_predicates_refuse_a_sampling_on_another_window(self):
        # 4 names an element of both windows, but the blocks are omega_5's, not the net's.
        a, eta = constant_net(make_omega_window(6)), order.successor_sampling(make_omega_window(5))
        for check in (
            lambda: is_witness(a, 0.5, eta, 4),
            lambda: is_pointed_witness(a, 0, 0.5, eta, 4),
            lambda: find_witness(a, 0.5, eta),
            lambda: find_pointed_witness(a, 0, 0.5, eta),
        ):
            with pytest.raises(order.WindowError, match="different windows"):
                check()

    def test_pointed_witness_checks_outside_point(self):
        w = make_omega_window(3)
        a, eta = constant_net(w), identity_sampling(w)
        with pytest.raises(SpaceError):
            is_pointed_witness(a, 0.5, 0.5, eta, 0)
        with pytest.raises(SpaceError):
            distance_to_point(a, 2)

    def test_threshold_must_be_finite(self):
        w = make_omega_window(2)
        with pytest.raises(ValueError):
            Rate((math.inf, 0.5), {"id": identity_sampling(w)}, {})


class TestPointedTop:
    """A union holding the window top defeats, pointed, only members far from their target there."""

    def test_C_spec_is_exhausted_without_enumerating(self, monkeypatch):
        # Every C member is 0, its target, at the top, at any window size.
        monkeypatch.setattr(families, "_members", lambda spec: pytest.fail("C was enumerated"))
        for sets in ([{4999}], [{0, 7}, {4999}], [{4998, 4999}]):
            assert refute_uniform(FamilySpec("C", make_omega_window(5000)), sets, 0.5, pointed=True) is None

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_C_spec_answers_as_its_member_list(self, n):
        w = make_omega_window(n)
        members = list(enumerate_family(FamilySpec("C", w)))
        for sets in ([{n - 1}], [{0}, {n - 1}], [set(range(n))]):
            assert refute_uniform(members, sets, 0.5, pointed=True) is None
            assert refute_uniform(FamilySpec("C", w), sets, 0.5, pointed=True) is None

    def test_members_at_their_target_on_top_are_skipped_before_any_far_block(self, monkeypatch):
        # Spikes are 1 at one index and 0, their target, at the top; only the
        # member far from its target at the top is searched.
        w = make_omega_window(8)
        far = Net(w, binary_space(), (0,) * 7 + (1,), target=0)
        calls = []
        original = meta._far_block
        monkeypatch.setattr(meta, "_far_block", lambda s, k, *args: calls.append(k) or original(s, k, *args))
        cert = refute_uniform(spikes(w)[:7] + [far], [{2, 7}], 0.5, pointed=True)
        assert cert.member is far and require_replay(cert) is cert
        assert set(calls) == {7}


def label_far_blocks(a, union, eps, pointed):
    """Per union element, the far block the label scans over its up-set find: pointed, the first
    element far from the target; on scalar spaces the largest and the smallest value; else the first
    far pair in combinations order."""
    w, value, dist = a.window, brute_values(a), a.space.unchecked_dist
    blocks = {}
    for i in union:
        up = brute_up_set(w, i)
        if pointed:
            blocks[i] = {next(j for j in up if dist(value[j], a.target) > eps)}
        elif a.space.is_scalar():
            blocks[i] = {max(up, key=value.__getitem__), min(up, key=value.__getitem__)}
        else:
            blocks[i] = set(next(pair for pair in itertools.combinations(up, 2) if dist(*map(value.get, pair)) > eps))
    return blocks


def assert_built_from_labels(cert, blocks):
    # The certificate equals, and writes the bytes of, the one whose sampling is built label by label.
    want = Sampling.from_function(cert.member.window, lambda i: blocks.get(i, {i}))
    assert cert.sampling == want and cert.sampling.assign == want.assign
    assert dumps(certificate_to_dict(cert)) == dumps(certificate_to_dict(dataclasses.replace(cert, sampling=want)))


CERTIFICATE_WINDOWS = st.one_of(
    st.integers(1, 6).map(make_omega_window),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda nm: product(*map(make_omega_window, nm))),
    st.permutations(["a", "b", "c", "d"]).map(label_chain),
    st.just(diamond()),
    st.just(product(make_omega_window(2), diamond())),
)


class TestCertificatesFromPositions:
    """Evidence is placed by position (``Sampling._with_blocks``) and keeps the bytes of the label-built sampling."""

    @settings(max_examples=150, deadline=None)
    @given(CERTIFICATE_WINDOWS, st.sampled_from(["binary", "unit", "euclidean", "table"]), st.booleans(), st.data())
    def test_refute_uniform_places_the_label_scans_far_blocks(self, window, kind, pointed, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        eps = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        elements = list(window.elements)[:-1] or [window.elements[0]]
        sets = [rng.sample(elements, rng.randint(1, min(3, len(elements)))) for _ in range(rng.randint(1, 2))]
        cert = refute_uniform(refute_members(window, rng, kind), sets, eps, pointed=pointed)
        if cert is not None:
            assert_built_from_labels(cert, label_far_blocks(cert.member, cert.candidate_set, eps, pointed))

    @pytest.mark.parametrize("tag, pointed", [("B", False), ("B0", True), ("C", True)])
    @pytest.mark.parametrize("window", [make_omega_window(9), product(make_omega_window(2), make_omega_window(3)), diamond()])
    def test_spec_refutations_place_the_label_scans_far_blocks(self, tag, pointed, window):
        found = 0
        for union in itertools.chain.from_iterable(itertools.combinations(window.elements, r) for r in (1, 2)):
            cert = refute_uniform(FamilySpec(tag, window), [union], 0.5, pointed=pointed)
            if cert is not None:
                found += 1
                assert_built_from_labels(cert, label_far_blocks(cert.member, cert.candidate_set, 0.5, pointed))
        assert found

    @settings(max_examples=150, deadline=None)
    @given(CERTIFICATE_WINDOWS, st.data())
    def test_refute_C_places_the_pair_above_the_join(self, window, data):
        s = data.draw(st.lists(st.sampled_from(window.elements), min_size=1, max_size=3))
        bound = functools.reduce(functools.partial(brute_join, window), sorted(s, key=functools.partial(brute_position, window)))
        above = lambda x: next((e for e in window.elements if e != x and brute_leq(window, x, e)), None)
        k = above(bound)
        l = above(k) if k is not None else None
        if l is None:
            with pytest.raises(families.FamilyError, match="no two elements strictly above"):
                refute_C(s, window, 0.5)
            return
        cert = require_replay(refute_C(s, window, 0.5))
        assert_built_from_labels(cert, {i: {k, l} for i in s})
