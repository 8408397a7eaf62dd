"""The distance kernel against the brute-force oracles.

Tail diameters (Cauchy indices), block diameters (witnesses) and the
matrix greedy cover must give exactly the answers of raw pairwise loops,
including on tied values, int values and tolerances equal to a distance.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    binary_space,
    build_sampling_suite,
    empirical_rate,
    euclidean_space,
    finite_space_ump_check,
    half_line_space,
    identity_sampling,
    make_omega_window,
    product,
    random_sampling,
    unit_interval_space,
    window_cauchy_index,
)
from metastable.analyze import block_diameters
from metastable.net import MetricSpace, cauchy_indices, eps_floor, tail_diameters
from metastable.order import DirectedWindow
from oracles import brute_cauchy_index, brute_greedy_cover, brute_up_set, brute_witness, diamond, label_chain

_COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0, 1, -1, 0.5]))

# Point strategies per space; ints, exact binary fractions and the 2**53
# limit sit beside arbitrary floats so ties and exact boundaries are common.
SPACES = {
    "binary": (binary_space(), st.integers(0, 1)),
    "unit-interval": (
        unit_interval_space(),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, 0.25, 0.5, 0.75])),
    ),
    "half-line": (
        half_line_space(),
        st.one_of(st.integers(0, 2**53), st.floats(0.0, 1e6), st.sampled_from([0, 3, 0.5, 2**53])),
    ),
    "euclidean": (euclidean_space(2), st.tuples(_COORD, _COORD)),
}

WINDOWS = {
    "omega": make_omega_window,
    "labels": lambda n: label_chain([f"x{p:02d}" for p in range(n)]),
    "column": lambda n: product(make_omega_window(n), make_omega_window(1)),
    "grid": lambda n: product(make_omega_window(2), make_omega_window(n)),
}

# Windows that are not chains: the up-set scan, not tail diameters.
NON_CHAIN_WINDOWS = {
    "square": lambda n: product(make_omega_window(n // 2 + 1), make_omega_window(n // 2 + 1)),
    "top-first": lambda n: label_chain([f"x{n - 1:02d}"] + [f"x{p:02d}" for p in range(n - 1)]),
    "diamond-column": lambda n: product(diamond(), make_omega_window(n // 2 + 1)),
}


@st.composite
def families(draw, windows=WINDOWS):
    """One to four nets on a shared window and space, valued in a small pool."""
    space, points = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    window = windows[draw(st.sampled_from(sorted(windows)))](draw(st.integers(1, 8)))
    pool = draw(st.lists(points, min_size=1, max_size=6))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=len(window), max_size=len(window)),
            min_size=1,
            max_size=4,
        )
    )
    return [Net(window, space, tuple(row)) for row in rows]


@st.composite
def tolerances(draw, nets, unique=True, max_size=3):
    """A tolerance grid drawn from the nets' own positive distances plus fixed values."""
    space = nets[0].space
    values = {v for a in nets for v in a.values}
    exact = {space.dist(x, y) for x in values for y in values} - {0}
    pool = st.sampled_from(sorted(exact | {0.1, 0.5}))
    return draw(st.lists(pool, min_size=1, max_size=max_size, unique=unique))


def _suite(window, seed):
    rng = random.Random(seed)
    return {
        "identity": identity_sampling(window),
        "r0": random_sampling(window, rng),
        "r-wide": random_sampling(window, rng, max_size=len(window)),
    }


def _diameter(a, elements):
    return max(float(a.space.dist(a.value(j), a.value(k))) for j in elements for k in elements)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cauchy_indices_match_oracle(data):
    nets = data.draw(families())
    grid = data.draw(tolerances(nets))
    for a in nets:
        expected = tuple(brute_cauchy_index(a, eps) for eps in grid)
        assert cauchy_indices(a, grid) == expected
        assert tuple(window_cauchy_index(a, eps) for eps in grid) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_chain_cauchy_indices_match_oracle(data):
    # One scan serves the whole grid, so the grid comes unsorted and with repeats.
    nets = data.draw(families(NON_CHAIN_WINDOWS))
    grid = data.draw(tolerances(nets, unique=False, max_size=6))
    assert not nets[0].window.is_chain() or len(nets[0].window) == 1
    for a in nets:
        assert cauchy_indices(a, grid) == tuple(brute_cauchy_index(a, eps) for eps in grid)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_block_and_tail_diameters_are_exact(data, seed):
    nets = data.draw(families())
    w = nets[0].window
    for eta in _suite(w, seed).values():
        d = block_diameters(nets, eta)
        assert d.shape == (len(nets), len(w))
        for m, a in enumerate(nets):
            assert list(d[m]) == [_diameter(a, eta.at(i)) for i in w.elements]
    if w.is_chain():
        for a in nets:
            assert list(tail_diameters(a)) == [_diameter(a, w.elements[p:]) for p in range(len(w))]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_witnesses_and_covers_match_oracles(data, seed):
    nets = data.draw(families())
    grid = data.draw(tolerances(nets))
    suite = _suite(nets[0].window, seed)
    report = empirical_rate(nets, grid, suite)
    assert len(report.cells) == len(grid) * len(suite)
    for cell in report.cells:
        eta = suite[cell.sampling_id]
        assert cell.witnesses == tuple(brute_witness(a, cell.eps, eta) for a in nets)
        assert (cell.cover_set, cell.uncovered) == brute_greedy_cover(nets, cell.eps, eta)
    assert report.cauchy_indices == tuple(
        tuple((eps, brute_cauchy_index(a, eps)) for eps in report.eps_grid) for a in nets
    )


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_finite_space_ump_verdicts_match_oracles(data, seed):
    nets = data.draw(families())
    grid = data.draw(tolerances(nets))
    suite = _suite(nets[0].window, seed)
    verdict = finite_space_ump_check({f"p{m}": a for m, a in enumerate(nets)}, grid, suite)
    finest = min(grid)
    failures = tuple(
        (f"p{m}", finest) for m, a in enumerate(nets) if brute_cauchy_index(a, finest) is None
    )
    assert verdict.non_cauchy_points == failures
    assert verdict.ok == (not failures)
    expected = () if failures else tuple(
        ((eps, sid), brute_greedy_cover(nets, eps, eta)[0])
        for eps in sorted(grid, reverse=True)
        for sid, eta in suite.items()
    )
    assert verdict.sets == expected


def test_scalar_kernels_make_no_distance_calls(monkeypatch):
    calls = []
    original = MetricSpace.unchecked_dist

    def counting(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(MetricSpace, "unchecked_dist", counting)
    rng = random.Random(12)
    w = make_omega_window(512)
    a = Net(w, unit_interval_space(), tuple(rng.random() for _ in range(512)))
    for eps in (0.5, 0.25, 0.1):
        window_cauchy_index(a, eps)
    for eta in build_sampling_suite(w, ["identity", "successor", "doubling", "random-k"], seed=1).values():
        block_diameters([a], eta)
    assert calls == []
    # The counter does see the pairwise path: 4 points have 6 pairs.
    tail_diameters(Net(make_omega_window(4), euclidean_space(1), tuple((v,) for v in a.values[:4])))
    assert len(calls) == 6


def test_non_chain_order_makes_no_leq_calls(monkeypatch):
    calls = []
    original = DirectedWindow.leq

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(DirectedWindow, "leq", counting)
    rng = random.Random(6)
    w = product(make_omega_window(6), make_omega_window(6))
    a = Net(w, euclidean_space(2), tuple((rng.random(), rng.random()) for _ in w))
    for _ in range(8):
        random_sampling(w, rng)
    cauchy_indices(a, [0.5, 0.1, 2.0])
    assert calls == []
    # The counter does see leq: the oracle filters the window through it,
    # one call per element plus one into each factor.
    brute_up_set(w, (0, 0))
    assert len(calls) == 3 * 36


@pytest.mark.parametrize("eps", [Fraction(1, 3), 2**60 + 200, 0.1, 3, 10**400])
def test_eps_floor_is_the_largest_float_not_above(eps):
    e = eps_floor(eps)
    assert isinstance(e, float) and e <= eps
    assert e == 1.7976931348623157e308 or math.nextafter(e, math.inf) > eps


@pytest.mark.parametrize(
    "space, top, eps",
    [
        # Both tolerances round up to the distance as floats, yet lie below it.
        (unit_interval_space(), 0.5, Fraction(1, 2) - Fraction(1, 2**80)),
        (half_line_space(), 2.0**60 + 256, 2**60 + 200),
    ],
)
def test_non_float_tolerance_is_compared_exactly(space, top, eps):
    a = Net(make_omega_window(2), space, (0, top))
    assert window_cauchy_index(a, eps) is None
    assert brute_cauchy_index(a, eps) is None
    report = empirical_rate([a], [eps], {"id": identity_sampling(a.window)})
    assert report.cauchy_indices == (((eps, None),),)
