"""The distance kernel against the brute-force oracles.

Tail diameters (Cauchy indices), block diameters (witnesses) and the
matrix greedy cover must give exactly the answers of raw pairwise loops,
including on tied values, int values and tolerances equal to a distance.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from metastable import (
    Net,
    binary_space,
    build_sampling_suite,
    cesaro_rotation_nets,
    empirical_rate,
    euclidean_space,
    finite_space_ump_check,
    half_line_space,
    identity_sampling,
    is_witness,
    make_omega_window,
    product,
    random_sampling,
    random_samplings,
    refute_uniform,
    Sampling,
    table_space,
    unit_interval_space,
    window_cauchy_index,
)
from metastable import analyze, meta, net, order
from metastable.net import cauchy_indices, eps_floor, runs_within, stacked, tails_within
from metastable.order import DirectedWindow, up_runs
from metastable.space import MetricSpace
from oracles import (
    block_diameters,
    brute_cauchy_index,
    brute_greedy_cover,
    brute_random_sampling,
    brute_refute_uniform,
    brute_up_set,
    brute_witness,
    diamond,
    group_max_distances,
    label_chain,
    run_diameters,
    tail_diameters,
    windows,
)

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
        "r-wide": brute_random_sampling(window, rng, max_size=len(window)),
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
        assert cauchy_indices(stacked([a]), grid) == [expected]
        assert tuple(window_cauchy_index(a, eps) for eps in grid) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_chain_cauchy_indices_match_oracle(data):
    # One scan serves the whole grid, so the grid comes unsorted and with repeats.
    nets = data.draw(families(NON_CHAIN_WINDOWS))
    grid = data.draw(tolerances(nets, unique=False, max_size=6))
    assert not nets[0].window.is_chain() or len(nets[0].window) == 1
    for a in nets:
        assert cauchy_indices(stacked([a]), grid) == [tuple(brute_cauchy_index(a, eps) for eps in grid)]


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
            assert list(tail_diameters(stacked([a]))[0]) == [_diameter(a, w.elements[p:]) for p in range(len(w))]


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


@st.composite
def wide_families(draw):
    """40 to 60 nets on one chain, drawn with repeats from a few rows and the
    constant rows of a small value pool, so columns tie and cells need
    different numbers of greedy rounds."""
    space, points = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(points, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=1, max_size=12))
    rows += [[v] * n for v in pool]
    members = draw(st.lists(st.sampled_from(rows), min_size=40, max_size=60))
    return [Net(make_omega_window(n), space, tuple(row)) for row in members]


def _lockstep_suite(w, seed):
    # Whole-window blocks make every column alike (all ties); the cycles have
    # no one-element block, so a net can have no witness at all.
    n = len(w)
    return {
        "identity": identity_sampling(w),
        "random": random_sampling(w, random.Random(seed)),
        "window": Sampling.from_function(w, lambda i: w.elements),
        "cycle": Sampling(w, [{p, (p + 1) % n} for p in range(n)]),
        "cycle-2": Sampling(w, [{p, (p + 2) % n} for p in range(n)]),
    }


def _check_cells(nets, report, suite):
    for cell in report.cells:
        eta = suite[cell.sampling_id]
        assert cell.witnesses == tuple(brute_witness(a, cell.eps, eta) for a in nets)
        assert (cell.cover_set, cell.uncovered) == brute_greedy_cover(nets, cell.eps, eta)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_lockstep_covers_match_oracles_on_wide_tied_families(data, seed):
    nets = data.draw(wide_families())
    suite = _lockstep_suite(nets[0].window, seed)
    _check_cells(nets, empirical_rate(nets, data.draw(tolerances(nets)), suite), suite)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_one_lockstep_cover_call_equals_a_call_per_cell_and_the_oracle(data, seed):
    # Cells stacked as empirical_rate stacks them (every tolerance, then every sampling) run
    # independently: one call gives each cell the cover of its own call and of the set-based oracle.
    wide = data.draw(st.booleans())
    nets = data.draw(wide_families() if wide else families())
    suite = (_lockstep_suite if wide else _suite)(nets[0].window, seed)
    cells = [(eps, eta) for eps in data.draw(tolerances(nets)) for eta in suite.values()]
    witness = np.stack([block_diameters(nets, eta) <= eps for eps, eta in cells])  # cells x members x positions
    covers, els = analyze._greedy_covers(witness), nets[0].window.elements
    for c, (eps, eta) in enumerate(cells):
        assert np.array_equal(covers[c], analyze._greedy_covers(witness[c:c + 1])[0])
        assert tuple(els[p] for p in np.flatnonzero(covers[c])) == brute_greedy_cover(nets, eps, eta)[0]


def test_lockstep_cells_differ_in_rounds_and_leave_nets_uncovered():
    # 48 nets on an 8-chain, 40 drawn from five values: at one tolerance the
    # cells need three different numbers of rounds, and two cells keep nets
    # that no index witnesses (the alternating nets among them).
    w, rng = make_omega_window(8), random.Random(3)
    rows = [tuple(rng.choice([0, 0.25, 0.5, 0.75, 1]) for _ in range(8)) for _ in range(40)]
    nets = [Net(w, unit_interval_space(), row) for row in rows + [(0, 1) * 4] * 4 + [(0.5,) * 8] * 4]
    suite = _lockstep_suite(w, 5)
    report = empirical_rate(nets, [0.25], suite)
    _check_cells(nets, report, suite)
    assert len({len(cell.cover_set) for cell in report.cells}) == 3
    assert {cell.sampling_id for cell in report.cells if cell.uncovered} == {"window", "cycle"}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_finite_space_ump_verdicts_match_oracles(data, seed):
    nets = data.draw(families())
    grid = data.draw(tolerances(nets))
    suite = _suite(nets[0].window, seed)
    verdict = finite_space_ump_check(nets, [f"p{m}" for m in range(len(nets))], grid, suite)
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
        runs_within(stacked([a]), [0.5, 0.25, 0.1], eta.flat, eta.sizes)
    assert calls == []
    # The counter does see the pairwise witness check on a custom-table
    # net, whose kernel gathers from the table: a block of 4 points has 6 pairs.
    b = Net(make_omega_window(4), table_space("wxyz", [[0 if p == q else 1 for q in range(4)] for p in range(4)]), tuple("wxyz"))
    cauchy_indices(stacked([b]), [0.5])
    assert calls == []
    is_witness(b, 1.0, Sampling.from_function(b.window, lambda i: b.window.elements), 0)
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
    cauchy_indices(stacked([a]), [0.5, 0.1, 2.0])
    assert calls == []
    w.leq((0, 0), (1, 1))
    assert len(calls) == 1  # the counter does see leq


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


# -- the filtered kernel against math.dist ----------------------------------

# Coordinates where the numpy estimate is least trustworthy: near the
# overflow and underflow limits, subnormals, ties and exact ints.
_EXTREME = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 3, -2**53, 2**53, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
     1e-300, -1e-300, 5e-324, -5e-324, 2.0**-1060, 2.0**-537, 2.0**-450, 2.0**450, 1e154, 1e-154]
)
_ANY_COORD = st.one_of(_EXTREME, st.floats(allow_nan=False, allow_infinity=False), st.floats(-2.0, 2.0))


@st.composite
def kernel_families(draw, window, kinds=("euclidean", "euclidean", "table", "half-line"), max_members=1):
    """One to ``max_members`` nets on ``window`` in one Euclidean space of
    dimension 1-8 (or a table or scalar space), valued in a small pool so
    ties are common."""
    kind = draw(st.sampled_from(kinds))
    if kind == "euclidean":
        dim = draw(st.integers(1, 8))
        space, points = euclidean_space(dim), st.tuples(*[_ANY_COORD] * dim)
    elif kind == "table":
        k = draw(st.integers(1, 4))
        # symbols at integer points of a line: |p - q| is an exact metric
        coords = draw(st.lists(st.integers(0, 10), min_size=k, max_size=k, unique=True))
        space = table_space(range(k), [[abs(x - y) for y in coords] for x in coords])
        points = st.integers(0, k - 1)
    else:
        space, points = half_line_space(), st.one_of(st.floats(0.0, 1e308), st.integers(0, 2**53))
    pool = draw(st.lists(points, min_size=1, max_size=5))
    count = draw(st.integers(1, max_members))
    return [Net(window, space, tuple(draw(st.sampled_from(pool)) for _ in window.elements)) for _ in range(count)]


def kernel_nets(window):
    """One net of :func:`kernel_families`."""
    return kernel_families(window).map(lambda nets: nets[0])


def _oracle_maxima(a, i, j, g, n_groups):
    out = [0.0] * n_groups
    for p, q, k in zip(i, j, g):
        out[k] = max(out[k], a.space.unchecked_dist(a.values[p], a.values[q]))
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_group_maxima_are_bit_identical_to_unchecked_dist(data):
    n = data.draw(st.integers(1, 12))
    a = data.draw(kernel_nets(make_omega_window(n)))
    n_groups = data.draw(st.integers(1, 4))
    triples = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n_groups - 1)), max_size=40))
    i, j, g = (np.array([t[c] for t in triples], dtype=np.intp) for c in range(3))
    # Streamed in random chunks: a running group maximum must give the same answer.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(triples)), max_size=3)))
    bounds = [0, *cuts, len(triples)]
    chunks = [(i[lo:hi], j[lo:hi], g[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    got = group_max_distances(stacked([a]), chunks, n_groups)
    assert got.tolist() == _oracle_maxima(a, i, j, g, n_groups)


_MISORDERED = [
    # |a| > |b| by one ulp, yet numpy's estimate orders them the other way.
    ((-0.9241669388028388, 0.6388282212255945), (1.0919345106270197, -0.2643199794041268)),
    # Squares in the subnormal range: |a| > |b|, yet a's estimate is 2% lower.
    ((math.sqrt(10.49) * 2.0**-537,) * 2, (math.sqrt(20.6) * 2.0**-537, 0.0)),
]


@pytest.mark.parametrize("a, b", _MISORDERED)
def test_filter_keeps_pairs_whose_estimates_misorder(a, b):
    net_ab = Net(make_omega_window(3), euclidean_space(2), ((0.0, 0.0), a, b))
    assert math.dist((0.0, 0.0), a) > math.dist((0.0, 0.0), b)
    pairs = [(np.array([0, 0]), np.array([1, 2]), np.array([0, 0]))]
    assert group_max_distances(stacked([net_ab]), pairs, 1).tolist() == [math.dist((0.0, 0.0), a)]


@pytest.mark.parametrize("a, b", _MISORDERED)
def test_pair_decisions_hold_where_estimates_misorder(a, b):
    # Bounds at each distance and at the float below it: the estimates cannot tell them apart.
    s = stacked([Net(make_omega_window(3), euclidean_space(2), ((0.0, 0.0), a, b))])
    exact = np.array([math.dist((0.0, 0.0), a), math.dist((0.0, 0.0), b)])
    bounds = np.array([[d] for e in exact for d in (e, math.nextafter(e, 0))])
    assert net._beyond(s, np.array([0, 0]), np.array([1, 2]), bounds).tolist() == (exact > bounds).tolist()


@pytest.mark.parametrize(
    "a, b",
    [
        ((2**53, 0), (2**53 - 1, 0)),
        ((-(2**53), 2**53), (2**53, -(2**53))),
        ((2**53, 5e-324), (2**53 - 2, 0.0)),
        ((5e-324, 0.0), (0.0, 5e-324)),
        ((2.0**-1060, -5e-324), (-(2.0**-1070), 7 * 2.0**-1074)),
        ((-(2**53), 2.0**-1073), (3, -(2.0**-1074))),
    ],
)
def test_pairs_left_to_math_dist_read_exact_ints_and_subnormals(a, b):
    # Ints at +-2**53 and subnormal floats, between two values and between a value and
    # the target; bounds at the distance and one float either side, so the filter
    # leaves every pair to math.dist, which must read the points as given.
    s = stacked([Net(make_omega_window(2), euclidean_space(2), (a, b), target=b)])
    d = math.dist(a, b)
    bounds = np.array([[d], [math.nextafter(d, 0)], [math.nextafter(d, math.inf)]])
    beyond = net._beyond(s, np.array([0, 0]), np.array([1, 2]), bounds)
    assert beyond.tolist() == [[False, False], [True, True], [False, False]]


def _grids():
    """Omega and label chains and products of them, products nested as factors."""
    size = st.integers(1, 5)
    chain = st.one_of(size.map(make_omega_window), size.map(lambda n: label_chain([f"x{p}" for p in range(n)])))
    return st.recursive(chain, lambda inner: st.tuples(inner, inner).map(lambda de: product(*de)), max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grid_tail_diameters_and_cauchy_indices_match_oracles(data):
    w = data.draw(_grids())
    assert w.grid_shape() is not None
    a = data.draw(kernel_nets(w))
    expected = [
        max(a.space.unchecked_dist(a.value(j), a.value(k)) for j in brute_up_set(w, i) for k in brute_up_set(w, i))
        for i in w.elements
    ]
    # Chunks of a few pairs exercise the banded pairing and the running maxima.
    with mock.patch.object(net, "PAIR_CHUNK", data.draw(st.sampled_from([1, 3, 7, net.PAIR_CHUNK]))):
        tails = tail_diameters(stacked([a]))[0]
        distances = sorted({d for d in expected if 0 < d < math.inf})
        grid = data.draw(st.lists(st.sampled_from(distances or [0.5]), min_size=1, max_size=4))
        # Just below a distance; below the least subnormal lies 0, not a tolerance.
        grid += [math.nextafter(e, 0) for e in grid if math.nextafter(e, 0) > 0]
        (indices,) = cauchy_indices(stacked([a]), grid)
    assert tails.tolist() == expected
    assert indices == tuple(brute_cauchy_index(a, eps) for eps in grid)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_custom_window_tails_read_the_kernel(data):
    w = data.draw(windows())
    a = data.draw(kernel_nets(w))
    expected = [
        max(a.space.unchecked_dist(a.value(j), a.value(k)) for j in brute_up_set(w, i) for k in brute_up_set(w, i))
        for i in w.elements
    ]
    assert tail_diameters(stacked([a]))[0].tolist() == expected


# -- block decisions against the all-pairs oracle ----------------------------


@st.composite
def _runs(draw, n):
    """Runs of positions below n, as (flat, sizes), some past the level-pass size."""
    sizes = draw(st.lists(st.integers(1, net.LEVEL_PASSES + 3), min_size=1, max_size=8))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=sum(sizes), max_size=sum(sizes)))
    return np.array(flat, np.intp), np.array(sizes, np.intp)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_block_decisions_match_the_all_pairs_oracle(data):
    # Chains, grids and custom windows; Euclidean points in dimension 1-8 with identical,
    # subnormal and overflowing coordinates, table and scalar spaces; several members;
    # tolerances at a run's diameter and at the float below it; drawn runs and up-sets.
    w = data.draw(st.one_of(_grids(), windows()))
    s = stacked(data.draw(kernel_families(w, max_members=3)))
    flat, sizes = data.draw(st.one_of(_runs(len(w)), st.just(up_runs(w))))
    diameters = run_diameters(s, flat, sizes)
    bounds = [eps_floor(e) for e in _tolerances(data, diameters)]
    with mock.patch.object(net, "PAIR_CHUNK", data.draw(st.sampled_from([1, 3, 7, net.PAIR_CHUNK]))):
        got = runs_within(s, bounds, flat, sizes)
    assert got.flags.c_contiguous
    assert got.tolist() == (diameters[:, None] <= np.array(bounds)[:, None]).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_decisions_match_unchecked_dist(data):
    # Each member's target is one of its own values, so ties at a bound are common.
    w = data.draw(st.one_of(_grids(), windows()))
    nets = [Net(w, a.space, a.values, data.draw(st.sampled_from(a.values))) for a in data.draw(kernel_families(w, max_members=3))]
    distances = np.array([[a.space.unchecked_dist(v, a.target) for v in a.values] for a in nets])
    for bound in map(eps_floor, _tolerances(data, distances)):
        assert net.targets_within(stacked(nets), bound).tolist() == (distances <= bound).tolist()


def test_a_scalar_block_past_the_level_passes_takes_reduceat(monkeypatch):
    # One block of 5,000 positions beside 5,000 singletons: level passes would
    # gather 5,000 times over every run; reduceat reads each position once.
    rng, n = random.Random(5), 5000
    s = stacked([Net(make_omega_window(n), unit_interval_space(), tuple(rng.random() for _ in range(n)))])
    flat, sizes = np.concatenate([np.arange(n), rng.sample(range(n), n)]), np.array([n] + [1] * n)
    calls, original = [], net.run_maxima
    monkeypatch.setattr(net, "run_maxima", lambda *args: calls.append(len(args[1])) or original(*args))
    bounds = [0.5, 1.0]
    got = runs_within(s, bounds, flat, sizes)
    assert calls == [2 * n, 2 * n]  # max and min, one pass each
    assert got.tolist() == (run_diameters(s, flat, sizes)[:, None] <= np.array(bounds)[:, None]).tolist()
    calls.clear()
    runs_within(s, bounds, flat[n:], sizes[1:])
    assert calls == []


def _grid_nets(k, rng):
    # Four R^2 nets on the k x k product window, approaching a seeded point as i + j grows.
    w = product(make_omega_window(k), make_omega_window(k))
    nets = []
    for _ in range(4):
        px, py = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        amp = [1.5 / (1.0 + (i + j) / 2.0) for i in range(k) for j in range(k)]
        nets.append(Net(w, euclidean_space(2), tuple((px + a * rng.uniform(-1, 1), py + a * rng.uniform(-1, 1)) for a in amp)))
    return nets


def test_euclidean_analysis_takes_few_exact_distances(monkeypatch):
    # empirical_rate over a random-k suite on a 16 x 16 grid decides thousands
    # of block pairs and the tails' meet pairs against three tolerances; the
    # filter leaves at most 16 of them to math.dist (the group maxima took
    # about 5,500 per family).
    calls = []
    monkeypatch.setattr(net, "math", type(math)("math"))
    vars(net.math).update(vars(math), dist=lambda x, y: calls.append(1) or math.dist(x, y))
    for seed in range(3):
        nets = _grid_nets(16, random.Random(seed))
        report = empirical_rate(nets, [0.5, 0.25, 0.1], build_sampling_suite(nets[0].window, ["identity", "random-k"], seed=seed))
        assert len(report.cells) == 27
    assert len(calls) <= 16


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_far_block_is_the_first_far_pair_of_the_itertools_scan(data):
    # On Euclidean and table nets, chunk by chunk: the pair certificates have
    # always held, the first far pair of the up-set in combinations order, as
    # ascending positions.
    w = data.draw(st.one_of(_grids(), windows()))
    s = stacked(data.draw(kernel_families(w, kinds=("euclidean", "table"))))
    a = s[0]
    eps = data.draw(st.sampled_from(_tolerances(data, np.array([a.space.unchecked_dist(x, y) for x in a.values for y in a.values]))))
    with mock.patch.object(net, "PAIR_CHUNK", data.draw(st.sampled_from([1, 3, 7, net.PAIR_CHUNK]))):
        for i in w.elements:
            far = [{j, k} for j, k in itertools.combinations(w.up_set(i), 2) if a.dist(j, k) > eps]
            if far:
                assert meta._far_block(s, 0, eps_floor(eps), w.index(i), None) == sorted(map(w.index, far[0]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_far_blocks_of_every_member_of_a_chunk_match_the_label_scans(data):
    # Member k of a stacked chunk is read at points k * n + p: its far blocks
    # (ascending positions) and first far pairs are those the label scans over
    # its up-sets find.
    w = data.draw(st.one_of(_grids(), windows()))
    nets = data.draw(kernel_families(w, kinds=("euclidean", "table", "half-line"), max_members=4))
    assume(len(nets) > 1)
    pointed = data.draw(st.booleans())
    if pointed:
        nets = [Net(w, a.space, a.values, target=data.draw(st.sampled_from(a.values))) for a in nets]
    s, dist = stacked(nets), nets[0].space.unchecked_dist
    far_from = [[dist(x, a.target if pointed else y) for x in a.values for y in a.values] for a in nets]
    eps = data.draw(st.sampled_from(_tolerances(data, np.array(far_from))))
    close = net.targets_within(s, eps_floor(eps)) if pointed else None
    with mock.patch.object(net, "PAIR_CHUNK", data.draw(st.sampled_from([1, 3, 7]))):
        for k, a in enumerate(nets):
            for p, i in enumerate(w.elements):
                up = brute_up_set(w, i)
                positions = np.array([w.index(j) for j in up], np.intp)
                pairs = [(j, m) for j, m in itertools.combinations(up, 2) if a.dist(j, m) > eps]
                if pointed:
                    far = [{j} for j in up if dist(a.value(j), a.target) > eps]
                elif a.space.is_scalar():
                    far = [{max(up, key=a.value), min(up, key=a.value)}] if pairs else []
                else:
                    far = [set(pair) for pair in pairs]
                    first = tuple(map(w.index, pairs[0])) if pairs else None
                    assert net.first_far_pair(s, k, eps_floor(eps), positions) == first
                if far:
                    assert meta._far_block(s, k, eps_floor(eps), p, close) == sorted(map(w.index, far[0]))


def test_a_far_pair_at_the_end_of_a_long_tail_is_found_by_the_pair_decision(monkeypatch):
    # Only the last two of 2,000 R^2 points lie more than 1 apart: the scan
    # reaches them as the last of about 2,000,000 pairs.
    n = 2000
    values = tuple((0.2 * math.cos(p), 0.2 * math.sin(p)) for p in range(n - 2)) + ((-0.6, 0.0), (0.6, 0.0))
    a = Net(make_omega_window(n), euclidean_space(2), values)
    calls, original = [], MetricSpace.unchecked_dist
    monkeypatch.setattr(MetricSpace, "unchecked_dist", lambda self, x, y: calls.append(1) or original(self, x, y))
    cert = refute_uniform([a], [[0]], 1.0)
    assert cert.sampling.at(0) == {n - 2, n - 1}
    assert len(calls) <= 1  # the replay's one pair


@settings(max_examples=300, deadline=None)
@given(windows(), st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4))
def test_random_sampling_matches_the_materialised_draw(w, seed, max_size, count):
    # One sampling at a time, then a batch of ``count``, from one stream; at most
    # three picks a block, as the set method is written out.
    ours, theirs = random.Random(seed), random.Random(seed)
    with mock.patch.object(order, "RANDOM_BLOCK_MAX", max_size):
        for _ in range(3):
            assert random_sampling(w, ours) == brute_random_sampling(w, theirs, max_size)
        assert random_samplings(w, ours, count) == [brute_random_sampling(w, theirs, max_size) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("window", [make_omega_window(200), product(make_omega_window(9), make_omega_window(7))])
def test_random_suite_is_eight_sequential_stdlib_draws(window):
    # Same sets, each in the same selection order, so encoded reports agree.
    suite = build_sampling_suite(window, ["random-k"], seed=29)
    rng = random.Random(29)
    expected = [brute_random_sampling(window, rng) for _ in range(8)]
    assert list(suite) == [f"random-k-{r}" for r in range(8)]
    assert [[tuple(s) for s in eta.assign] for eta in suite.values()] == [[tuple(s) for s in eta.assign] for eta in expected]


# -- tail decisions against the all-pairs oracle ------------------------------


def _tolerances(data, diameters):
    """Tolerances at tail diameters (ties) and the float just below each."""
    exact = sorted({d for d in diameters.ravel().tolist() if 0 < d < math.inf})
    grid = data.draw(st.lists(st.sampled_from(exact or [0.5]), min_size=1, max_size=4))
    return grid + [math.nextafter(e, 0) for e in grid if math.nextafter(e, 0) > 0]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tail_decisions_match_the_all_pairs_oracle(data):
    # Chains, grids of up to three factors and custom windows; Euclidean points with
    # subnormal and overflowing coordinates, table and scalar spaces; several members.
    w = data.draw(st.one_of(_grids(), windows()))
    s = stacked(data.draw(kernel_families(w, max_members=3)))
    tails = tail_diameters(s)
    grid = _tolerances(data, tails)
    read = np.array(data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w))))
    first = data.draw(st.booleans())
    with mock.patch.object(net, "PAIR_CHUNK", data.draw(st.sampled_from([1, 3, 7, net.PAIR_CHUNK]))):
        got = tails_within(s, grid, read, first=first)
    want = tails[:, None] <= np.array([eps_floor(e) for e in grid])[:, None]
    assert got.shape == want.shape and not (got & ~want).any()  # True only where it holds
    if first:  # exact up to each row's first hit among the read positions
        assert ((got & read).any(axis=2) == (want & read).any(axis=2)).all()
        assert ((got & read).argmax(axis=2) == (want & read).argmax(axis=2)).all()
    else:
        assert (got[..., read] == want[..., read]).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tail_bounds_hold_and_the_lower_one_falls_up_the_order(data):
    # A per-tail lower bound need not fall up the order as the diameter does;
    # pruning with one that rises would skip pairs the exact step needs.
    w = data.draw(st.one_of(_grids(), windows()))
    s = stacked(data.draw(kernel_families(w, kinds=("euclidean", "table"), max_members=2)))
    lower, upper = net._tail_bounds(s)
    tails = tail_diameters(s)
    assert (lower <= tails).all() and (tails <= upper).all()
    p = np.arange(len(w))
    for i, q in np.argwhere(order._above(w, p[:, None], p)):
        assert (lower[:, i] >= lower[:, q]).all()


@pytest.mark.parametrize("eps, index", [(1e-309, None), (2.2e-309, None), (4e-309, 0)])
def test_a_sum_of_squares_that_underflows_is_no_zero_box(eps, index):
    # Every square underflows to 0, yet the tail of 0 spans 2.2e-309 * sqrt 2.
    a = Net(make_omega_window(3), euclidean_space(2), ((0.0, 0.0), (2.2e-309, 2.2e-309), (0.0, 0.0)))
    assert window_cauchy_index(a, eps) == brute_cauchy_index(a, eps) == index


def test_a_diagonal_extent_is_rounded_down_past_its_sums():
    # fl(x + y) loses the units at 1e16: unrounded, the diagonal extent over sqrt 2 (4.24)
    # would pass the tail's diameter (4.05) and refute a tolerance that holds.
    a = Net(make_omega_window(4), euclidean_space(2), (
        (-1e16, 3.0010999645874312), (-1.0000000000000002e16, 3.841398779940657),
        (-1.0000000000000004e16, 2.346082538869249), (-1.0000000000000004e16, 2.346082538869249),
    ))
    assert window_cauchy_index(a, 4.1) == brute_cauchy_index(a, 4.1) == 0


@pytest.mark.parametrize("read", [[True, False, False, False], [True, True, False, False]])
def test_undecided_positions_above_a_read_one_are_measured(read):
    # The tail of 0 spans 1 (between 1 and 2, which meet at 1); its bounds 0.92 and 1
    # leave 0.95 undecided at 0 and 1, and 0's own row spans only 0.5.
    r = (0.5 * math.cos(math.pi / 8), 0.5 * math.sin(math.pi / 8))
    a = Net(make_omega_window(4), euclidean_space(2), ((0.0, 0.0), r, (-r[0], -r[1]), (-r[0], -r[1])))
    assert not tails_within(stacked([a]), [0.95], np.array(read))[0, 0, 0]
    assert refute_uniform([a], [[0]], 0.95) is not None and brute_refute_uniform([a], [[0]], 0.95) is not None


# Windows of at most four elements, where the exhaustive oracle tries every sampling:
# chains, grids of two and three factors, a diamond and a chain listed out of order.
SMALL_WINDOWS = [
    *map(make_omega_window, range(1, 5)),
    product(make_omega_window(2), make_omega_window(2)),
    product(product(make_omega_window(2), make_omega_window(1)), make_omega_window(2)),
    diamond(),
    label_chain(["x3", "x0", "x2", "x1"]),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refute_uniform_on_euclidean_lists_matches_the_exhaustive_oracle(data):
    w = data.draw(st.sampled_from(SMALL_WINDOWS))
    nets = data.draw(kernel_families(w, kinds=("euclidean",), max_members=3))
    eps = data.draw(st.sampled_from(_tolerances(data, tail_diameters(stacked(nets)))))
    sets = data.draw(st.lists(st.lists(st.sampled_from(w.elements), min_size=1, max_size=2), min_size=1, max_size=2))
    got, want = refute_uniform(nets, sets, eps), brute_refute_uniform(nets, sets, eps)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.member is want.member


def test_cesaro_tails_take_near_linear_work(monkeypatch):
    # Pairs handed to the pair decision, per member and position, on the demo's tolerances.
    handed, original = [], net._beyond

    def counting(s, i, j, bounds):
        handed.append(i.size)
        return original(s, i, j, bounds)

    nets = cesaro_rotation_nets([math.pi / 2, math.pi / 3], 4096)
    grid = [0.5, 0.25, 0.05]
    want = tail_diameters(nets)[:, None] <= np.array(grid)[:, None]
    want[..., -1] = False  # the top
    monkeypatch.setattr(net, "_beyond", counting)
    got = cauchy_indices(nets, grid)
    assert got == [tuple(int(r.argmax()) if r.any() else None for r in row) for row in want]
    assert 0 < sum(handed) <= 64 * len(nets) * len(nets.window)


def test_tail_decisions_hold_memory_linear_in_the_points():
    # Two convergent R^2 members on 8,192 positions, every tail read at a tolerance that
    # leaves the first ones undecided: bounds, masks and pair chunks stay linear in n.
    rng, n = random.Random(1), 8192
    rows = [[(c + a * (2 * rng.random() - 1), c + a * (2 * rng.random() - 1)) for a in (0.5 / (1 + i / 8) for i in range(n))] for c in (0.3, 0.7)]
    s = stacked([Net(make_omega_window(n), euclidean_space(2), tuple(row)) for row in rows])
    s.points
    tracemalloc.start()
    try:
        got = tails_within(s, [0.01], np.ones(n, bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:, 0, -100:].all() and not got[:, 0, :50].any()
    assert peak <= 32 * s.array.nbytes
