"""Up-sets by leaves: the decoder, tail maxima and random samplings against
the whole-matrix oracle ``up_runs``, and the memory they hold.

Every window is a product of leaves, chains and custom windows, and an
up-set is the product of its leaves' up-sets, so none of these reads an
n x n table.  Windows stay small; none is built near ``WINDOW_CAP``.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import product, random_samplings
from metastable.families import _nonincreasing
from metastable.net import run_maxima, tail_maxima
from metastable.order import _draw_ranks, _run_ranks, _up_decode
from oracles import label_chain, leaf_windows, star, up_runs


@settings(max_examples=300, deadline=None)
@given(leaf_windows())
def test_the_decoder_reads_every_up_set_as_the_oracle(w):
    flat, sizes = up_runs(w)
    at, size = _up_decode(w, np.arange(len(w)))
    assert size.tolist() == sizes.tolist() and at.tolist() == flat[np.cumsum(sizes) - sizes].tolist()  # rank 0: each run's first
    at, size = _up_decode(w, np.repeat(np.arange(len(w)), sizes), _run_ranks(sizes))
    assert at.tolist() == flat.tolist() and size.tolist() == np.repeat(sizes, sizes).tolist()


@settings(max_examples=300, deadline=None)
@given(leaf_windows(), st.data())
def test_tail_maxima_reduce_every_up_set_as_the_oracle(w, data):
    rows, n = data.draw(st.integers(1, 3)), len(w)
    x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=rows * n, max_size=rows * n))).reshape(rows, n) / 2
    runs = up_runs(w)
    for ufunc in (np.maximum, np.minimum):
        assert tail_maxima(w, x, ufunc).tolist() == run_maxima(x, *runs, ufunc).tolist()
    assert tail_maxima(w, x > 0, np.logical_or).tolist() == run_maxima(x > 0, *runs, np.logical_or).tolist()


@settings(max_examples=200, deadline=None)
@given(leaf_windows(), st.integers(0, 2**32), st.integers(1, 3))
def test_random_samplings_index_the_oracle_runs(w, seed, count):
    # The same ranks, drawn by the library's rule, index each element's run of up-positions.
    n, (flat, sizes) = len(w), up_runs(w)
    ranks, counts = _draw_ranks(random.Random(seed), sizes.tolist() * count)
    owner = np.repeat(np.arange(len(counts)) % n, counts)
    blocks = np.split(flat[(np.cumsum(sizes) - sizes)[owner] + np.array(ranks, np.intp)], np.cumsum(counts)[:-1])
    got = random_samplings(w, random.Random(seed), count)
    for r, s in enumerate(got):
        assert s.sizes.tolist() == counts[r * n:(r + 1) * n]
        assert s.flat.tolist() == [p for b in blocks[r * n:(r + 1) * n] for p in sorted(b.tolist())]


@pytest.mark.parametrize(
    "read",
    [lambda w: tail_maxima(w, np.zeros((1, len(w)))), lambda w: random_samplings(w, random.Random(0), 1)],
    ids=["tail_maxima", "random_samplings"],
)
def test_up_sets_by_leaves_hold_no_window_square(read):
    # Two 20-element custom stars make 400 elements, whose order matrix alone is 160,000
    # booleans; read off it, either call peaked at 0.46 MiB.  Leaf by leaf each holds
    # arrays about as long as the window, and the leaves' 20 x 20 matrices.
    w = product(star(20), star(20))
    read(w)
    tracemalloc.start()
    try:
        read(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


@pytest.mark.parametrize("w", [label_chain([*range(0, 16, 2), *range(1, 16, 2)]), star(16)], ids=["chain-out-of-order", "star"])
def test_nonincreasing_off_chains_holds_less_than_its_patterns(w):
    # B and B0 off chains filter all 2^16 binary patterns of a 16-element window, 8 MiB as floats.
    # A custom leaf's up-runs taken for every row at once held up to (k + 1) / 2 times that (76 MiB
    # on the chain listed out of order); rows taken in chunks hold less than the patterns themselves.
    x = ((np.arange(2**16)[:, None] >> np.arange(15, -1, -1)) & 1).astype(float)
    flat, sizes = up_runs(w)
    expected = np.ones(len(x), bool)
    for p, up in enumerate(np.split(flat, np.cumsum(sizes)[:-1])):
        expected &= (x[:, [p]] >= x[:, up]).all(axis=1)
    tracemalloc.start()
    try:
        ok = _nonincreasing(w, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.tolist() == expected.tolist()
    assert peak < x.nbytes
