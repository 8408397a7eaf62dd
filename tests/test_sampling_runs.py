"""Samplings held as position runs, against the label-set constructions.

Every builder must give the sampling that the label-by-label construction
in ``oracles`` gives: the same label sets, equal and hashing alike, with
positions sorted within each block.  A label naming no element is refused
when the sampling is built.  Validation must list what a filter through
``brute_up_set`` finds, and the random-k suite must stay small.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    Sampling,
    WindowError,
    build_sampling_suite,
    doubling_sampling,
    find_witness,
    identity_sampling,
    induced_sampling,
    make_omega_window,
    product,
    random_samplings,
    successor_sampling,
    unit_interval_space,
    validate_sampling,
)
from metastable.order import CUSTOM, DirectedWindow
from metastable.serialize import sampling_from_dict, sampling_to_dict, window_to_dict
from oracles import (
    brute_validate_sampling,
    diamond,
    label_decode,
    label_from_function,
    label_identity,
    label_induced,
    label_random_samplings,
    label_step,
    positions_of,
    up_runs,
    windows,
)

NON_ELEMENTS = ["zz", 99, (7, 7)]


def _to_json(label):
    return list(map(_to_json, label)) if isinstance(label, tuple) else label


def _sampling_doc(w, blocks):
    rows = [[_to_json(j) for j in block] for block in blocks]
    return {"type": "sampling", "schema_version": 1, "window": window_to_dict(w), "assign": rows}


def _check_runs(s, w, assign):
    """``s`` is the sampling of these label sets on ``w``, through every view and the decoder."""
    assert s.window == w
    assert s.assign == assign
    assert [s.at(i) for i in w.elements] == list(assign)
    same = Sampling(w, assign)
    assert s == same and hash(s) == hash(same)
    flat, sizes = positions_of(w, assign)
    assert (s.flat.tolist(), s.sizes.tolist()) == (flat, sizes)
    doc = sampling_to_dict(s)
    assert label_decode(doc) == assign
    assert sampling_from_dict(doc) == s


@settings(max_examples=300, deadline=None)
@given(windows(), st.integers(0, 2**32), st.integers(1, 3))
def test_builders_equal_the_label_set_constructions(w, seed, count):
    built = [(identity_sampling(w), label_identity(w))]
    if w.is_chain():
        built.append((successor_sampling(w), label_step(w, lambda p: p + 1)))
        built.append((doubling_sampling(w), label_step(w, lambda p: 2 * p)))
    ours, theirs = random.Random(seed), random.Random(seed)
    drawn = random_samplings(w, ours, count)
    built += zip(drawn, label_random_samplings(w, theirs, count))
    assert ours.getstate() == theirs.getstate()
    for s, assign in built:
        _check_runs(s, w, assign)
        assert validate_sampling(s) == []
    if len(w) <= 30:
        _check_runs(induced_sampling(drawn[0], w), product(w, w), label_induced(drawn[0], w))


@st.composite
def label_blocks(draw, w, length=None, strays=()):
    """One set of labels per element (``length`` sets) drawn from the elements and ``strays``."""
    labels = st.sampled_from([*w.elements, *strays])
    n = len(w) if length is None else length
    return draw(st.lists(st.sets(labels, max_size=3), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_function_and_the_decoder_equal_the_label_sets(data):
    w = data.draw(windows())
    blocks = data.draw(label_blocks(w, strays=NON_ELEMENTS))
    fn = dict(zip(w.elements, blocks)).__getitem__
    doc = _sampling_doc(w, blocks)
    if any(j in NON_ELEMENTS for block in blocks for j in block):
        for build in (lambda: Sampling.from_function(w, fn), lambda: Sampling(w, blocks), lambda: sampling_from_dict(doc)):
            with pytest.raises(WindowError, match="is not an element of this window"):
                build()
        return
    s = Sampling.from_function(w, fn)
    assert s.assign == label_from_function(w, fn) == tuple(map(frozenset, blocks))
    decoded = sampling_from_dict(doc)
    assert decoded.assign == label_decode(doc) and decoded == s and hash(decoded) == hash(s)
    flat, sizes = positions_of(w, s.assign)
    assert (s.flat.tolist(), s.sizes.tolist()) == (flat, sizes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_repeated_labels_in_a_block_count_once(data):
    w = data.draw(windows())
    blocks = data.draw(st.lists(st.lists(st.sampled_from(w.elements), max_size=5), min_size=len(w), max_size=len(w)))
    doc = _sampling_doc(w, blocks)
    decoded = sampling_from_dict(doc)
    assert decoded.assign == label_decode(doc)
    assert (decoded.flat.tolist(), decoded.sizes.tolist()) == positions_of(w, decoded.assign)
    assert Sampling(w, blocks) == decoded


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_sampling_lists_what_the_up_set_filter_finds(data):
    w = data.draw(windows())
    length = data.draw(st.sampled_from([len(w)] * 4 + [len(w) - 1, len(w) + 1]))
    s = Sampling(w, data.draw(label_blocks(w, length)))
    assert validate_sampling(s) == brute_validate_sampling(s)


@pytest.mark.parametrize(
    "blocks, reasons",
    [
        ([{"bot"}, set(), {"top"}, {"top"}], ["empty candidate set"]),
        ([{"a"}, {"b", "top"}, {"b"}, {"bot"}], ["not in the up-set", "not in the up-set"]),
        ([{"bot"}, set(), {"a", "b"}, {"a", "top"}], ["empty candidate set", "not in the up-set", "not in the up-set"]),
        ([{"bot"}, {"a"}, {"b"}], ["assign has 3 entries for a window of 4"]),
        ([{"bot"}, {"a"}, {"b"}, {"top"}, {"top"}], ["assign has 5 entries for a window of 4"]),
    ],
)
def test_each_kind_of_violation_matches_the_oracle(blocks, reasons):
    s = Sampling(diamond(), blocks)
    found = validate_sampling(s)
    assert found == brute_validate_sampling(s)
    assert sorted(v.reason for v in found) == sorted(reasons)


def test_a_label_naming_no_element_is_refused():
    w = make_omega_window(3)
    with pytest.raises(WindowError, match="9 is not an element"):
        Sampling(w, [{0}, {1, 9}, {2}])
    doc = _sampling_doc(w, [[0], [1, 9], [2]])
    with pytest.raises(WindowError, match="9 is not an element"):
        sampling_from_dict(doc)


def test_suite_memory_is_bounded_and_builds_no_label_view(monkeypatch):
    w = make_omega_window(512)
    names = ["identity", "successor", "doubling", "random-k"]
    build_sampling_suite(w, names, seed=1)  # first use: imports and caches outside the measure

    def refuse(*args):
        raise AssertionError("a label view was built")

    monkeypatch.setattr(Sampling, "assign", property(refuse))
    monkeypatch.setattr(Sampling, "at", refuse)
    monkeypatch.setattr(Sampling, "items", refuse)
    tracemalloc.start()
    try:
        suite = build_sampling_suite(w, names, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(suite) == 11
    # Measured with label-set samplings: 1,241 KB held, 1,507 KB at the peak.
    assert held <= 400 * 1024 and peak <= 750 * 1024


def test_custom_window_order_tests_read_the_stored_matrix_once():
    # A bottom, 498 incomparable elements and a top, built unvalidated. Each up-set, validation
    # or up-run pass reads rows or entries of the order matrix kept at construction; converting
    # the 500 x 500 input tuples again would take 250 KB each time.
    n = 500
    leq = tuple(tuple(p == q or p == 0 or q == n - 1 for q in range(n)) for p in range(n))
    join = tuple(tuple(p if p == q else max(p, q) if 0 in (p, q) else n - 1 for q in range(n)) for p in range(n))
    w = DirectedWindow(CUSTOM, range(n), leq_matrix=leq, join_table=join)
    assert w.up_set(7) == (7, n - 1) and len(w.up_set(0)) == n
    s = identity_sampling(w)
    tracemalloc.start()
    try:
        for e in range(20):
            w.up_set(e)
        assert validate_sampling(s) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024
    flat, sizes = up_runs(w)
    assert sizes.tolist() == [n] + [2] * (n - 2) + [1] and flat[:n].tolist() == list(range(n))


def test_a_first_witness_scan_builds_only_the_sets_it_reads(monkeypatch):
    w = make_omega_window(2**16)
    a = Net(w, unit_interval_space(), (0.5,) * len(w))
    block, read = Sampling.block, []
    monkeypatch.setattr(Sampling, "block", lambda s, p: read.append(p) or block(s, p))
    assert find_witness(a, 0.1, successor_sampling(w)) == 0 and read == [0]
