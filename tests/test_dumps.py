"""``serialize.dumps`` against the stdlib encoder, and what every encoder writes.

The writer must give ``oracles.json_text`` byte for byte; where the stdlib
raises, it must raise the same exception type.  The encoders must give
pure JSON trees (a tuple label is written as a list), which decode back to
what was encoded.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    RefutationCertificate,
    build_rate,
    empirical_rate,
    finite_space_ump_check,
    identity_sampling,
    random_sampling,
    table_space,
    unit_interval_space,
    verify_rate,
)
from metastable.serialize import (
    analysis_report_to_dict,
    candidate_sets_from_json,
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    net_from_dict,
    net_to_dict,
    rate_from_dict,
    rate_to_dict,
    report_to_dict,
    sampling_from_dict,
    sampling_to_dict,
    ump_verdict_to_dict,
    window_from_dict,
    window_to_dict,
)
from oracles import json_text, windows

FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53 + 2, math.nan, math.inf, -math.inf]
STRINGS = ["", "é", "\x00\x1f\n\t\x7f", '"quoted"', "a,b", "[x]", "{y}: z", "\\", " ", "\U0001f600"]


def outcome(write, doc):
    """The text ``write`` gives for ``doc``, or the type of the error it raised."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)),
    st.floats(),
    st.sampled_from(FLOATS),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(STRINGS),
)
keys = st.one_of(st.text(), st.sampled_from(STRINGS), st.integers(), st.floats(), st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(STRINGS)), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), inner, max_size=4),
        st.dictionaries(keys, inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=600, deadline=None)
@given(trees)
def test_dumps_writes_what_the_stdlib_writes(doc):
    assert outcome(dumps, doc) == outcome(json_text, doc)


def test_scalars_are_written_as_the_stdlib_writes_them():
    doc = {
        "floats": [*FLOATS[:6], np.float64(0.1), np.float64(-0.0)],
        "ints": [0, -1, 2**64 + 1, -(2**100), True, False, None],
        "strings": STRINGS,
        "keys": [{1.5: 0, 2: 1, True: 2}, {None: []}, {"": {}}, {5e-324: ()}],
        "empty": [[], {}, ()],
    }
    assert dumps(doc) == json_text(doc)
    for scalar in (None, True, 0, -0.0, 1e16, "x", np.float64(2.5)):
        assert dumps(scalar) == json_text(scalar)


@pytest.mark.parametrize(
    "doc, error",
    [
        ([1, math.nan], ValueError),
        ({"a": [math.inf]}, ValueError),
        ({math.nan: 1}, ValueError),
        (np.float64(-math.inf), ValueError),
        ([np.int64(3)], TypeError),
        ({"a": {1, 2}}, TypeError),
        ({(1, 2): 0}, TypeError),
        ({"a": 1, 2: 0}, TypeError),
        ([b"bytes"], TypeError),
    ],
)
def test_what_is_no_json_raises_as_the_stdlib_does(doc, error):
    with pytest.raises(error):
        json_text(doc)
    with pytest.raises(error):
        dumps(doc)


def test_a_label_as_deep_as_the_label_decoder_accepts():
    # Products of products nest their labels; the writer has no depth table.
    label, depth = 0, 0
    while True:
        deeper = [label, depth]
        try:
            candidate_sets_from_json([[deeper]])
        except ValueError:  # the decoder's SchemaError at the recursion limit
            break
        label, depth = deeper, depth + 1
    assert depth > 100
    doc = {"candidates": [[label]]}
    assert dumps(doc) == json_text(doc)
    assert candidate_sets_from_json(json.loads(dumps(doc))["candidates"]) == candidate_sets_from_json([[label]])


@settings(max_examples=150, deadline=None)
@given(windows(), st.integers(0, 2**32))
def test_every_encoder_writes_a_json_tree(w, seed):
    rng = random.Random(seed)
    eta = random_sampling(w, rng)
    suite = {"id": identity_sampling(w), "random": eta}
    a = Net(w, unit_interval_space(), tuple(rng.random() for _ in w.elements), target=0.5)
    symbols = ["a", ("p", 1)]
    b = Net(w, table_space(symbols, [[0, 1], [1, 0]]), tuple(rng.choice(symbols) for _ in w.elements))
    rate = build_rate(suite, lambda t, s: {w.elements[-1], rng.choice(w.elements)}, thresholds=(0.5, 0.25))
    cert = RefutationCertificate(0.25, eta, a, frozenset(w.elements[:2]))
    docs = {
        window_from_dict: (window_to_dict(w), w),
        sampling_from_dict: (sampling_to_dict(eta), eta),
        net_from_dict: (net_to_dict(b), b),
        rate_from_dict: (rate_to_dict(rate), rate),
        certificate_from_dict: (certificate_to_dict(cert), cert),
    }
    for decode, (doc, value) in docs.items():
        assert dumps(doc) == json_text(doc)
        assert json.loads(dumps(doc)) == doc  # lists, not tuples, all the way down
        assert decode(json.loads(dumps(doc))) == value
    reports = [
        report_to_dict(verify_rate([a], rate, 0.5, "random")),
        analysis_report_to_dict(empirical_rate([a], [0.5, 0.25], suite)),
        ump_verdict_to_dict(finite_space_ump_check([a, a], ["x", ("y", 1)], [0.5], suite)),
    ]
    for doc in reports:
        assert dumps(doc) == json_text(doc) and json.loads(dumps(doc)) == doc
