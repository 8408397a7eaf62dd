import json
import random

import pytest

from metastable import (
    Net,
    Rate,
    SpaceError,
    binary_space,
    build_rate,
    euclidean_space,
    identity_sampling,
    make_custom_window,
    make_omega_window,
    product,
    random_sampling,
    refute_uniform,
    replay_certificate,
    table_space,
    unit_interval_space,
    verify_rate,
)
from metastable import serialize
from metastable.meta import RateError
from metastable.order import WindowError
from metastable.families import FamilySpec, refute_C
from metastable.serialize import (
    SCHEMA_VERSION,
    SchemaError,
    analysis_report_to_dict,
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    family_from_dict,
    family_spec_from_dict,
    family_spec_to_dict,
    net_from_dict,
    net_to_dict,
    rate_from_dict,
    rate_to_dict,
    report_to_dict,
    sampling_from_dict,
    sampling_to_dict,
    space_from_dict,
    space_to_dict,
    ump_verdict_to_dict,
    window_from_dict,
    window_to_dict,
)


def roundtrip_window(w):
    return window_from_dict(json.loads(dumps(window_to_dict(w))))


class TestWindows:
    def test_omega(self):
        w = make_omega_window(7)
        assert roundtrip_window(w) == w

    def test_product(self):
        p = product(make_omega_window(3), make_omega_window(4))
        assert roundtrip_window(p) == p

    def test_custom_with_matrices(self):
        elements = ["bot", "a", "b", "top"]
        pairs = {("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")}
        leq = lambda x, y: x == y or (x, y) in pairs
        join = lambda x, y: x if leq(y, x) else (y if leq(x, y) else "top")
        w = make_custom_window(elements, leq, join)
        w2 = roundtrip_window(w)
        assert w2 == w
        assert w2.join("a", "b") == "top"


    @pytest.mark.parametrize("size", [True, 2.0, "2"])
    def test_omega_size_must_be_an_int(self, size):
        # "size": true decoded as a 1-element window.
        doc = {"type": "window", "kind": "omega-window", "size": size, "schema_version": SCHEMA_VERSION}
        with pytest.raises(SchemaError):
            window_from_dict(doc)
        with pytest.raises(TypeError):
            make_omega_window(size)

    def test_schema_one_ordinal_window_reads_as_omega(self):
        doc = {"type": "window", "kind": "ordinal-window", "size": 5, "schema_version": SCHEMA_VERSION}
        assert window_from_dict(doc) == make_omega_window(5)

    def test_unknown_kind_rejected(self):
        doc = window_to_dict(make_custom_window([0, 1], lambda x, y: x <= y, max))
        doc["kind"] = "lattice"
        with pytest.raises(SchemaError):
            window_from_dict(doc)


class TestSamplings:
    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(20):
            w = make_omega_window(rng.randint(1, 10))
            s = random_sampling(w, rng)
            doc = json.loads(dumps(sampling_to_dict(s)))
            assert sampling_from_dict(doc) == s

    def test_canonical_set_order(self):
        w = make_omega_window(5)
        s = identity_sampling(w)
        doc = sampling_to_dict(s)
        assert doc["assign"] == [[0], [1], [2], [3], [4]]

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError):
            sampling_from_dict(window_to_dict(make_omega_window(2)))


class TestSpacesAndNets:
    @pytest.mark.parametrize(
        "space",
        [
            binary_space(),
            unit_interval_space(),
            euclidean_space(3),
            table_space(["x", "y"], [[0, 2], [2, 0]]),
            table_space([(0, 1), (1, 0)], [[0, 1], [1, 0]]),
        ],
    )
    def test_space_roundtrip(self, space):
        assert space_from_dict(json.loads(dumps(space_to_dict(space)))) == space

    def test_table_net_with_tuple_symbols_roundtrip(self):
        # Symbols came back as lists, so the space's own points were rejected.
        space = table_space([(0, 1), (1, 0)], [[0, 1], [1, 0]])
        a = Net(make_omega_window(3), space, ((0, 1), (1, 0), (1, 0)), target=(1, 0))
        assert net_from_dict(json.loads(dumps(net_to_dict(a)))) == a

    def test_net_roundtrip(self):
        w = make_omega_window(4)
        a = Net(w, binary_space(), (1, 0, 0, 0), target=0)
        assert net_from_dict(json.loads(dumps(net_to_dict(a)))) == a

    def test_euclidean_net_roundtrip(self):
        w = make_omega_window(2)
        a = Net(w, euclidean_space(2), ((1.0, 0.0), (0.0, 1.0)), target=(0.0, 0.0))
        assert net_from_dict(json.loads(dumps(net_to_dict(a)))) == a

    @pytest.mark.parametrize("value", [1.5, 0.9, True, False, 1.0, "x", None])
    def test_binary_values_are_not_coerced(self, value):
        doc = net_to_dict(Net(make_omega_window(2), binary_space(), (0, 1)))
        doc["values"][1] = value
        with pytest.raises(SpaceError, match="not a point"):
            net_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("target", [0.5, True, "x"])
    def test_binary_targets_are_not_coerced(self, target):
        doc = net_to_dict(Net(make_omega_window(2), binary_space(), (0, 1), target=1))
        doc["target"] = target
        with pytest.raises(SpaceError, match="not a point"):
            net_from_dict(json.loads(json.dumps(doc)))

    def test_binary_zero_and_one_decode_as_ints(self):
        doc = json.loads(dumps(net_to_dict(Net(make_omega_window(3), binary_space(), (1, 0, 1), target=1))))
        a = net_from_dict(doc)
        assert a.values == (1, 0, 1) and a.target == 1
        assert all(type(v) is int for v in (*a.values, a.target))

    def test_bad_version_rejected(self):
        doc = net_to_dict(Net(make_omega_window(1), binary_space(), (0,)))
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            net_from_dict(doc)


class TestRatesReportsCertificates:
    def test_rate_roundtrip_and_equivalent_lookup(self):
        rng = random.Random(23)
        w = make_omega_window(6)
        suite = {f"s{i}": random_sampling(w, rng) for i in range(3)}
        rate = build_rate(suite, lambda t, eta: {0, 3} if t > 0.25 else {5})
        back = rate_from_dict(json.loads(dumps(rate_to_dict(rate))))
        assert back == rate
        assert back.lookup(0.5, "s1") == rate.lookup(0.5, "s1")

    def test_report_document(self):
        w = make_omega_window(3)
        rate = build_rate({"id": identity_sampling(w)}, lambda t, eta: {0})
        report = verify_rate([Net(w, binary_space(), (0, 0, 0))], rate, 0.5, "id")
        doc = report_to_dict(report)
        assert doc["type"] == "witness-report" and doc["overall"] is True

    def test_certificate_roundtrip_replays(self):
        cert = refute_C({0, 1, 2}, make_omega_window(6), 0.5)
        back = certificate_from_dict(json.loads(dumps(certificate_to_dict(cert))))
        assert back == cert
        assert replay_certificate(back)

    def test_analysis_report_converts_each_label_once(self, monkeypatch):
        from metastable import build_sampling_suite, empirical_rate

        # Nested product labels, most of them named by several cells and nets.
        w = product(product(make_omega_window(2), make_omega_window(2)), make_omega_window(3))
        rng = random.Random(5)
        nets = [Net(w, unit_interval_space(), tuple(rng.choice((0.0, 0.5, 1.0)) for _ in w)) for _ in range(3)]
        report = empirical_rate(nets, [0.5, 0.25], build_sampling_suite(w, ["identity", "random-k"], seed=3))

        def as_json(label):
            return [as_json(x) for x in label] if isinstance(label, tuple) else label

        calls, original = [], serialize._label_to_json
        monkeypatch.setattr(serialize, "_label_to_json", lambda label: calls.append(label) or original(label))
        doc = analysis_report_to_dict(report)
        assert doc["cells"] == [
            {"eps": c.eps, "sampling_id": c.sampling_id, "witnesses": list(map(as_json, c.witnesses)),
             "cover_set": list(map(as_json, c.cover_set)), "uncovered": list(c.uncovered)}
            for c in report.cells
        ]
        assert doc["cauchy_indices"] == [[[eps, as_json(i)] for eps, i in row] for row in report.cauchy_indices]
        labels = [*(i for c in report.cells for i in (*c.witnesses, *c.cover_set)), *(i for row in report.cauchy_indices for _, i in row)]
        top = [label for label in calls if label is None or label in w]  # the rest are parts of these
        assert sorted(map(repr, top)) == sorted(map(repr, set(labels))) and len(labels) > len(top)

    def test_family_spec_roundtrip(self):
        spec = FamilySpec("D", make_omega_window(8), {"alphas": [0, 1, 2]})
        back = family_spec_from_dict(json.loads(dumps(family_spec_to_dict(spec))))
        assert back.tag == spec.tag and back.window == spec.window
        assert list(back.parameters["alphas"]) == [0, 1, 2]


class TestFamilies:
    def test_list_members_share_one_window_and_space(self, monkeypatch):
        w = make_omega_window(12)
        docs = json.loads(dumps([net_to_dict(Net(w, binary_space(), (m % 2,) * 11 + (0,), target=0)) for m in range(2048)]))
        calls = []
        original = serialize.window_from_dict
        monkeypatch.setattr(serialize, "window_from_dict", lambda doc: calls.append(1) or original(doc))
        family = family_from_dict(docs)
        assert len(family) == 2048 and family[0].window == w and len(calls) == 1
        assert all(a.window is family[0].window and a.space is family[0].space for a in family)

    def test_scalar_list_decodes_without_a_call_per_value(self, monkeypatch):
        from metastable.space import MetricSpace

        w = make_omega_window(12)
        docs = json.loads(dumps([net_to_dict(Net(w, binary_space(), (m % 2,) * 11 + (0,), target=0)) for m in range(2048)]))
        counts = {"contains": 0, "labels": 0}
        contains, label = MetricSpace.contains, serialize._label_from_json

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(MetricSpace, "contains", counted("contains", contains))
        monkeypatch.setattr(serialize, "_label_from_json", counted("labels", label))
        family = family_from_dict(docs)
        assert len(family) == 2048 and family[5].values == (1,) * 11 + (0,)
        # No label call: neither the 12 values nor the scalar target of a member is a JSON list.
        assert counts == {"contains": 0, "labels": 0}

    def test_a_list_value_on_a_binary_net_exits_3(self, tmp_path):
        from metastable.cli import main

        doc = json.loads(dumps(net_to_dict(Net(make_omega_window(3), binary_space(), (1, 0, 0), target=0))))
        doc["values"][0] = [1]
        with pytest.raises(SpaceError, match=r"^\(1,\) is not a point"):
            family_from_dict([doc])
        path = tmp_path / "family.json"
        path.write_text(json.dumps([doc]))
        assert main(["analyze", "--family", str(path), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize(
        "space, values",
        [
            (euclidean_space(2), [((0.0, 1.0), (0.5, -2)), ((3, 4.5), (0.0, 0.0))]),
            (table_space(["a", ("p", 1)], [[0, 1], [1, 0]]), [("a", ("p", 1)), (("p", 1), ("p", 1))]),
        ],
    )
    def test_nested_label_lists_round_trip(self, space, values):
        nets = [Net(make_omega_window(2), space, v) for v in values]
        assert family_from_dict(json.loads(dumps([net_to_dict(a) for a in nets]))) == nets

    @pytest.mark.parametrize(
        "space, faults, error, message",
        [
            (binary_space(), [(700, ["schema_version"], 2), (1500, ["schema_version"], 3)], SchemaError, "unsupported schema_version 2"),
            (binary_space(), [(700, ["type"], "window"), (1500, ["type"], "rate")], SchemaError, "expected a 'net' document, got 'window'"),
            (binary_space(), [(700, ["window", "size"], 13), (1500, ["type"], "rate")], WindowError, "family members live on different windows"),
            (binary_space(), [(700, ["values", 2], True), (1500, ["values", 0], 2)], SpaceError, "True is not a point"),
            (binary_space(), [(700, ["target"], [0]), (1500, ["target"], [1])], SpaceError, r"\(0,\) is not a point"),
            (euclidean_space(2), [(700, ["values", 1], [[0.5], 1.0]), (1500, ["values", 0], [[2.0], 0.0])], SpaceError, r"\(\(0.5,\), 1.0\) is not a point"),
        ],
    )
    def test_a_bad_member_of_a_long_list_is_named_first(self, space, faults, error, message):
        w = make_omega_window(3)
        values = [(0.0, 1.0), (0.5, 0.5), (1, 0)] if space.kind == "euclidean" else (1, 0, 0)
        docs = json.loads(dumps([net_to_dict(Net(w, space, values, target=values[-1])) for _ in range(2048)]))
        for member, path, value in faults:
            _set(docs[member], path, value)
        with pytest.raises(error, match=f"^{message}"):
            family_from_dict(docs)

    def test_equal_windows_spelled_differently_decode(self):
        # Schema 1 wrote chains as ordinal windows; both spellings name omega_3.
        docs = [net_to_dict(Net(make_omega_window(3), binary_space(), (v, v, 0), target=0)) for v in (0, 1)]
        docs[1]["window"]["kind"] = "ordinal-window"
        family = family_from_dict(json.loads(json.dumps(docs)))
        assert family[1].window is family[0].window == make_omega_window(3)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "decode, doc",
        [
            (window_from_dict, []),
            (window_from_dict, {"type": "window", "schema_version": SCHEMA_VERSION, "kind": "omega-window"}),
            (sampling_from_dict, {**sampling_to_dict(identity_sampling(make_omega_window(2))), "assign": 3}),
            (space_from_dict, {"type": "space", "schema_version": SCHEMA_VERSION, "kind": "euclidean"}),
            (net_from_dict, {k: v for k, v in net_to_dict(Net(make_omega_window(1), binary_space(), (0,))).items() if k != "values"}),
            (rate_from_dict, {"type": "rate", "schema_version": SCHEMA_VERSION, "thresholds": [0.5], "table": [], "pointed": False}),
            (rate_from_dict, {"type": "rate", "schema_version": SCHEMA_VERSION, "thresholds": [0.5], "table": [], "pointed": False, "samplings": []}),
            (certificate_from_dict, {"type": "refutation-certificate", "schema_version": SCHEMA_VERSION}),
            (family_spec_from_dict, {"type": "family-spec", "schema_version": SCHEMA_VERSION}),
            # A product of one or of three factors raised a bare ValueError.
            (window_from_dict, {**window_to_dict(product(make_omega_window(2), make_omega_window(2))), "factors": [window_to_dict(make_omega_window(2))]}),
            (window_from_dict, {**window_to_dict(product(make_omega_window(2), make_omega_window(2))), "factors": [window_to_dict(make_omega_window(2))] * 3}),
        ],
    )
    def test_wrong_shape_is_a_schema_error(self, decode, doc):
        with pytest.raises(SchemaError):
            decode(doc)


def _doc(value):
    return json.loads(dumps(value))


def _rate_doc():
    w = make_omega_window(4)
    return _doc(rate_to_dict(build_rate({"id": identity_sampling(w)}, lambda t, e: {0, 1}, thresholds=(0.5, 0.25))))


def _chain_doc():
    return _doc(window_to_dict(make_custom_window(["a", "b"], [[1, 1], [0, 1]], [[0, 1], [1, 1]])))


def _set(doc, path, value):
    # ``doc`` with the entry at ``path`` (keys and positions) replaced by ``value``.
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


class TestDocumentsAsWritten:
    """A label keeps its JSON kind (true and 1.0 are not 1), and a label collection is a JSON list."""

    @pytest.mark.parametrize(
        "decode, doc",
        [
            (window_from_dict, _set(_chain_doc(), ["elements"], "ab")),
            (sampling_from_dict, _set(_doc(sampling_to_dict(identity_sampling(make_omega_window(2)))), ["assign", 0], "0")),
            (rate_from_dict, _set(_rate_doc(), ["table", 0, "candidates"], "01")),
            (space_from_dict, _set(_doc(space_to_dict(table_space(["a", "b"], [[0, 1], [1, 0]]))), ["symbols"], "ab")),
            (certificate_from_dict, _set(_doc(certificate_to_dict(refute_C({0, 1}, make_omega_window(6), 0.5))), ["candidate_set"], "01")),
        ],
    )
    def test_a_string_is_not_a_list_of_labels(self, decode, doc):
        with pytest.raises(SchemaError, match="JSON list"):
            decode(doc)

    @pytest.mark.parametrize(
        "decode, doc",
        [
            (sampling_from_dict, _set(_doc(sampling_to_dict(identity_sampling(make_omega_window(2)))), ["assign", 0], [0, True])),
            (sampling_from_dict, _set(_doc(sampling_to_dict(identity_sampling(make_omega_window(2)))), ["assign", 1], [1, True])),
            (sampling_from_dict, _set(_doc(sampling_to_dict(identity_sampling(make_omega_window(2)))), ["assign", 1], [1.0])),
            (rate_from_dict, _set(_rate_doc(), ["table", 0, "candidates"], [0, True])),
            (certificate_from_dict, _set(_doc(certificate_to_dict(refute_C({0, 1}, make_omega_window(6), 0.5))), ["candidate_set"], [0, 1.0])),
        ],
    )
    def test_a_label_names_only_an_element_of_its_kind(self, decode, doc):
        with pytest.raises(WindowError, match="is not an element of this window"):
            decode(doc)

    def test_product_labels_entry_by_entry(self):
        w = product(make_omega_window(2), make_omega_window(2))
        doc = _set(_doc(sampling_to_dict(identity_sampling(w))), ["assign", 1], [[0, True]])
        with pytest.raises(WindowError, match=r"\(0, True\) is not an element of this window"):
            sampling_from_dict(doc)
        assert sampling_from_dict(_doc(sampling_to_dict(identity_sampling(w)))) == identity_sampling(w)

    @pytest.mark.parametrize("label", [{"a": 1}, [0, {"a": 1}]], ids=["object", "object-in-a-list"])
    @pytest.mark.parametrize(
        "decode, path, doc",
        [
            (sampling_from_dict, ["assign", 1], _doc(sampling_to_dict(identity_sampling(make_omega_window(2))))),
            (rate_from_dict, ["table", 0, "candidates"], _rate_doc()),
        ],
        ids=["sampling", "rate"],
    )
    def test_a_json_object_is_no_label(self, decode, path, doc, label):
        # A schema fault in what `verify` reads (exit 4), as when the window's lookup raised TypeError.
        with pytest.raises(SchemaError, match="unhashable"):
            decode(_set(json.loads(json.dumps(doc)), path, [1, label]))

    def test_duplicate_rate_entry_rejected(self):
        # The last of the two entries was kept, silently.
        doc = _rate_doc()
        doc["table"].append({**doc["table"][0], "candidates": [2]})
        with pytest.raises(RateError, match="duplicate rate entry"):
            rate_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("pointed", "false"), ("pointed", 1), ("pointed", None), ("thresholds", "0.5")])
    def test_rate_pointed_is_a_bool_and_thresholds_a_list(self, key, value):
        with pytest.raises(SchemaError, match="JSON"):
            rate_from_dict(_set(_rate_doc(), [key], value))
        assert rate_from_dict(_set(_rate_doc(), ["pointed"], True)).pointed is True

    def test_rate_without_samplings_rejected(self):
        doc = {**_rate_doc(), "samplings": {}, "table": []}
        with pytest.raises(RateError, match="at least one sampling"):
            rate_from_dict(doc)

    @pytest.mark.parametrize("dim", [True, 2.0])
    def test_euclidean_dim_is_an_int(self, dim):
        doc = {"type": "space", "schema_version": SCHEMA_VERSION, "kind": "euclidean", "dim": dim}
        with pytest.raises(SchemaError, match="dimension must be an int"):
            space_from_dict(doc)


class TestDumps:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ValueError):
            dumps({"eps": value})

    def test_deterministic_text(self):
        w = make_omega_window(4)
        s = identity_sampling(w)
        assert dumps(sampling_to_dict(s)) == dumps(sampling_to_dict(s))

    def test_sorted_keys_and_newline(self):
        text = dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_one_way_reports_are_json(self):
        from metastable import (
            build_sampling_suite,
            empirical_rate,
            finite_space_ump_check,
            paracompact_nets,
        )

        nets = paracompact_nets(3, 8)
        suite = build_sampling_suite(nets[0].window, ["identity"])
        report = empirical_rate(nets, [0.5], suite)
        verdict = finite_space_ump_check([nets[0]], ["p"], [0.5], suite)
        json.loads(dumps(analysis_report_to_dict(report)))
        json.loads(dumps(ump_verdict_to_dict(verdict)))
