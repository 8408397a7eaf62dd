import gc
import itertools
import json
import time
import tracemalloc

import pytest

from metastable import analyze, families, meta
from metastable import Net, binary_space, build_rate, make_custom_window, make_omega_window, product, random_sampling, identity_sampling
from metastable.cli import FAMILY_MEMBER_CAP, _family_nets, _parser, _read, main
from metastable.families import FamilySpec, enumerate_family, rate_B
from metastable.order import WINDOW_CAP
from metastable.serialize import certificate_from_dict, dumps, family_from_dict, family_spec_to_dict, net_to_dict, rate_to_dict, sampling_to_dict


@pytest.fixture
def omega6_b(tmp_path):
    """Family-spec file for B on omega_6 plus a matching rate file."""
    w = make_omega_window(6)
    fam = tmp_path / "family.json"
    fam.write_text(dumps(family_spec_to_dict(FamilySpec("B", w))))
    import random

    rng = random.Random(4)
    suite = {"identity": identity_sampling(w), "r0": random_sampling(w, rng)}
    rate = build_rate(suite, lambda t, eta: rate_B(eta, w))
    rate_file = tmp_path / "rate.json"
    rate_file.write_text(dumps(rate_to_dict(rate)))
    return fam, rate_file


class TestVerify:
    def test_passing_rate_exits_zero(self, omega6_b, tmp_path, capsys):
        fam, rate = omega6_b
        out = tmp_path / "result.json"
        code = main(
            ["verify", "--family", str(fam), "--rate", str(rate), "--eps", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] is True and len(doc["reports"]) == 2

    def test_failing_rate_exits_two(self, omega6_b, tmp_path):
        fam, _ = omega6_b
        w = make_omega_window(6)
        # candidate {5}: the top never witnesses the constant-1 member at
        # eps below 1 under a sampling pairing it with an early index
        from metastable import Sampling

        eta = Sampling.from_function(w, lambda i: {i, 5})
        bad = build_rate({"s": eta}, lambda t, e: {0})
        rate_file = tmp_path / "bad_rate.json"
        rate_file.write_text(dumps(rate_to_dict(bad)))
        code = main(["verify", "--family", str(fam), "--rate", str(rate_file), "--eps", "0.5"])
        assert code == 2

    def test_none_as_a_window_label_exits_three(self, tmp_path, capsys):
        # The singleton block {None} witnesses every net, so an outcome of None would misreport it.
        w = make_custom_window(["a", 1], [[1, 1], [0, 1]], [[0, 1], [1, 1]])
        rate = build_rate({"id": identity_sampling(w)}, lambda t, eta: {"a"}, thresholds=(0.5,))
        fam, rate_file, out = tmp_path / "family.json", tmp_path / "rate.json", tmp_path / "result.json"
        for path, doc in ((fam, [net_to_dict(Net(w, binary_space(), (0, 1)))]), (rate_file, rate_to_dict(rate))):
            path.write_text(dumps(doc).replace('"a"', "null"))
        assert main(["verify", "--family", str(fam), "--rate", str(rate_file), "--eps", "0.5", "--out", str(out)]) == 3
        assert not out.exists() and "None cannot be a window element" in capsys.readouterr().err

    def test_missing_file_exits_four(self, tmp_path):
        code = main(
            ["verify", "--family", str(tmp_path / "no.json"), "--rate", str(tmp_path / "no.json"), "--eps", "0.5"]
        )
        assert code == 4

    def test_rate_without_samplings_exits_four(self, omega6_b, tmp_path, capsys):
        fam, rate = omega6_b
        doc = json.loads(rate.read_text())
        del doc["samplings"]
        bad = tmp_path / "no_samplings.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", "--family", str(fam), "--rate", str(bad), "--eps", "0.5"])
        assert code == 4
        assert "samplings" in capsys.readouterr().err

    def test_family_file_of_wrong_type_exits_four(self, omega6_b, tmp_path):
        _, rate = omega6_b
        fam = tmp_path / "number.json"
        fam.write_text("3\n")
        assert main(["verify", "--family", str(fam), "--rate", str(rate), "--eps", "0.5"]) == 4

    def test_unknown_sampling_exits_three(self, omega6_b):
        fam, rate = omega6_b
        code = main(
            ["verify", "--family", str(fam), "--rate", str(rate), "--eps", "0.5", "--sampling", "nope"]
        )
        assert code == 3

    def test_exponential_family_spec_exits_three(self, tmp_path, capsys):
        # C on a 40-chain has 2**39 members; enumeration stops at the cap.
        w = make_omega_window(40)
        fam = tmp_path / "c40.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", w))))
        rate_file = tmp_path / "rate.json"
        rate_file.write_text(dumps(rate_to_dict(build_rate({"id": identity_sampling(w)}, lambda t, e: {0}))))
        code = main(["verify", "--family", str(fam), "--rate", str(rate_file), "--eps", "0.5"])
        assert code == 3
        assert "FAMILY_MEMBER_CAP" in capsys.readouterr().err
        # The rate is read first, so a bad rate file fails before any enumeration.
        assert main(["verify", "--family", str(fam), "--rate", str(tmp_path / "no.json"), "--eps", "0.5"]) == 4

    @pytest.mark.parametrize("block", [[], [0]])
    def test_rate_with_an_invalid_sampling_exits_three(self, omega6_b, tmp_path, capsys, block):
        # An empty block, or one below its index (index 3 sampling 0).
        fam, rate = omega6_b
        doc = json.loads(rate.read_text())
        doc["samplings"]["identity"]["assign"][3] = block
        bad = tmp_path / "bad_sampling.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "result.json"
        code = main(["verify", "--family", str(fam), "--rate", str(bad), "--eps", "0.5", "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "invalid sampling" in capsys.readouterr().err

    def test_rate_threshold_true_exits_three(self, omega6_b, tmp_path):
        fam, rate = omega6_b
        doc = json.loads(rate.read_text())
        doc["thresholds"][0] = True
        bad = tmp_path / "bool_threshold.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--family", str(fam), "--rate", str(bad), "--eps", "0.5"]) == 3

    @pytest.mark.parametrize("key, value", [("pointed", "false"), ("pointed", 1), ("thresholds", "0.5")])
    def test_rate_fields_are_not_coerced(self, omega6_b, tmp_path, capsys, key, value):
        # "false" and 1 ran verify in pointed mode; "0.5" became the thresholds "0", ".", "5".
        fam, rate = omega6_b
        doc = {**json.loads(rate.read_text()), key: value}
        bad = tmp_path / "coerced.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--family", str(fam), "--rate", str(bad), "--eps", "0.5"]) == 4
        assert "JSON" in capsys.readouterr().err

    def test_member_cap_boundary(self):
        # C on an n-chain has 2**(n-1) members: 4096 at n = 13, 8192 at n = 14.
        assert len(_family_nets(FamilySpec("C", make_omega_window(13)))) == FAMILY_MEMBER_CAP
        with pytest.raises(ValueError, match="FAMILY_MEMBER_CAP"):
            _family_nets(FamilySpec("C", make_omega_window(14)))


class TestRefute:
    def _family_file(self, tmp_path, tag="C", n=8):
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec(tag, make_omega_window(n)))))
        return fam

    def test_refutation_found_exits_two(self, tmp_path):
        fam = self._family_file(tmp_path)
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1, 2]]))
        out = tmp_path / "cert.json"
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert json.loads(out.read_text())["type"] == "refutation-certificate"

    def test_exhausted_exits_zero(self, tmp_path):
        # a candidate set containing the window top cannot be defeated:
        # the top's sampling block is the forced singleton {top}
        fam = self._family_file(tmp_path, tag="B")
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 7]]))
        out = tmp_path / "res.json"
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["result"] == "exhausted"

    @pytest.mark.parametrize("source", ["spec", "list"])
    def test_one_replay_per_certificate(self, monkeypatch, tmp_path, source):
        # refute_uniform replays what it returns (the spec by its closed
        # form, the list by the search); the CLI writes it as it stands.
        spec = FamilySpec("C", make_omega_window(8))
        doc = family_spec_to_dict(spec) if source == "spec" else [net_to_dict(a) for a in enumerate_family(spec)]
        fam = tmp_path / "family.json"
        fam.write_text(dumps(doc))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1, 2]]))
        calls, replay = [], meta.replay_certificate
        monkeypatch.setattr(meta, "replay_certificate", lambda cert: calls.append(cert) or replay(cert))
        out = tmp_path / "cert.json"
        assert main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)]) == 2
        assert len(calls) == 1
        assert json.loads(out.read_text())["type"] == "refutation-certificate"

    def test_bad_candidates_schema_exits_four(self, tmp_path):
        fam = self._family_file(tmp_path)
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps({"not": "a list"}))
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1"]
        )
        assert code == 4

    @pytest.mark.parametrize("doc", [
        [3],
        [[{"a": 1}]],
        # Nested past the recursion limit: in the label decoder, and in json.load itself.
        pytest.param("[" * 500 + "0" + "]" * 500, id="nested-500"),
        pytest.param("[" * 1000 + "0" + "]" * 1000, id="nested-1000"),
    ])
    def test_malformed_candidate_set_exits_four(self, tmp_path, doc):
        fam = self._family_file(tmp_path)
        cands = tmp_path / "cands.json"
        cands.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1"]
        )
        assert code == 4

    @pytest.mark.parametrize("tag, doc", [("C", [[[0, [1]]]]), ("B", [[0, 99]]), ("B", [[0, 1], [None]])])
    def test_candidate_outside_the_window_exits_three(self, tmp_path, capsys, tag, doc):
        # [0, [1]] is a well-formed nested label, but not one of this window.
        fam = self._family_file(tmp_path, tag=tag)
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps(doc))
        out = tmp_path / "res.json"
        code = main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "not an element of this window" in capsys.readouterr().err

    def test_nested_product_labels_are_decoded(self, tmp_path):
        w = product(product(make_omega_window(2), make_omega_window(2)), make_omega_window(2))
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", w))))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[[[0, 0], 0]]]))
        out = tmp_path / "cert.json"
        code = main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)])
        assert code == 2
        cert = certificate_from_dict(json.loads(out.read_text()))
        assert cert.candidate_set == {((0, 0), 0)} and meta.replay_certificate(cert)

    def test_spec_past_the_member_cap_exits_three(self, tmp_path, capsys):
        # Pointed C has no closed form.  On omega_2 x omega_14 the up-set of
        # (0, 13) is it and the top, where every member is at its target, so
        # only a 1 at (0, 13), enumeration position 13, defeats a member; the
        # enumeration first sets it in member 8193, past member 4097.
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", product(make_omega_window(2), make_omega_window(14))))))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[[0, 13]]]))
        out = tmp_path / "res.json"
        argv = ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)]
        assert main(argv + ["--pointed"]) == 3 and not out.exists()
        assert "FAMILY_MEMBER_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "-1"])
    def test_invalid_eps_exits_three(self, tmp_path, eps):
        fam = self._family_file(tmp_path, n=12)
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1, 2]]))
        out = tmp_path / "cert.json"
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", eps, "--seed", "0", "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_deterministic_given_seed(self, tmp_path):
        fam = self._family_file(tmp_path)
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1]]))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "9", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("tag, cands", [("C", [[0, 1]]), ("B", [[0, 1]]), ("B", [[0, 7]])])
    def test_seed_is_ignored(self, tmp_path, tag, cands):
        # The search is exact: --seed is accepted, optional and changes nothing.
        fam = self._family_file(tmp_path, tag=tag)
        cands_file = tmp_path / "cands.json"
        cands_file.write_text(json.dumps(cands))
        outs = []
        for name, seed in (("a.json", ["--seed", "9"]), ("b.json", []), ("c.json", ["--seed", "12345"])):
            out = tmp_path / name
            argv = ["refute", "--family", str(fam), "--candidates", str(cands_file), "--eps", "0.5", *seed]
            outs.append((main(argv + ["--out", str(out)]), out.read_bytes()))
        assert outs[0] == outs[1] == outs[2]


class TestFamilySpecParameters:
    def _run(self, tmp_path, tag, parameters):
        doc = family_spec_to_dict(FamilySpec(tag, make_omega_window(8)))
        doc["parameters"] = parameters
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(doc))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1]]))
        out = tmp_path / "out.json"
        code = main(
            ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1", "--out", str(out)]
        )
        return code, out

    @pytest.mark.parametrize(
        "tag, parameters",
        [
            ("D", {"alphas": 3}),
            ("D", {"alphas": [1.5]}),
            ("D", {"alphas": [True]}),
            ("D", {"alphas": {"0": 1}}),
            ("paracompact", {"n_points": "x"}),
            ("paracompact", {"n_points": 2.0}),
            ("paracompact", {"n_points": True}),
            ("D", 3),
        ],
    )
    def test_wrong_type_exits_four(self, tmp_path, capsys, tag, parameters):
        code, out = self._run(tmp_path, tag, parameters)
        assert code == 4 and not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tag, parameters",
        [("D", {"alphas": [-1]}), ("D", {"alphas": [0, 8]}), ("paracompact", {"n_points": 0}), ("D", {"alphas": []})],
    )
    def test_out_of_range_exits_three(self, tmp_path, tag, parameters):
        code, out = self._run(tmp_path, tag, parameters)
        assert code == 3 and not out.exists()

    def test_valid_parameters_refute(self, tmp_path):
        code, out = self._run(tmp_path, "D", {"alphas": [0, 3, 5]})
        assert code in (0, 2) and out.exists()

    @pytest.mark.parametrize("n_points", [FAMILY_MEMBER_CAP + 1, 10**7])
    def test_paracompact_points_over_the_cap_exit_three(self, tmp_path, capsys, n_points):
        start = time.perf_counter()
        code, out = self._run(tmp_path, "paracompact", {"n_points": n_points})
        assert time.perf_counter() - start < 1.0
        assert code == 3 and not out.exists()
        assert "FAMILY_MEMBER_CAP" in capsys.readouterr().err

    def test_paracompact_points_at_the_cap_refute(self, tmp_path):
        code, out = self._run(tmp_path, "paracompact", {"n_points": FAMILY_MEMBER_CAP})
        assert code == 2 and out.exists()


def _binary_net_doc(values):
    return {
        "type": "net",
        "schema_version": 1,
        "window": {"type": "window", "schema_version": 1, "kind": "omega-window", "size": len(values)},
        "space": {"type": "space", "schema_version": 1, "kind": "binary-discrete"},
        "values": values,
        "target": 0,
    }


def _unit_net_doc(values):
    return {**_binary_net_doc(values), "space": {"type": "space", "schema_version": 1, "kind": "unit-interval"}}


def _euclidean_net_doc(values):
    space = {"type": "space", "schema_version": 1, "kind": "euclidean", "dim": 1}
    return {**_binary_net_doc(values), "window": _binary_net_doc([0] * 4)["window"], "space": space, "target": None}


class TestOneWindowPerFamily:
    """A net list is nonempty and lives on one window and one space, in every command."""

    FAMILIES = {
        # refute skipped the spike on omega_5 and wrote "exhausted"
        "mixed-windows": [_binary_net_doc([0, 0, 0, 0]), _binary_net_doc([1, 0, 0, 0, 0])],
        "mixed-spaces": [_binary_net_doc([0, 0, 0, 0]), _unit_net_doc([1.0, 0.0, 0.0, 0.0])],
        "empty": [],
        # no point is there to be of the wrong type: the fault is the length
        "euclidean-no-values": [_euclidean_net_doc([])] * 2,
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("command", ["verify", "refute", "analyze"])
    def test_exits_three(self, tmp_path, capsys, command, family):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(self.FAMILIES[family]))
        rate = tmp_path / "rate.json"
        w = make_omega_window(4)
        rate.write_text(dumps(rate_to_dict(build_rate({"id": identity_sampling(w)}, lambda t, e: {0}))))
        cands = tmp_path / "cands.json"
        cands.write_text("[[0]]")
        extra = {"verify": ["--rate", str(rate), "--eps", "0.5"], "refute": ["--candidates", str(cands), "--eps", "0.5"], "analyze": []}
        out = tmp_path / "out.json"
        assert main([command, "--family", str(fam), *extra[command], "--out", str(out)]) == 3
        assert not out.exists() and "Traceback" not in capsys.readouterr().err


class TestBinaryDecoding:
    def _refute(self, tmp_path, values):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([_binary_net_doc(values)]))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0]]))
        out = tmp_path / "out.json"
        code = main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1", "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("value", [1.5, 0.9, True, "x"])
    def test_non_integer_values_exit_three(self, tmp_path, capsys, value):
        code, out = self._refute(tmp_path, [1, value, 0, 0])
        assert code == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "not a point" in err and "Traceback" not in err

    def test_zero_and_one_decode_as_before(self, tmp_path):
        code, out = self._refute(tmp_path, [1, 1, 0, 0])
        assert code == 2
        assert json.loads(out.read_text())["member"]["values"] == [1, 1, 0, 0]


class TestChecksBeforeWriting:
    """An answer that fails its own re-check exits 5 and writes nothing."""

    @pytest.mark.parametrize("scenario", ["c-refute", "d-refute"])
    def test_demo_certificate_that_does_not_replay(self, monkeypatch, tmp_path, capsys, scenario):
        monkeypatch.setattr(meta, "replay_certificate", lambda cert: False)
        out = tmp_path / "demo.json"
        assert main(["demo", scenario, "--size", "12", "--out", str(out)]) == 5
        assert not out.exists()
        err = capsys.readouterr().err
        assert "does not replay" in err and "Traceback" not in err

    def test_closed_form_certificate_that_does_not_replay(self, monkeypatch, tmp_path, capsys):
        # The closed form's own replay fails: no fall-through to the search.
        verdicts = iter([False])
        monkeypatch.setattr(meta, "replay_certificate", lambda cert: next(verdicts, True))
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", make_omega_window(8)))))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1, 2]]))
        out = tmp_path / "cert.json"
        code = main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)])
        assert code == 5 and not out.exists()
        assert "does not replay" in capsys.readouterr().err

    def test_refute_certificate_that_does_not_replay(self, monkeypatch, tmp_path, capsys):
        # A net list has no closed form: the search's own replay fails.
        monkeypatch.setattr(meta, "replay_certificate", lambda cert: False)
        fam = tmp_path / "family.json"
        fam.write_text(dumps([net_to_dict(a) for a in enumerate_family(FamilySpec("C", make_omega_window(8)))]))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0, 1, 2]]))
        out = tmp_path / "cert.json"
        code = main(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--seed", "1", "--out", str(out)])
        assert code == 5 and not out.exists()
        err = capsys.readouterr().err
        assert "does not replay" in err and "Traceback" not in err

    def test_cover_that_does_not_revalidate(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(analyze, "_within", lambda *args: False)
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("0.5\n0.5\n0.5\n")
        out = tmp_path / "report.json"
        assert main(["analyze", "--csv", str(csv_file), "--out", str(out)]) == 5
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


def _omega_doc(size):
    return {"type": "window", "schema_version": 1, "kind": "omega-window", "size": size}


class TestWindowCap:
    """A window past WINDOW_CAP exits 3, naming the cap, before any element is built."""

    WINDOWS = {
        "omega-10**9": _omega_doc(10**9),
        "omega-cap+1": _omega_doc(WINDOW_CAP + 1),
        "product-1025x1024": {
            "type": "window", "schema_version": 1, "kind": "product-window",
            "factors": [_omega_doc(2**10 + 1), _omega_doc(2**10)],
        },
    }

    @staticmethod
    def _run(argv):
        # The exit code and the peak traced allocation of one in-process run.
        _parser()  # built once, outside the measurement
        tracemalloc.start()
        try:
            return main(argv), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_family_window_exits_three(self, tmp_path, capsys, window):
        doc = {**family_spec_to_dict(FamilySpec("B", make_omega_window(4))), "window": self.WINDOWS[window]}
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(doc))
        cands = tmp_path / "cands.json"
        cands.write_text("[[0]]")
        out = tmp_path / "out.json"
        code, peak = self._run(["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(out)])
        assert code == 3 and not out.exists() and peak < 2**20
        assert f"exceeds WINDOW_CAP = {WINDOW_CAP}" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [WINDOW_CAP + 1, 10**9])
    def test_demo_size_exits_three(self, capsys, size):
        code, peak = self._run(["demo", "c-refute", "--size", str(size)])
        assert code == 3 and peak < 2**20
        assert "WINDOW_CAP" in capsys.readouterr().err


class TestMemberCapBeforeBuilding:
    """A spec listed whole, of more than FAMILY_MEMBER_CAP members, exits 3 before any member is built."""

    @pytest.mark.parametrize("command", ["verify", "analyze", "demo"])
    def test_spec_past_the_cap_exits_three(self, tmp_path, capsys, command):
        # B on omega_5000 has 5001 members of 5000 values each.
        fam = tmp_path / "b5000.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("B", make_omega_window(5000)))))
        rate = tmp_path / "rate.json"  # read before the family; its window is not what is measured
        w = make_omega_window(4)
        rate.write_text(dumps(rate_to_dict(build_rate({"id": identity_sampling(w)}, lambda t, e: {0}))))
        argv = {
            "verify": ["verify", "--family", str(fam), "--rate", str(rate), "--eps", "0.5"],
            "analyze": ["analyze", "--family", str(fam)],
            "demo": ["demo", "b-rate", "--size", "5000", "--seed", "1"],
        }[command]
        out = tmp_path / "out.json"
        code, peak = TestWindowCap._run(argv + ["--out", str(out)])
        assert code == 3 and not out.exists() and peak < 8 * 2**20
        assert "FAMILY_MEMBER_CAP = 4096" in capsys.readouterr().err

    def test_spec_past_the_value_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        # {"alphas": [0] * 4096} on omega_2**20 passes both caps and would ask for 2**32 values;
        # with the value cap at 2**12, 256 members of 256 values are refused the same way.
        monkeypatch.setattr(families, "FAMILY_VALUE_CAP", 2**12)
        spec = FamilySpec("D", make_omega_window(256), {"alphas": [0] * 256})
        fam = tmp_path / "d256.json"
        fam.write_text(dumps(family_spec_to_dict(spec)))
        out = tmp_path / "out.json"
        code, _ = TestWindowCap._run(["analyze", "--family", str(fam), "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "FAMILY_VALUE_CAP = 4096" in capsys.readouterr().err
        tracemalloc.start()
        try:
            with pytest.raises(families.FamilyError, match="FAMILY_VALUE_CAP"):
                families.stack_family(spec)
            assert tracemalloc.get_traced_memory()[1] < 4096  # the refused array would hold 2**16 floats
        finally:
            tracemalloc.stop()

    def test_refute_reads_the_same_spec_lazily(self, tmp_path):
        fam = tmp_path / "b5000.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("B", make_omega_window(5000)))))
        cands = tmp_path / "cands.json"
        cands.write_text("[[0, 7]]")
        argv = ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5"]
        assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 2

    def test_pointed_C_refute_holding_the_top_is_exhausted_without_members(self, tmp_path):
        # Every C member is 0, its target, at the top, so no sampling defeats
        # that index; C on omega_5000 has 2**4999 members to not build.
        fam = tmp_path / "c5000.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", make_omega_window(5000)))))
        cands = tmp_path / "cands.json"
        cands.write_text("[[0, 7], [4999]]")
        out = tmp_path / "out.json"
        argv = ["refute", "--pointed", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"] == "exhausted"


class TestAnalyze:
    def test_csv_report_and_summary(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        rows = ["%.6f" % (1.0 / (i + 1)) for i in range(16)]
        csv_file.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        summary = tmp_path / "summary.csv"
        code = main(
            ["analyze", "--csv", str(csv_file), "--eps-grid", "0.5,0.1", "--out", str(out), "--summary-csv", str(summary)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "analysis-report" and not doc["refuted"]
        lines = summary.read_text().splitlines()
        assert lines[0] == "eps,sampling_id,cover_size,uncovered"
        assert len(lines) == 1 + 2 * 3  # two tolerances, three suite samplings

    def test_repeated_tolerance_exits_three(self, tmp_path, capsys):
        csv_file = tmp_path / "a.csv"
        csv_file.write_text("0.5\n0.25\n0.5\n")
        out = tmp_path / "report.json"
        code = main(["analyze", "--csv", str(csv_file), "--eps-grid", "0.5,0.5", "--suite", "identity", "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "tolerance 0.5 is repeated" in capsys.readouterr().err

    def test_random_suite_requires_seed(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("0.5\n0.5\n")
        code = main(
            ["analyze", "--csv", str(csv_file), "--suite", "random-k"]
        )
        assert code == 3

    def test_in_process_calls_do_not_share_arguments(self, tmp_path):
        # The parser is built once per process; a second call must not see
        # the first call's --seed.
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("0.5\n0.25\n0.5\n")
        assert main(["analyze", "--csv", str(csv_file), "--suite", "random-k", "--seed", "1"]) == 0
        assert main(["analyze", "--csv", str(csv_file), "--suite", "random-k"]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("\n".join("%.4f" % (0.5 + 0.5 / (i + 1)) for i in range(12)) + "\n")
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main(
                ["analyze", "--csv", str(csv_file), "--suite", "identity,random-k", "--seed", "7", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("suite", ["successor", "doubling"])
    def test_chain_suite_on_product_window_exits_three(self, tmp_path, suite):
        fam = tmp_path / "family.json"
        w = product(make_omega_window(3), make_omega_window(3))
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("B", w))))
        out = tmp_path / "report.json"
        code = main(["analyze", "--family", str(fam), "--suite", suite, "--out", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_non_finite_csv_cell_exits_three(self, tmp_path, cell):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text(f"0.5\n{cell}\n0.5\n")
        out = tmp_path / "report.json"
        code = main(["analyze", "--csv", str(csv_file), "--space", "half-line", "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_non_finite_euclidean_net_exits_three(self, tmp_path):
        net = {
            "type": "net",
            "schema_version": 1,
            "window": {"type": "window", "schema_version": 1, "kind": "omega-window", "size": 2},
            "space": {"type": "space", "schema_version": 1, "kind": "euclidean", "dim": 2},
            "values": [[0.0, 0.0], [float("nan"), 1.0]],
            "target": None,
        }
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([net]))  # writes the NaN literal Python's json reads back
        assert main(["analyze", "--family", str(fam), "--space", "euclidean", "--dim", "2"]) == 3

    def test_missing_input_exits_three(self):
        assert main(["analyze", "--eps-grid", "0.5"]) == 3

    @pytest.mark.parametrize("join", [[[0, 99], [1, 1]], [[0, -1], [1, 1]], [[0, 1.0], [1, 1]]])
    def test_join_entry_outside_the_window_exits_three(self, tmp_path, capsys, join):
        window = {"type": "window", "schema_version": 1, "kind": "custom", "elements": [0, 1],
                  "leq": [[1, 1], [0, 1]], "join": join}
        net = {"type": "net", "schema_version": 1, "window": window,
               "space": {"type": "space", "schema_version": 1, "kind": "binary-discrete"},
               "values": [1, 0], "target": None}
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([net]))
        assert main(["analyze", "--family", str(fam)]) == 3
        assert "join table" in capsys.readouterr().err


class TestDocumentsAsWritten:
    """Documents are not coerced: labels keep their JSON kind, collections are JSON lists."""

    def _rate_file(self, tmp_path, edit, n=4):
        doc = json.loads(dumps(rate_to_dict(build_rate({"id": identity_sampling(make_omega_window(n))}, lambda t, e: {0}))))
        edit(doc)
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(doc))
        return path

    def _verify(self, tmp_path, edit, tag="B", n=4):
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec(tag, make_omega_window(n)))))
        out = tmp_path / "out.json"
        code = main(["verify", "--family", str(fam), "--rate", str(self._rate_file(tmp_path, edit, n)), "--eps", "0.5", "--out", str(out)])
        return code, out

    def test_rate_without_samplings_exits_three(self, tmp_path, capsys):
        # It verified C, which has no uniform rate, with "overall": true.
        code, out = self._verify(tmp_path, lambda doc: doc.update(samplings={}, table=[]), tag="C")
        assert code == 3 and not out.exists()
        assert "at least one sampling" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["samplings"]["id"]["assign"].__setitem__(0, [0, True]),
            lambda doc: doc["table"].append(dict(doc["table"][0])),
            lambda doc: doc.update(thresholds=[]),
            lambda doc: doc["samplings"].update(other=sampling_to_dict(identity_sampling(make_omega_window(5)))),
        ],
        ids=["bool-label", "duplicate-entry", "no-thresholds", "two-windows"],
    )
    def test_bad_rate_exits_three(self, tmp_path, capsys, edit):
        code, out = self._verify(tmp_path, edit)
        assert code == 3 and not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["assign", "candidates"])
    @pytest.mark.parametrize(
        "labels, code",
        [*(([label], 3) for label in [True, 0.0, -1, 3, 2**70, None, "1", [1]]), ([], 3), ([{}], 4), ([0, 0], 0)],
        ids=["true", "0.0", "-1", "3", "2**70", "null", "string", "list", "empty", "object", "repeated"],
    )
    def test_verify_exit_code_by_label(self, tmp_path, capsys, where, labels, code):
        # On omega_3: a label naming no element and an empty block exit 3, a JSON object 4, a repeat counts once.
        def edit(doc):
            if where == "assign":
                doc["samplings"]["id"]["assign"][0] = labels
            else:
                doc["table"][0]["candidates"] = labels

        assert self._verify(tmp_path, edit, n=3)[0] == code
        assert "Traceback" not in capsys.readouterr().err

    def test_candidates_as_a_string_exit_four(self, tmp_path):
        code, out = self._verify(tmp_path, lambda doc: doc["table"][0].update(candidates="0"))
        assert code == 4 and not out.exists()

    @pytest.mark.parametrize("cands, named", [([[True, 2.0]], "True"), ([[1, True]], "True"), ([[1.0]], "1.0")])
    def test_refute_candidate_of_another_kind_exits_three(self, tmp_path, capsys, cands, named):
        # [[true, 2.0]] wrote a certificate with "candidate_set": [true, 2.0].
        fam = tmp_path / "family.json"
        fam.write_text(dumps(family_spec_to_dict(FamilySpec("C", make_omega_window(8)))))
        cands_file = tmp_path / "cands.json"
        cands_file.write_text(json.dumps(cands))
        out = tmp_path / "out.json"
        assert main(["refute", "--family", str(fam), "--candidates", str(cands_file), "--eps", "0.5", "--out", str(out)]) == 3
        assert not out.exists() and f"{named} is not an element of this window" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [True, 2.0])
    def test_euclidean_dim_of_another_kind_exits_four(self, tmp_path, dim):
        net = {"type": "net", "schema_version": 1, "window": _omega_doc(2),
               "space": {"type": "space", "schema_version": 1, "kind": "euclidean", "dim": dim},
               "values": [[0.0, 0.0], [1.0, 1.0]], "target": None}
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([net]))
        assert main(["analyze", "--family", str(fam), "--out", str(tmp_path / "out.json")]) == 4

    @pytest.mark.parametrize("elements, message", [([], "window must be nonempty"), ([0, 0], "duplicate window elements")])
    def test_custom_window_without_distinct_elements_exits_three(self, tmp_path, capsys, elements, message):
        n = len(elements)
        window = {"type": "window", "schema_version": 1, "kind": "custom", "elements": elements,
                  "leq": [[1] * n] * n, "join": [[0] * n] * n}
        net = {"type": "net", "schema_version": 1, "window": window,
               "space": {"type": "space", "schema_version": 1, "kind": "binary-discrete"},
               "values": [0] * n, "target": None}
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([net]))
        assert main(["analyze", "--family", str(fam), "--out", str(tmp_path / "out.json")]) == 3
        assert message in capsys.readouterr().err


class TestAnalyzeCsv:
    @pytest.mark.parametrize(
        "space, text, nets",
        [(["--space", "binary"], "1,0\n0,0\n0,0\n", 2), (["--space", "euclidean", "--dim", "2"], "0,0\n0.5,0.5\n0.5,0.5\n", 1)],
    )
    def test_space_options(self, tmp_path, space, text, nets):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text(text)
        out = tmp_path / "report.json"
        assert main(["analyze", "--csv", str(csv_file), *space, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["window_size"] == 3 and len(doc["cauchy_indices"]) == nets

    def test_blank_lines_are_skipped(self, tmp_path):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("0.5\n\n0.25\n\n")
        out = tmp_path / "report.json"
        assert main(["analyze", "--csv", str(csv_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["window_size"] == 2

    @pytest.mark.parametrize("data", [
        b"0.5," + b"1" * 131073 + b"\n",  # a field past the csv module's limit
        b'"' + b"1" * 131073 + b'"\n',
        b"0.5\n\xe90.25\n",  # not UTF-8
    ], ids=["long-field", "long-quoted-field", "latin-1"])
    def test_unreadable_csv_exits_four(self, tmp_path, capsys, data):
        csv_file = tmp_path / "data.csv"
        csv_file.write_bytes(data)
        out = tmp_path / "report.json"
        assert main(["analyze", "--csv", str(csv_file), "--out", str(out)]) == 4
        assert not out.exists() and "Traceback" not in capsys.readouterr().err

    def test_json_that_is_not_utf8_exits_four(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_bytes(b'[{"type": "n\xe9t"}]')
        assert main(["analyze", "--family", str(fam), "--out", str(tmp_path / "report.json")]) == 4

    def test_empty_csv_exits_three(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("\n\n")
        assert main(["analyze", "--csv", str(csv_file), "--out", str(tmp_path / "report.json")]) == 3
        assert "empty CSV" in capsys.readouterr().err


class TestDemo:
    @pytest.mark.parametrize(
        "scenario", ["b-rate", "c-refute", "d-refute", "paracompact", "cesaro"]
    )
    def test_scenarios_write_json(self, scenario, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", scenario, "--size", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "demo" and doc["scenario"] == scenario

    def test_lukasiewicz_prints_table(self, capsys):
        assert main(["demo", "lukasiewicz"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "sup-grid error" in lines[0]
        for row in lines[1:]:
            n, sup, bound = row.split()
            assert float(sup) <= float(bound) + 2.0 ** -40


class TestReadPausesTheCollector:
    """Input documents are read and decoded with the cyclic GC paused, and every
    command leaves the GC as it found it, on every exit path."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def _refute(self, tmp_path, family, candidates="[[0]]"):
        fam, cands = tmp_path / "family.json", tmp_path / "cands.json"
        fam.write_text(family if isinstance(family, str) else json.dumps(family))
        cands.write_text(candidates)
        return ["refute", "--family", str(fam), "--candidates", str(cands), "--eps", "0.5", "--out", str(tmp_path / "out.json")]

    def test_verify_exit_zero_leaves_the_gc_as_found(self, omega6_b, tmp_path, collecting):
        fam, rate = omega6_b
        assert main(["verify", "--family", str(fam), "--rate", str(rate), "--eps", "0.5", "--out", str(tmp_path / "r.json")]) == 0
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("family, code, message", [
        ([_binary_net_doc([1, 1, 0, 0])], 2, None),
        ([_binary_net_doc([0, 0, 0, 0]), _binary_net_doc([1, 0, 0, 0, 0])], 3, "different windows"),
        ([{**_binary_net_doc([1, 0, 0, 0]), "values": "1000"}], 4, "values must be a JSON list"),
        ("[" * 100_000 + "]" * 100_000, 4, "JSON nested too deeply"),
    ], ids=["refuted", "mixed-windows", "schema-fault", "nested-too-deeply"])
    def test_refute_leaves_the_gc_as_found(self, tmp_path, capsys, collecting, family, code, message):
        assert main(self._refute(tmp_path, family)) == code
        assert gc.isenabled() is collecting
        assert message is None or message in capsys.readouterr().err

    def test_a_bad_candidates_file_leaves_the_gc_as_found(self, tmp_path, collecting):
        assert main(self._refute(tmp_path, [_binary_net_doc([1, 1, 0, 0])], candidates="[[0]")) == 4
        assert gc.isenabled() is collecting

    def test_no_collection_while_a_2048_member_list_is_decoded(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([_binary_net_doc([*head, 0]) for head in itertools.product((0, 1), repeat=11)]))
        collections = []
        gc.collect()  # so that no generation starts near its threshold
        gc.callbacks.append(cb := lambda phase, info: phase == "start" and collections.append(info["generation"]))
        try:
            family = _read(fam, family_from_dict)
        finally:
            gc.callbacks.remove(cb)
        assert len(family) == 2048 and collections == []
