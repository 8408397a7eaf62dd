import dataclasses
import math
import pathlib
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Net,
    Sampling,
    SpaceError,
    binary_space,
    build_sampling_suite,
    cesaro_envelope,
    cesaro_envelope_ok,
    cesaro_rotation_nets,
    empirical_rate,
    euclidean_space,
    finite_space_ump_check,
    identity_sampling,
    half_line_space,
    ingest_csv,
    is_witness,
    make_omega_window,
    paracompact_nets,
    table_space,
    unit_interval_space,
)
from metastable import analyze
from metastable.cli import main
from metastable.net import CheckError, StackedFamily
from oracles import brute_csv_nets, brute_witness, up_runs


class TestCesaroNets:
    def test_quarter_turn_exact_zeros(self):
        net = cesaro_rotation_nets([math.pi / 2], 64)[0]
        for n in range(4, 64, 4):
            assert net.value(n) == (0.0, 0.0)

    def test_index_zero_is_start_vector(self):
        net = cesaro_rotation_nets([0.3], 10)[0]
        assert net.value(0) == (1.0, 0.0)

    def test_zero_angle_constant(self):
        net = cesaro_rotation_nets([0.0], 10)[0]
        assert all(v == (1.0, 0.0) for v in net.values)
        assert net.target == (1.0, 0.0)

    def test_generic_angle_matches_direct_sum(self):
        theta = 0.7
        net = cesaro_rotation_nets([theta], 20)[0]
        for n in (1, 5, 13):
            sx = sum(math.cos(k * theta) for k in range(n)) / n
            sy = sum(math.sin(k * theta) for k in range(n)) / n
            x, y = net.value(n)
            assert math.isclose(x, sx, abs_tol=1e-12)
            assert math.isclose(y, sy, abs_tol=1e-12)

    def test_envelope_value(self):
        assert math.isclose(cesaro_envelope(math.pi, 10), 0.1)

    def test_envelope_ok_on_many_angles(self):
        angles = [0.1, 0.5, 1.0, math.pi / 2, math.pi, 2.5, 3.0]
        for theta, net in zip(angles, cesaro_rotation_nets(angles, 500)):
            assert cesaro_envelope_ok(net, theta)

    def test_envelope_rejects_zero_angle(self):
        with pytest.raises(ValueError):
            cesaro_envelope(0.0, 5)


class TestEmpiricalRate:
    def _family(self):
        w = make_omega_window(8)
        return [
            Net(w, unit_interval_space(), tuple(1.0 / (p + k + 1) for p in range(8)))
            for k in range(3)
        ]

    def test_report_shape_and_covers(self):
        family = self._family()
        w = family[0].window
        suite = build_sampling_suite(w, ["identity", "successor"])
        report = empirical_rate(family, [0.5, 0.25], suite)
        assert report.window_size == 8
        assert report.eps_grid == (0.5, 0.25)
        assert not report.refuted
        for cell in report.cells:
            eta = suite[cell.sampling_id]
            for i in cell.cover_set:
                assert any(is_witness(a, cell.eps, eta, i) for a in family)
            # cover serves every net
            for a in family:
                assert any(is_witness(a, cell.eps, eta, i) for i in cell.cover_set)

    def test_witnesses_match_oracle(self):
        family = self._family()
        w = family[0].window
        suite = build_sampling_suite(w, ["random-k"], seed=3, random_count=4)
        report = empirical_rate(family, [0.3], suite)
        for cell in report.cells:
            eta = suite[cell.sampling_id]
            assert cell.witnesses == tuple(
                brute_witness(a, cell.eps, eta) for a in family
            )

    def test_alternating_net_only_top_witnesses(self):
        # the top's forced singleton block always witnesses, so the flag
        # stays down, but the cover degenerates to the top alone and the
        # Cauchy check still reports no stable tail
        w = make_omega_window(4)
        family = [Net(w, binary_space(), (1, 0, 1, 0))]
        suite = build_sampling_suite(w, ["successor"])
        report = empirical_rate(family, [0.5], suite)
        assert not report.refuted
        assert report.cells[0].cover_set == (3,)
        assert report.cauchy_indices == (((0.5, None),),)

    def test_deterministic(self):
        family = self._family()
        w = family[0].window
        suite = build_sampling_suite(w, ["random-k"], seed=7)
        a = empirical_rate(family, [0.5, 0.25], suite)
        b = empirical_rate(family, [0.5, 0.25], suite)
        assert a == b

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            empirical_rate([], [0.5], {"id": identity_sampling(make_omega_window(2))})
        with pytest.raises(ValueError, match="empty family"):
            cesaro_rotation_nets([], 8)

    @pytest.mark.parametrize("grid", [[0.5, 0.5], [0.1, 0.5, 0.25, 0.5], [0.25, 0.5, 1 / 4]])
    def test_a_repeated_tolerance_is_refused(self, grid):
        # A second cell for one tolerance would repeat every cell and Cauchy pair of the first.
        w = make_omega_window(4)
        family = [Net(w, unit_interval_space(), (0.5, 0.25, 0.0, 0.0))]
        suite = {"id": identity_sampling(w)}
        repeated = 0.5 if grid.count(0.5) > 1 else 0.25
        with pytest.raises(ValueError, match=f"tolerance {repeated} is repeated"):
            empirical_rate(family, grid, suite)
        with pytest.raises(ValueError, match=f"tolerance {repeated} is repeated"):
            finite_space_ump_check(family, ["x"], grid, suite)


class TestCertification:
    """Each cover element is re-checked pairwise on its block's positions."""

    def test_the_member_the_tensor_names_is_tried_first(self, monkeypatch):
        # Member 0 alternates and every block pairs positions of unlike parity, so it witnesses
        # nowhere (empirical_rate takes such unvalidated cycles; a valid sampling's top block
        # witnesses every member).  Each cover element then takes one re-check, on a constant member.
        w = make_omega_window(6)
        nets = [Net(w, binary_space(), (0, 1) * 3)] + [Net(w, binary_space(), (v,) * 6) for v in (0, 1)]
        suite = {f"cycle-{d}": Sampling(w, [{p, (p + d) % 6} for p in range(6)]) for d in (1, 3)}
        calls, real = [], analyze._within
        monkeypatch.setattr(analyze, "_within", lambda *args: calls.append(args) or real(*args))
        report = empirical_rate(nets, [0.5, 0.25], suite)
        assert all(cell.uncovered == (0,) and cell.cover_set for cell in report.cells)
        assert len(calls) == sum(len(cell.cover_set) for cell in report.cells)

    def test_certification_lists_only_the_cover_runs(self, monkeypatch):
        # Each block of the up-set sampling is its element's whole up-set, so 32 copies hold 66,560
        # positions, and a Python list of them takes 8 bytes a position; a constant net is covered
        # at 0 in every cell, so certification reads 32 runs of 64.  What is allocated past the
        # covers must stay under an eighth of such a list.
        w = make_omega_window(64)
        up = Sampling._of_runs(w, *up_runs(w))
        suite = {f"up-{r}": up for r in range(32)}
        real, held = analyze._greedy_covers, []

        def covers(witness):
            cover = real(witness)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return cover

        monkeypatch.setattr(analyze, "_greedy_covers", covers)
        tracemalloc.start()
        try:
            report = empirical_rate([Net(w, unit_interval_space(), (0.5,) * 64)], [0.5], suite)
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        assert all(cell.cover_set == (0,) for cell in report.cells)
        assert peak < len(suite) * len(up.flat)


class TestFiniteSpaceUmp:
    def test_compact_family_gets_sets(self):
        nets = paracompact_nets(4, 12)
        w = nets[0].window
        suite = build_sampling_suite(w, ["identity", "successor"])
        verdict = finite_space_ump_check(nets, [f"x{p}" for p in range(4)], [0.5], suite)
        assert verdict.ok and not verdict.non_cauchy_points
        assert len(verdict.sets) == 2
        for (eps, sid), cover in verdict.sets:
            eta = suite[sid]
            for a in nets:
                assert any(is_witness(a, eps, eta, i) for i in cover)

    def test_precondition_failure(self):
        w = make_omega_window(6)
        bad = Net(w, binary_space(), (1, 0, 1, 0, 1, 0))
        good = Net(w, binary_space(), (0,) * 6)
        verdict = finite_space_ump_check([good, bad], ["p", "q"], [0.5, 0.25], {"id": identity_sampling(w)})
        assert not verdict.ok
        assert verdict.non_cauchy_points == (("q", 0.25),)
        assert verdict.sets == ()

    def test_one_label_per_member(self):
        nets = paracompact_nets(3, 8)
        suite = {"id": identity_sampling(nets.window)}
        with pytest.raises(ValueError, match="2 point labels for a family of 3"):
            finite_space_ump_check(nets, ["x0", "x1"], [0.5], suite)

    @pytest.mark.parametrize("cells", [
        lambda c: dataclasses.replace(c, cover_set=()),  # a cover that serves no net
        lambda c: dataclasses.replace(c, uncovered=(0,)),  # a net left without any witness
    ], ids=["empty-cover", "uncovered-net"])
    def test_each_cell_of_the_report_is_rechecked(self, monkeypatch, cells):
        # The verdict reads empirical_rate's report but re-checks each cell itself.
        real = analyze.empirical_rate

        def doctored(*args):
            report = real(*args)
            return dataclasses.replace(report, cells=tuple(map(cells, report.cells)))

        monkeypatch.setattr(analyze, "empirical_rate", doctored)
        nets = paracompact_nets(3, 8)
        suite = build_sampling_suite(nets[0].window, ["identity", "successor"])
        with pytest.raises(CheckError):
            finite_space_ump_check(nets, [f"x{p}" for p in range(3)], [0.5], suite)


class TestRecheckReadsRows:
    """The cover certification and the finite-space re-check read each member's
    row off the family, at most once per call, and build no net from it."""

    FAMILIES = {
        "binary": lambda: paracompact_nets(5, 12),
        "unit": lambda: StackedFamily.from_rows(make_omega_window(12), unit_interval_space(),
                                                [(1, 0.5, 0.25, 0.125) + (0.0,) * 8, (0.75,) * 6 + (1, 1.0) * 3], [None, None]),
        "table": lambda: StackedFamily.from_rows(make_omega_window(12), table_space(["a", ("p", 1)], [[0, 1], [1, 0]]),
                                                 [("a", ("p", 1)) * 3 + ("a",) * 6, (("p", 1),) * 12], [None, None]),
    }

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_no_member_leaves_and_each_row_is_read_once(self, monkeypatch, kind):
        family = self.FAMILIES[kind]()
        suite = build_sampling_suite(family.window, ["identity", "successor", "doubling"])
        members, reads, marks = [], [], []
        view, row, real = StackedFamily.__getitem__, StackedFamily.row, analyze.empirical_rate

        def reported(*args):
            report = real(*args)
            marks.append(len(reads))
            return report

        monkeypatch.setattr(StackedFamily, "__getitem__", lambda s, m: members.append(m) or view(s, m))
        monkeypatch.setattr(StackedFamily, "row", lambda s, k: reads.append(k) or row(s, k))
        monkeypatch.setattr(analyze, "empirical_rate", reported)
        verdict = finite_space_ump_check(family, [f"x{p}" for p in range(len(family))], [0.5, 0.25], suite)
        assert verdict.ok and members == []
        certified, rechecked = reads[:marks[0]], reads[marks[0]:]
        assert certified and sorted(set(certified)) == sorted(certified)  # the covers' members, each once
        assert rechecked == list(range(len(family)))  # every member, once for every cell


class TestIngestCsv:
    def test_scalar_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.9\n0.2,0.8\n0.3,0.7\n")
        nets = ingest_csv(p, unit_interval_space())
        assert len(nets) == 2
        assert nets[0].values == (0.1, 0.2, 0.3)
        assert nets[1].values == (0.9, 0.8, 0.7)

    def test_euclidean_grouping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0,0,1\n0,1,1,0\n")
        nets = ingest_csv(p, euclidean_space(2))
        assert len(nets) == 2
        assert nets[0].values == ((1.0, 0.0), (0.0, 1.0))

    def test_euclidean_bad_grouping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0,0\n0,1,1\n")
        with pytest.raises(SpaceError):
            ingest_csv(p, euclidean_space(2))

    def test_binary_coercion_and_rejection(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0\n0,1\n")
        nets = ingest_csv(p, binary_space())
        assert nets[0].values == (1, 0)
        p.write_text("1,0\n0,2\n")
        with pytest.raises(SpaceError) as e:
            ingest_csv(p, binary_space())
        assert "row 2" in str(e.value)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(SpaceError):
            ingest_csv(p, unit_interval_space())

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,x\n")
        with pytest.raises(SpaceError) as e:
            ingest_csv(p, unit_interval_space())
        assert "row 1" in str(e.value)

    @pytest.mark.parametrize(
        "text, space, message",
        [
            ("\n0\nx\n", "unit-interval", "non-numeric cell in row 3"),
            ("\n0\n2\n", "binary", "non-binary value in row 3"),
            ("\n0,1\n\n1,0\n1\n", "unit-interval", "ragged row 5"),
            ("0,1\n\n\n1,0\n1,2\n", "binary", "non-binary value in row 5"),
        ],
    )
    def test_every_message_names_the_csv_record(self, tmp_path, capsys, text, space, message):
        # Blank records count in every message, so one file names one row.
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(SpaceError, match=f"^{message}"):
            ingest_csv(p, binary_space() if space == "binary" else unit_interval_space())
        assert main(["analyze", "--csv", str(p), "--space", space]) == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "build, members",
    [(lambda: cesaro_rotation_nets([0.3, 0.0], 10), 2), (lambda: paracompact_nets(3, 8), 3)],
    ids=["cesaro", "paracompact"],
)
def test_builders_return_one_stacked_family(build, members):
    family = build()
    assert type(family) is StackedFamily and len(family) == members


CSV_SPACES = [unit_interval_space(), half_line_space(), binary_space(), euclidean_space(1), euclidean_space(2), euclidean_space(3)]
CSV_POINTS = {"binary-discrete": ["0", "1", "-0.0", " 1 ", "+1", '"0"', "1e0"]}
CSV_ODD = ["1_0", "-1", "2", "0.5", "inf", "nan", "1e400", "x"]


@st.composite
def csv_inputs(draw):
    # A space and CSV text: mostly rectangular rows of points, with odd cells, ragged rows and blank lines.
    space = draw(st.sampled_from(CSV_SPACES))
    points = CSV_POINTS.get(space.kind, ["0", "1", "0.5", "0.25", " 1 ", "+1", "-0.0", '" 0.5"'])
    cell = st.sampled_from(points * 8 + CSV_ODD)
    width = draw(st.integers(1, 6))
    row = st.one_of(*[st.lists(cell, min_size=width, max_size=width)] * 8, st.lists(cell, min_size=1, max_size=6), st.just([""]))
    return "\n".join(map(",".join, draw(st.lists(row, min_size=1, max_size=6)))), space


def _csv_outcome(build):
    # The members (values and target by repr, so -0.0 and int vs float count) or the error.
    try:
        family = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return [(a.window, a.space, repr(a.values), repr(a.target)) for a in family]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_inputs())
def test_ingest_csv_builds_the_per_column_nets(given_input):
    text, space = given_input
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "data.csv")
        path.write_text(text + "\n", encoding="utf-8")
        got = _csv_outcome(lambda: ingest_csv(path, space))
        assert got == _csv_outcome(lambda: brute_csv_nets(path, space))
        if isinstance(got, list):
            assert isinstance(ingest_csv(path, space), StackedFamily)


class TestSamplingSuite:
    def test_names(self):
        w = make_omega_window(8)
        suite = build_sampling_suite(w, ["identity", "successor", "doubling"])
        assert set(suite) == {"identity", "successor", "doubling"}
        assert suite["successor"].at(3) == frozenset({3, 4})
        assert suite["doubling"].at(3) == frozenset({3, 6})

    def test_random_needs_seed(self):
        w = make_omega_window(4)
        with pytest.raises(ValueError):
            build_sampling_suite(w, ["random-k"])

    def test_random_seeded_reproducible(self):
        w = make_omega_window(12)
        a = build_sampling_suite(w, ["random-k"], seed=5)
        b = build_sampling_suite(w, ["random-k"], seed=5)
        assert a == b
        assert len(a) == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_sampling_suite(make_omega_window(2), ["bogus"])
