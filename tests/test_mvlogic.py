import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable.mvlogic import (
    and_,
    approx_half,
    approx_scaled,
    implication,
    neg,
    or_,
    scaled_error_bound,
    truncated_sum,
)
from oracles import brute_approx_half

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SLACK = 2.0 ** -40


class TestConnectives:
    def test_implication_values(self):
        assert implication(0.3, 0.7) == 1.0
        assert implication(0.7, 0.3) == pytest.approx(0.6)
        assert implication(1.0, 0.0) == 0.0

    @given(unit, unit)
    def test_implication_is_one_iff_leq(self, x, y):
        # exact in real arithmetic; binary64 rounding of 1 - x + y can
        # saturate when x exceeds y by less than an ulp of 1
        if x <= y:
            assert implication(x, y) == 1.0
        elif x > y + SLACK:
            assert implication(x, y) < 1.0

    @given(unit)
    def test_neg_involution(self, x):
        assert abs(neg(neg(x)) - x) <= SLACK

    @given(unit, unit)
    def test_or_as_double_implication(self, x, y):
        assert abs(or_(x, y) - implication(implication(x, y), y)) <= SLACK

    @given(unit, unit)
    def test_de_morgan(self, x, y):
        assert abs(and_(x, y) - neg(or_(neg(x), neg(y)))) <= SLACK

    def test_truncated_sum_clamps(self):
        assert truncated_sum(0.8, 0.7) == 1.0
        assert truncated_sum(0.2, 0.3) == 0.5

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            implication(1.5, 0.0)
        with pytest.raises(ValueError):
            neg(-0.1)


class TestApproxHalf:
    def test_exact_on_grid(self):
        # x = 1, n even: the grid contains x/2 exactly
        assert approx_half(1.0, 10) == 0.5

    @given(unit, st.integers(min_value=1, max_value=200))
    def test_one_sided_error(self, x, n):
        v = approx_half(x, n)
        assert v <= x / 2 + SLACK
        assert v >= x / 2 - 1.0 / (2 * n) - SLACK

    def test_monotone_in_n_at_sample_points(self):
        for x in (0.3, 0.77, 0.999):
            errs = [x / 2 - approx_half(x, n) for n in (4, 8, 16, 32, 64)]
            assert all(e >= -SLACK for e in errs)
            assert all(a >= b - SLACK for a, b in zip(errs, errs[1:]))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            approx_half(0.5, 0)
        for n in (2.5, Fraction(3), "3", True, False):
            with pytest.raises(TypeError):
                approx_half(0.5, n)
            with pytest.raises(TypeError):
                approx_scaled(Fraction(1, 2), 0.5, n)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 5000), st.data())
    def test_bisection_equals_term_by_term(self, n, data):
        x = data.draw(halving_inputs(n))
        got, want = approx_half(x, n), brute_approx_half(x, n)
        assert got == want and type(got) is type(want) and repr(got) == repr(want)


def halving_inputs(n):
    # Grid points of mesh 1/n and 1/(2n), where the bisection's crossing is
    # exact, subnormals, and any value in [0, 1].
    return st.one_of(
        st.integers(0, n).map(lambda i: i / n),
        st.integers(0, 2 * n).map(lambda j: j / (2 * n)),
        st.sampled_from([0.0, 1.0, 0, 1, 5e-324, 2.0 ** -1070, 2.0 ** -1022]),
        st.floats(min_value=0.0, max_value=2.0 ** -1022),
        unit,
    )


class TestApproxHalfOverArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000), st.data())
    def test_each_entry_equals_term_by_term(self, n, data):
        xs = data.draw(st.lists(halving_inputs(n), max_size=8))
        got = approx_half(xs, n)
        assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
        assert [repr(float(v)) for v in got] == [repr(brute_approx_half(x, n)) for x in xs]

    def test_scalar_in_gives_python_float_out(self):
        for x in (0.3, 1, np.float64(0.3)):
            assert type(approx_half(x, 7)) is float
            assert type(approx_scaled(Fraction(3, 4), x, 7)) is float
        assert approx_half(0.3, 7) == approx_half([0.3], 7)[0]

    def test_n_beyond_2_to_the_53_rejected(self):
        # Above 2**53, numpy's i / n and Python's can differ.
        assert approx_half(1.0, 2**53) == brute_approx_half(1.0, 2) == 0.5
        with pytest.raises(ValueError, match="2\\*\\*53"):
            approx_half(0.5, 2**53 + 1)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            approx_half([0.5], 2**53 + 1)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25])
    def test_entry_outside_unit_interval_named(self, bad):
        with pytest.raises(ValueError, match=f"value {bad!r} at position 2 outside"):
            approx_half([0.0, 0.5, bad, 1.0], 4)

    @pytest.mark.parametrize(
        "entry", ["0.5", True, False, None, Fraction(1, 2), np.float64(0.5), 10**400, 1.5], ids=lambda e: repr(e)[:16]
    )
    def test_entry_accepted_as_it_would_be_alone(self, entry):
        # A string, None or a huge int in a sequence fails as it fails alone
        # (numpy would read "0.5" as 0.5); bools and Fractions pass as alone.
        try:
            alone = approx_half(entry, 8)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                approx_half([0.25, entry], 8)
        else:
            assert approx_half([0.25, entry], 8)[1] == alone

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            approx_half([[0.5]], 4)

    @given(st.integers(0, 16), st.lists(unit, max_size=6), st.integers(1, 100))
    def test_scaled_equals_composed_term_by_term_halvings(self, m, xs, n):
        r = Fraction(m, 16)
        k = r.denominator.bit_length() - 1

        def composed(x):  # halve once per binary digit of r, summing the set ones
            acc, y = (x if r == 1 else 0.0), x
            for j in range(1, k + 1):
                y = brute_approx_half(y, n)
                if (r.numerator >> (k - j)) & 1:
                    acc = truncated_sum(acc, y)
            return acc

        want = [repr(float(composed(x))) for x in xs]
        assert [repr(float(v)) for v in approx_scaled(r, xs, n)] == want
        assert [repr(approx_scaled(r, x, n)) for x in xs] == want


class TestApproxScaled:
    def test_trivial_scales(self):
        assert approx_scaled(1, 0.7, 5) == 0.7
        assert approx_scaled(0, 0.7, 5) == 0.0

    def test_half_matches_approx_half(self):
        assert approx_scaled(Fraction(1, 2), 0.8, 7) == approx_half(0.8, 7)
        grid = np.arange(1001) / 1000  # the lukasiewicz demo's grid, at each of its n
        for n in (4, 8, 16, 32, 64, 128, 256):
            half = list(map(repr, approx_half(grid, n).tolist()))
            assert list(map(repr, approx_scaled(Fraction(1, 2), grid, n).tolist())) == half
            assert [repr(brute_approx_half(x, n)) for x in grid.tolist()] == half

    @pytest.mark.parametrize(
        "fn", [approx_half, lambda x, n: approx_scaled(Fraction(1, 2), x, n)], ids=["approx_half", "approx_scaled"]
    )
    def test_n_is_checked_before_x(self, fn):
        with pytest.raises(ValueError, match="n must lie"):
            fn(2.0, 0)

    @given(
        st.integers(min_value=0, max_value=16),
        unit,
        st.integers(min_value=1, max_value=100),
    )
    def test_error_within_derived_bound(self, m, x, n):
        r = Fraction(m, 16)
        v = approx_scaled(r, x, n)
        exact = float(r) * x
        assert v <= exact + SLACK
        assert v >= exact - scaled_error_bound(r, n) - SLACK

    def test_bound_for_multi_bit_scale(self):
        # r = 3/4 has bits at positions 1 and 2: bound (1 + 2) / (2n)
        assert scaled_error_bound(Fraction(3, 4), 10) == pytest.approx(3 / 20)

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            approx_scaled(Fraction(1, 3), 0.5, 4)
        with pytest.raises(ValueError):
            approx_scaled(Fraction(3, 2), 0.5, 4)

    def test_sup_error_shrinks_with_n(self):
        r = Fraction(5, 8)
        grid = np.arange(201) / 200
        sups = []
        for n in (4, 8, 16, 32):
            sups.append(float(np.max(float(r) * grid - approx_scaled(r, grid, n))))
        assert all(a >= b - SLACK for a, b in zip(sups, sups[1:]))
        for n, s in zip((4, 8, 16, 32), sups):
            assert s <= scaled_error_bound(r, n) + SLACK
