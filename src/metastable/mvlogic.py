"""Lukasiewicz connectives on [0, 1] and the dyadic-scaling approximation.

All operations are raw binary64 arithmetic on values in [0, 1]; tests
compare with a documented slack of 2^-40, the operations themselves carry
no tolerance.

The halving approximation: 1/2 * x is the n -> infinity limit of

    max over i = 1..n of  min(i/n, max(x - i/n, 0)),

each term being the lattice meet of the constant i/n with the strong
negation of (x -> i/n).  On a grid of mesh 1/n the maximand
t |-> min(t, x - t) is 1-Lipschitz and peaks at t = x/2 with value x/2,
so the grid maximum sits within 1/(2n) below x/2; the approximation is
one-sided (never exceeds x/2).

:func:`approx_half` and :func:`approx_scaled` take a float, giving a
float, or a 1-D sequence of floats, giving a numpy array: one bisection
runs over the whole array, in O(len(x)) memory.  A sequence accepts what
the float form accepts, entry by entry.  n must be an int (not a bool)
with 1 <= n <= 2**53; above that numpy's i / n can differ from Python's,
so a larger n raises ValueError.  The float form runs the same numpy
bisection on a one-entry array, so it pays numpy's per-operation cost
once per bit of n (about 0.1 ms at n = 256, against 7 us for a pure
Python bisection); a grid is one call, not one call per point.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

__all__ = [
    "implication",
    "neg",
    "or_",
    "and_",
    "truncated_sum",
    "approx_half",
    "approx_scaled",
    "scaled_error_bound",
]


def _check_unit(x):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"value {x!r} outside [0, 1]")
    return x


def implication(x, y):
    """x -> y = min(1 - x + y, 1); equals 1 exactly when x <= y."""
    _check_unit(x)
    _check_unit(y)
    return min(1.0 - x + y, 1.0)


def neg(x):
    """1 - x, the weak negation x -> 0."""
    _check_unit(x)
    return 1.0 - x


def or_(x, y):
    """max(x, y); definable as (x -> y) -> y."""
    _check_unit(x)
    _check_unit(y)
    return max(x, y)


def and_(x, y):
    """min(x, y); definable as neg(or(neg x, neg y))."""
    _check_unit(x)
    _check_unit(y)
    return min(x, y)


def truncated_sum(x, y):
    """Bounded sum min(x + y, 1)."""
    _check_unit(x)
    _check_unit(y)
    return min(x + y, 1.0)


def _check_n(n):
    # An int (not a bool) in [1, 2**53]: up to 2**53 every i/n below is the
    # same correctly rounded quotient in numpy as in Python.
    if isinstance(n, bool):
        raise TypeError("n must be an int, not a bool")
    n = operator.index(n)
    if not 1 <= n <= 2**53:
        raise ValueError(f"n must lie in [1, 2**53], got {n}")
    return n


def _unit_values(x):
    # (x as a 1-D float array, whether x was a scalar); every value in [0, 1].
    xs = np.asarray(x)
    if xs.ndim == 0:
        return np.array([float(_check_unit(x))]), True
    if xs.ndim != 1:
        raise ValueError("x must be a float or a 1-D sequence of floats")
    if xs.dtype.kind not in "biuf":
        # Entries numpy does not read as numbers (strings, None, Fractions)
        # are accepted or refused as each would be alone.
        for v in x:
            _check_unit(v)
    xs = xs.astype(float)
    inside = (0.0 <= xs) & (xs <= 1.0)
    if not inside.all():
        p = int(np.argmin(inside))
        raise ValueError(f"value {float(xs[p])!r} at position {p} outside [0, 1]")
    return xs, False


def _halve(xs, n):
    # The term min(i/n, max(x - i/n, 0)) has i/n rising and max(x - i/n, 0)
    # falling with i (binary64 division and subtraction are monotone), so
    # the largest term sits at the first i where they cross, or just
    # before it.  Binary search, one step per bit of n for every entry at
    # once, finds the last i in [0, n] before the crossing, where
    # i/n < max(x - i/n, 0), that is i/n < x - i/n as i/n > 0.  Above n,
    # i/n >= 1 >= x, so those i never count as before it.
    before = np.zeros(len(xs), dtype=np.int64)
    step = 1 << (n.bit_length() - 1)
    while step:
        t = (before + step) / n
        np.add(before, step, out=before, where=t < xs - t)
        step >>= 1

    def term(i):
        t = i / n
        return np.minimum(t, np.maximum(xs - t, 0.0))

    # Both terms are +0.0 or above; at i = n + 1 the term is 0.0.
    return np.maximum(term(np.maximum(before, 1)), term(before + 1))


def approx_half(x, n):
    """Grid approximation of x/2, error within [-1/(2n), 0]: :func:`approx_scaled`
    at r = 1/2, whose one halving stage is added to +0.0 below the clamp at 1.

    ``x`` is a float, giving a float, or a 1-D sequence of floats, giving
    a numpy array with one approximation per entry.  ``n`` is an int with
    1 <= n <= 2**53.
    """
    return approx_scaled(Fraction(1, 2), x, n)


def _dyadic_bits(r):
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"scale {r} outside [0, 1]")
    den = r.denominator
    if den & (den - 1):
        raise ValueError(f"scale {r} is not a dyadic rational")
    k = den.bit_length() - 1
    # bits[j-1] is the coefficient of 2^-j in r = m / 2^k
    return k, [(r.numerator >> (k - j)) & 1 for j in range(1, k + 1)]


def approx_scaled(r, x, n):
    """Approximation of r*x for dyadic r, by composed halvings and bounded sums.

    With r = m/2^k in lowest terms, the j-th halving stage carries error at
    most j/(2n) (the halving map is 1-Lipschitz, each stage adds at most
    1/(2n)), and the bounded sums never clamp since the exact partial sums
    stay at most r*x <= 1.  The total error is therefore bounded by the
    sum of j/(2n) over the set binary digits of r; see
    :func:`scaled_error_bound`.  All errors are one-sided (below r*x).
    ``x``, ``n`` and the result are as for :func:`approx_half`.
    """
    n = _check_n(n)
    xs, scalar = _unit_values(x)
    _, bits = _dyadic_bits(r)
    acc = xs if Fraction(r) == 1 else np.zeros(len(xs))
    y = xs
    for bit in bits:
        y = _halve(y, n)
        if bit:
            acc = np.minimum(acc + y, 1.0)
    return float(acc[0]) if scalar else acc


def scaled_error_bound(r, n):
    """Derived worst-case error of :func:`approx_scaled`: sum of j/(2n) over set bits."""
    k, bits = _dyadic_bits(r)
    return sum(j for j, bit in enumerate(bits, start=1) if bit) / (2 * n)
