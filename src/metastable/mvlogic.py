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
"""

from __future__ import annotations

import operator
from fractions import Fraction

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


def _check_unit(x, name="value"):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} {x!r} outside [0, 1]")
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


def approx_half(x, n):
    """Grid approximation of x/2; error within [-1/(2n), 0]."""
    _check_unit(x)
    if n < 1:
        raise ValueError("n must be at least 1")
    # i/n rises and max(x - i/n, 0) falls with i (binary64 division and
    # subtraction are monotone), so the largest term sits at the first i
    # where they cross, found by bisection, or just before it.
    n = operator.index(n)
    lo, hi = 1, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / n >= max(x - mid / n, 0.0) else (mid + 1, hi)
    return max([0.0] + [min(i / n, max(x - i / n, 0.0)) for i in (lo - 1, lo) if 1 <= i <= n])


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
    """
    _check_unit(x)
    if n < 1:
        raise ValueError("n must be at least 1")
    k, bits = _dyadic_bits(r)
    if k == 0:
        return x if bits == [] and Fraction(r) == 1 else 0.0
    acc = 0.0
    y = x
    for bit in bits:
        y = approx_half(y, n)
        if bit:
            acc = truncated_sum(acc, y)
    return acc


def scaled_error_bound(r, n):
    """Derived worst-case error of :func:`approx_scaled`: sum of j/(2n) over set bits."""
    k, bits = _dyadic_bits(r)
    return sum(j for j, bit in enumerate(bits, start=1) if bit) / (2 * n)
