"""Metric spaces, nets over windows, and window-level Cauchy checks."""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .order import DirectedWindow, product

__all__ = [
    "MetricSpace",
    "Net",
    "SpaceError",
    "binary_space",
    "unit_interval_space",
    "half_line_space",
    "euclidean_space",
    "table_space",
    "self_distance",
    "mutual_distance",
    "distance_to_point",
    "window_cauchy_index",
    "require_eps",
]

BINARY = "binary-discrete"
UNIT_INTERVAL = "unit-interval"
HALF_LINE = "half-line"
EUCLIDEAN = "euclidean"
TABLE = "custom-table"


class SpaceError(ValueError):
    """Raised for points outside a space or malformed distance tables."""


def require_eps(eps):
    """Return ``eps`` if it is a usable tolerance, else raise ValueError.

    A tolerance is a finite real strictly above 0.  NaN would make every
    ``<=`` test fail and an infinite tolerance every one pass.
    """
    if not (isinstance(eps, numbers.Real) and 0 < eps < math.inf):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    return eps


def eps_floor(eps):
    """Check ``eps`` and return the largest float e <= eps.

    For a float d, ``d <= eps`` iff ``d <= e``, so numpy can compare float
    arrays against an int or Fraction tolerance exactly instead of
    rounding the tolerance to the nearest float.
    """
    e = float(min(require_eps(eps), sys.float_info.max))
    return math.nextafter(e, -math.inf) if e > eps else e


def _is_real(x):
    # A finite binary64 value: a float, or an int of magnitude <= 2**53.
    # Beyond that, exact int subtraction can disagree with binary64 even
    # between representable ints (2**60 - 255 rounds as a float).
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= 2**53


@dataclass(frozen=True)
class MetricSpace:
    """One of a small family of concrete metric spaces.

    Kinds: the two-point discrete space {0, 1}; the unit interval and the
    nonnegative half-line with |x - y|; Euclidean R^d; or a finite space
    given by a symbol list and a distance table (checked for symmetry,
    zero diagonal, and the triangle inequality at construction).
    """

    kind: str
    dim: Optional[int] = None
    symbols: Optional[tuple] = None
    table: Optional[tuple] = None
    diameter_bound: Optional[float] = None

    def contains(self, x):
        """Whether ``x`` is a point.  Real coordinates must be finite binary64
        values, so every distance is binary64 arithmetic and never NaN."""
        if self.kind == BINARY:
            return x in (0, 1)
        if self.kind == UNIT_INTERVAL:
            return _is_real(x) and 0.0 <= x <= 1.0
        if self.kind == HALF_LINE:
            return _is_real(x) and x >= 0.0
        if self.kind == EUCLIDEAN:
            return isinstance(x, tuple) and len(x) == self.dim and all(_is_real(c) for c in x)
        return x in self.symbols

    def is_scalar(self):
        """Whether points are reals at distance |x - y| (binary, unit interval, half-line)."""
        return self.kind in (BINARY, UNIT_INTERVAL, HALF_LINE)

    def require(self, x):
        if not self.contains(x):
            raise SpaceError(f"{x!r} is not a point of {self.kind} space")
        return x

    def dist(self, x, y):
        self.require(x)
        self.require(y)
        return self.unchecked_dist(x, y)

    def unchecked_dist(self, x, y):
        """Distance between two points already known to lie in the space."""
        if self.kind == BINARY:
            return 0.0 if x == y else 1.0
        if self.kind in (UNIT_INTERVAL, HALF_LINE):
            return abs(x - y)
        if self.kind == EUCLIDEAN:
            return math.dist(x, y)
        i = self.symbols.index(x)
        j = self.symbols.index(y)
        return self.table[i][j]


def binary_space():
    return MetricSpace(BINARY, diameter_bound=1.0)


def unit_interval_space():
    return MetricSpace(UNIT_INTERVAL, diameter_bound=1.0)


def half_line_space():
    return MetricSpace(HALF_LINE)


def euclidean_space(dim):
    if dim < 1:
        raise SpaceError("dimension must be positive")
    return MetricSpace(EUCLIDEAN, dim=dim)


def table_space(symbols, table):
    """Finite metric space from an explicit distance table, fully checked."""
    symbols = tuple(symbols)
    table = tuple(tuple(float(v) for v in row) for row in table)
    n = len(symbols)
    if len(table) != n or any(len(row) != n for row in table):
        raise SpaceError("distance table shape mismatch")
    for i in range(n):
        if table[i][i] != 0.0:
            raise SpaceError(f"nonzero self-distance at {symbols[i]!r}")
        for j in range(n):
            if table[i][j] < 0.0:
                raise SpaceError("negative distance")
            if table[i][j] != table[j][i]:
                raise SpaceError(f"asymmetric distances at {symbols[i]!r}, {symbols[j]!r}")
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[i][k] > table[i][j] + table[j][k]:
            raise SpaceError(
                f"triangle inequality fails at {symbols[i]!r}, {symbols[j]!r}, {symbols[k]!r}"
            )
    bound = max((v for row in table for v in row), default=0.0)
    return MetricSpace(TABLE, symbols=symbols, table=table, diameter_bound=bound)


@dataclass(frozen=True)
class Net:
    """Total map from window elements to points of a metric space.

    ``values`` follows the window's enumeration order.  ``target`` is an
    optional declared limit point, required only for pointed verification.
    """

    window: DirectedWindow
    space: MetricSpace
    values: tuple
    target: object = None

    def __post_init__(self):
        if len(self.values) != len(self.window):
            raise SpaceError(
                f"net has {len(self.values)} values for a window of {len(self.window)}"
            )
        for v in self.values:
            self.space.require(v)
        if self.target is not None:
            self.space.require(self.target)

    def value(self, i):
        return self.values[self.window.index(i)]

    def dist(self, i, j):
        # Values were checked once in __post_init__.
        return self.space.unchecked_dist(self.value(i), self.value(j))


def _distance_space(space):
    # Distances live in [0, 1] exactly when the source space is 1-bounded.
    if space.diameter_bound is not None and space.diameter_bound <= 1.0:
        return unit_interval_space()
    return half_line_space()


def mutual_distance(a, b):
    """Real net of pairwise distances d(a_i, b_j) on product(window_a, window_b)."""
    if a.space != b.space:
        raise SpaceError("mutual distance requires a shared metric space")
    p = product(a.window, b.window)
    values = tuple(a.space.unchecked_dist(a.value(i), b.value(j)) for (i, j) in p.elements)
    return Net(p, _distance_space(a.space), values, target=None)


def self_distance(a):
    """Self-distance net: value at (i, j) is d(a_i, a_j), with target 0.

    The net converges to 0 exactly when ``a`` is Cauchy, so 0 is the
    canonical pointed target.
    """
    p = product(a.window, a.window)
    values = tuple(a.dist(i, j) for (i, j) in p.elements)
    return Net(p, _distance_space(a.space), values, target=0.0)


def distance_to_point(a, b):
    """Real net of distances from a fixed point: value at i is d(a_i, b)."""
    a.space.require(b)
    values = tuple(a.space.unchecked_dist(v, b) for v in a.values)
    return Net(a.window, _distance_space(a.space), values, target=0.0)


def tail_diameters(a):
    """Diameters of the tails {a_p, ..., a_(n-1)} of a net on a chain window.

    A float array over positions p; the last entry is 0.  Scalar spaces
    take suffix max minus suffix min, O(n) with no distance calls; other
    spaces fold the largest distance in from the top, O(n^2).
    """
    if not a.window.is_chain():
        raise ValueError("tail diameters are defined only on chain windows")
    if a.space.is_scalar():
        rev = np.asarray(a.values[::-1], dtype=float)
        return (np.maximum.accumulate(rev) - np.minimum.accumulate(rev))[::-1]
    v, dist = a.values, a.space.unchecked_dist
    tails = [0.0] * len(v)
    for p in range(len(v) - 2, -1, -1):
        tails[p] = max(tails[p + 1], max(dist(v[p], y) for y in v[p + 1:]))
    return np.array(tails)


def cauchy_indices(a, eps_grid):
    """:func:`window_cauchy_index` at each tolerance; a chain's tails are computed once,
    and off chains one scan of the up-sets serves every tolerance."""
    eps_grid = tuple(eps_grid)
    bounds = [eps_floor(eps) for eps in eps_grid]  # checks every eps on both paths
    w = a.window
    if not w.is_chain():
        return _scan_up_sets(a, eps_grid)
    tails = tail_diameters(a)[:-1]  # the top's tail is trivial
    hits = [np.flatnonzero(tails <= e) for e in bounds]
    return tuple(w.elements[h[0]] if h.size else None for h in hits)


def _scan_up_sets(a, eps_grid):
    # One pass over enumeration order serves every tolerance, largest first:
    # an up-set within a smaller eps is within every larger one, so the
    # first index for a smaller eps never comes before that of a larger.
    # An up-set is checked against the largest open eps and abandoned at
    # its first pair above it; a full pass gives its diameter, which
    # settles every open eps it is <= to.
    w, dist = a.window, a.space.unchecked_dist
    value = dict(zip(w.elements, a.values))
    pending = sorted(range(len(eps_grid)), key=lambda t: eps_grid[t], reverse=True)
    found = [None] * len(eps_grid)
    for i0 in w.elements:
        if not pending:
            break
        tail = [value[j] for j in w.up_set(i0)]
        if len(tail) < 2:
            continue
        eps, diam = eps_grid[pending[0]], 0.0
        for x, y in itertools.combinations(tail, 2):
            d = dist(x, y)
            if d > eps:
                break
            if d > diam:
                diam = d
        else:
            while pending and diam <= eps_grid[pending[0]]:
                found[pending.pop(0)] = i0
    return tuple(found)


def window_cauchy_index(a, eps):
    """Smallest index i0 with d(a_j, a_k) <= eps for all j, k above i0.

    Only indices with a non-trivial tail count: an element whose up-set is
    just itself (the window top) would qualify vacuously for every net,
    which carries no stability evidence on a truncation.  Returns None
    when no window element has the tail property.

    Comparisons are exact <= on binary64; there is no tolerance slack.
    On a chain the answer is read off :func:`tail_diameters`, and that is
    exact too: binary64 subtraction is monotone, so for scalar values
    fl(max - min) equals the largest fl|x - y| over the tail's pairs, and
    because no distance is NaN (points are finite), the largest distance
    is <= eps exactly when every distance is.
    """
    return cauchy_indices(a, (eps,))[0]
