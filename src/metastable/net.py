"""Metric spaces, nets over windows, and window-level Cauchy checks."""

from __future__ import annotations

import functools
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
    "CheckError",
]

BINARY = "binary-discrete"
UNIT_INTERVAL = "unit-interval"
HALF_LINE = "half-line"
EUCLIDEAN = "euclidean"
TABLE = "custom-table"


class SpaceError(ValueError):
    """Raised for points outside a space or malformed distance tables."""


class CheckError(RuntimeError):
    """Raised when an answer fails its own re-check, in place of emitting it.

    Certificates, covers and enumerated members are re-validated before
    they leave the library; a failure here is a defect, not bad input.
    """


def require_eps(eps):
    """Return ``eps`` if it is a usable tolerance, else raise ValueError.

    A tolerance is a finite real strictly above 0, not a bool.  NaN would
    make every ``<=`` test fail and an infinite tolerance every one pass.
    """
    if isinstance(eps, bool) or not (isinstance(eps, numbers.Real) and 0 < eps < math.inf):
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
            return type(x) is int and x in (0, 1)
        if self.kind == UNIT_INTERVAL:
            return _is_real(x) and 0.0 <= x <= 1.0
        if self.kind == HALF_LINE:
            return _is_real(x) and x >= 0.0
        if self.kind == EUCLIDEAN:
            return isinstance(x, tuple) and len(x) == self.dim and all(_is_real(c) for c in x)
        return self._position(x) is not None

    def _position(self, x):
        # Position of the first symbol equal to ``x``, else None.  A comparison
        # that yields an array (numpy against a tuple symbol) is no match.
        matches = (p for p, s in enumerate(self.symbols) if s is x or isinstance(eq := s == x, (bool, np.bool_)) and eq)
        return next(matches, None)

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
        return self.table[self._position(x)][self._position(y)]


def binary_space():
    return MetricSpace(BINARY, diameter_bound=1.0)


def unit_interval_space():
    return MetricSpace(UNIT_INTERVAL, diameter_bound=1.0)


def half_line_space():
    return MetricSpace(HALF_LINE)


def euclidean_space(dim):
    if type(dim) is not int:
        raise TypeError(f"dimension must be an int, got {dim!r}")
    if dim < 1:
        raise SpaceError("dimension must be positive")
    return MetricSpace(EUCLIDEAN, dim=dim)


def table_space(symbols, table):
    """Finite metric space from an explicit table of finite real distances, fully checked."""
    symbols = tuple(symbols)
    table = tuple(tuple(row) for row in table)
    n = len(symbols)
    if len(table) != n or any(len(row) != n for row in table):
        raise SpaceError("distance table shape mismatch")
    if not all(_is_real(v) and v >= 0 for row in table for v in row):
        raise SpaceError("distance table entries must be finite reals >= 0")
    table = tuple(tuple(map(float, row)) for row in table)
    for i in range(n):
        if table[i][i] != 0.0:
            raise SpaceError(f"nonzero self-distance at {symbols[i]!r}")
        for j in range(n):
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
        points = self.values if self.target is None else (*self.values, self.target)
        # Exact ints in {0, 1} are binary points, proven in one bulk test;
        # everything else is checked, and the first non-point named, in order.
        if not (self.space.kind == BINARY and set(map(type, points)) <= {int} and {0, 1}.issuperset(points)):
            for v in points:
                self.space.require(v)

    @functools.cached_property
    def array(self):
        """The values as one read-only numpy array, built on first use.

        Floats for scalar spaces, one row of coordinates per axis for
        Euclidean spaces, symbol positions for table spaces.
        """
        space, values = self.space, self.values
        if space.kind == EUCLIDEAN:
            array = np.array(values, dtype=float).reshape(len(values), space.dim).T.copy()
        elif space.kind == TABLE:
            array = np.array([space._position(v) for v in values], dtype=np.intp)
        else:
            array = np.array(values, dtype=float)
        array.flags.writeable = False
        return array

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


#: Position pairs per kernel chunk; bounds the kernel's temporaries.
PAIR_CHUNK = 2**13


def _run_pairs(sizes):
    """Chunks ``(p, q, run)``: every p < q inside one run of a flat array.

    The flat array is cut into consecutive runs of ``sizes``; ``run`` is
    the run of each pair.  A chunk holds whole rows (one p and every later
    q of its run), about :data:`PAIR_CHUNK` pairs, so memory stays
    O(len(flat) + chunk + longest run).
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    run = np.repeat(np.arange(len(sizes)), sizes)
    later = (np.cumsum(sizes) - 1)[run] - np.arange(len(run))  # pairs in each row
    ends = np.cumsum(later)
    lo = 0
    while lo < len(run):
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + PAIR_CHUNK, side="right")))
        counts = later[lo:hi]
        p = np.repeat(np.arange(lo, hi), counts)
        q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
        if len(p):
            yield p, q, run[p]
        lo = hi


def group_max_distances(a, pairs, n_groups):
    """Largest distance d(a_i, a_j) in each group of position pairs of a net.

    ``pairs`` yields chunks ``(i, j, group)`` of integer arrays: positions
    into ``a.values`` (``i`` and ``j`` broadcast against each other) and,
    in their broadcast shape, a group id in ``range(n_groups)`` per pair.
    Entry g of the result is bit-identical to the ``max`` of
    ``a.space.unchecked_dist`` over group g's pairs, and 0.0 for a group
    without pairs.  Memory is O(n + n_groups + chunk).

    Scalar spaces take ``abs`` of the differences, and custom-table
    spaces gather from the table: both exact.  Euclidean distances go
    through a semi-static floating-point filter (Fortune & Van Wyk 1993;
    Shewchuk 1997): numpy estimates e = fl(sqrt(sum fl(fl(x - y)^2))),
    and only pairs whose estimate could belong to their group's maximum
    are re-evaluated with ``math.dist``, whose values are the answers.

    Why that is exact.  Let u = 2^-53, d the dimension and t the true
    distance.  Call a pair safe when its computed sum of squares s lies
    in [2^-900, 2^900]: no square overflowed, and squares that underflow
    shift s by a relative d * 2^-122 at most.  On a safe pair each
    difference, square and the square root rounds once (relative u), and
    the d - 1 additions, in any order, add at most (d - 1)u / (1 - (d - 1)u)
    to s, so |e - t| <= ((d + 4) / 2) u t up to O(u^2).  ``math.dist`` is
    within one ulp, 2u t, of t.  Let q be the safe pair with the group's
    largest estimate E.  A safe pair p with dist(p) >= dist(q) then has
    e_p >= E (1 - (d + 8) u - O(u^2)); the filter keeps every safe pair
    with e_p >= E (1 - 8 (d + 8) u), where the factor 8 covers the O(u^2)
    terms, the underflow term and the rounding of the product.  Unsafe
    pairs never set E and are always re-evaluated, except pairs of
    identical points, whose distance 0.0 is the initial value.  So the
    pair attaining the exact maximum is re-evaluated, and the maximum
    over re-evaluated pairs is the maximum over the group.  Chunks keep a
    running E, which is at most the final one, so they keep a superset.
    """
    out = np.zeros(n_groups)
    space, values, array = a.space, a.values, a.array
    if space.kind == EUCLIDEAN:
        keep = 1.0 - 8 * (space.dim + 8) * 2.0**-53
        estimates = np.zeros(n_groups)
        for i, j, g in pairs:
            with np.errstate(over="ignore"):  # overflowing pairs are re-evaluated
                squares = sum((x[i] - x[j]) ** 2 for x in array)
            if 2.0**-900 <= squares.min(initial=2.0**-900) and squares.max(initial=0.0) <= 2.0**900:
                unsafe, e = None, np.sqrt(squares)
            else:
                unsafe = (squares < 2.0**-900) | (squares > 2.0**900)
                e = np.sqrt(squares, out=np.zeros_like(squares), where=~unsafe)
            np.maximum.at(estimates, g.ravel(), e.ravel())
            redo = e >= estimates[g] * keep
            if unsafe is not None:
                redo |= unsafe
            redo = np.nonzero(redo)
            i, j = (v[redo] for v in np.broadcast_arrays(i, j))
            g = g[redo]
            if unsafe is not None:  # identical points are at distance 0, the initial value
                differ = sum(x[i] != x[j] for x in array) > 0
                i, j, g = i[differ], j[differ], g[differ]
            exact = map(math.dist, map(values.__getitem__, i.tolist()), map(values.__getitem__, j.tolist()))
            np.maximum.at(out, g, np.fromiter(exact, float, len(g)))
        return out
    if space.is_scalar():

        def dist(i, j):
            return np.abs(array[i] - array[j])
    else:
        table = np.array(space.table, dtype=float)

        def dist(i, j):
            return table[array[i], array[j]]
    for i, j, g in pairs:
        np.maximum.at(out, g.ravel(), dist(i, j).ravel())
    return out


def run_diameters(a, flat, sizes):
    """Diameter of ``a`` on each run of positions.

    ``flat`` is an integer array of positions cut into consecutive
    nonempty runs of ``sizes``.  Scalar spaces take run max minus run min
    (``reduceat``), which is exact: binary64 subtraction is monotone, so
    fl(max - min) is the largest fl|x - y| over the run's pairs.  Other
    spaces take every pair of a run through :func:`group_max_distances`.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if a.space.is_scalar():
        x = a.array[flat]
        starts = np.cumsum(sizes) - sizes
        return np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    chunks = ((flat[p], flat[q], run) for p, q, run in _run_pairs(sizes))
    return group_max_distances(a, chunks, len(sizes))


def _suffix(ufunc, x):
    # ufunc accumulated over the orthant above each entry, along every axis.
    for axis in range(x.ndim):
        x = np.flip(ufunc.accumulate(np.flip(x, axis), axis=axis), axis)
    return x


def tail_diameters(a):
    """Diameter of the tail (up-set) of every window element, by position.

    On a grid window (see ``DirectedWindow.grid_shape``) every tail is an
    orthant.  Scalar spaces take the orthant's max minus its min; other
    spaces group all pairs by their meet (componentwise minimum), take
    each group's largest distance with :func:`group_max_distances`, and
    take the maximum over the orthant above each element, since a pair
    lies in the tail of i exactly when its meet does.  A chain is the 1-D
    case, where the meet of p < q is p.  On other windows every element's
    tail goes through :func:`run_diameters`.
    """
    w = a.window
    shape = w.grid_shape()
    if shape is None:
        tails = [list(map(w.index, w.up_set(i))) for i in w.elements]
        flat = np.fromiter(itertools.chain.from_iterable(tails), np.intp)
        return run_diameters(a, flat, list(map(len, tails)))
    if a.space.is_scalar():
        x = a.array.reshape(shape)
        return (_suffix(np.maximum, x) - _suffix(np.minimum, x)).ravel()
    # A position is the sum of its coordinates' shares (coordinate times
    # stride), so a meet's position sums the smaller share on each axis.
    # Positions are cut into bands; each band is paired with every later
    # position, and the pairs inside each band come last.
    n = len(w)
    strides = np.cumprod((*shape[1:], 1)[::-1])[::-1]
    shares = np.indices(shape).reshape(len(shape), -1) * strides[:, None]
    positions = np.arange(n)
    step = max(1, PAIR_CHUNK // n)

    def meet(p, q):
        return sum(np.minimum(c[p], c[q]) for c in shares)

    bands = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    across = ((positions[lo:hi, None], positions[None, hi:]) for lo, hi in bands if hi < n)
    within = ((p, q) for p, q, _ in _run_pairs([hi - lo for lo, hi in bands]))
    chunks = ((p, q, meet(p, q)) for p, q in itertools.chain(across, within))
    return _suffix(np.maximum, group_max_distances(a, chunks, len(w)).reshape(shape)).ravel()


def cauchy_indices(a, eps_grid):
    """:func:`window_cauchy_index` at each tolerance, from one :func:`tail_diameters`."""
    bounds = [eps_floor(eps) for eps in eps_grid]
    w = a.window
    tails = tail_diameters(a)
    # The top's tail is itself; it carries no stability evidence.
    tails[w.index(w.top())] = np.inf
    hits = [np.flatnonzero(tails <= e) for e in bounds]
    return tuple(w.elements[h[0]] if h.size else None for h in hits)


def window_cauchy_index(a, eps):
    """Smallest index i0 with d(a_j, a_k) <= eps for all j, k above i0.

    Only indices with a non-trivial tail count: an element whose up-set is
    just itself (the window top) would qualify vacuously for every net,
    which carries no stability evidence on a truncation.  Returns None
    when no window element has the tail property.

    Comparisons are exact <= on binary64; there is no tolerance slack.
    The answer is read off :func:`tail_diameters`, whose entries are
    exact maxima of the tail's distances; because no distance is NaN
    (points are finite), the largest distance is <= eps exactly when
    every distance is.
    """
    return cauchy_indices(a, (eps,))[0]
