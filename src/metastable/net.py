"""Nets over windows, stacked families of them, and window-level Cauchy checks."""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys

import numpy as np

from .order import WindowError, product, up_runs
from .space import BINARY, EUCLIDEAN, SpaceError, _bulk, half_line_space, unit_interval_space

__all__ = [
    "Net",
    "StackedFamily",
    "stacked",
    "self_distance",
    "mutual_distance",
    "distance_to_point",
    "window_cauchy_index",
    "require_eps",
    "CheckError",
]


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


class Net:
    """Total map from window elements to points of a metric space: row ``k`` of
    the stacked family ``family``, which holds its ``values`` (as given, in window
    order), optional ``target`` (for pointed verification) and ``array`` row.
    ``Net(window, space, values, target)`` checks them once, as the one member
    of a family.  Nets compare and hash as (window, space, values, target)."""

    __slots__ = ("family", "k")
    window = property(lambda a: a.family.window)
    space = property(lambda a: a.family.space)
    values = property(lambda a: a.family.row(a.k))
    target = property(lambda a: a.family.targets[a.k])
    array = property(lambda a: a.family.array[a.k])
    _fields = property(lambda a: (a.window, a.space, a.values, a.target))

    def __init__(self, window, space, values, target=None):
        self.family, self.k = StackedFamily.from_rows(window, space, [values], [target]), 0

    def __eq__(self, other):
        return self._fields == other._fields if isinstance(other, Net) else NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        return "Net(window={!r}, space={!r}, values={!r}, target={!r})".format(*self._fields)

    def value(self, i):
        return self.values[self.window.index(i)]

    def dist(self, i, j):
        return self.space.unchecked_dist(self.value(i), self.value(j))


class StackedFamily:
    """The members of a family on one window and one space, as one array.

    ``array`` has one row per member: members x positions of floats for
    scalar spaces, members x dim x positions for Euclidean spaces, and
    symbol positions for table spaces; ``targets`` holds each member's
    declared target, or None.  All were checked once, with the whole array.
    As a sequence, the family yields views of its rows (see :class:`Net`),
    made anew each time; :meth:`row` reads a member's values as given.
    """

    def __init__(self, window, space, array, targets, rows=None):
        # ``rows``: each member's values as given; None when the array's own values are
        # theirs (binary ints, floats), as for enumerated and most decoded members.
        if rows is None and not space.is_scalar():
            raise ValueError(f"a family on {space.kind} space needs its members' rows")
        self.window, self.space, self.array, self.targets, self._rows = window, space, array, list(targets), rows
        if len(self.targets) != len(array):
            raise ValueError(f"a family of {len(array)} rows has {len(self.targets)} targets")
        array.flags.writeable = False

    @classmethod
    def from_rows(cls, window, space, rows, targets):
        """The family of nets with these values and targets (None: none), all
        checked in one bulk test.  Else each member in turn (its length, its
        values, its target) is checked, so the first fault raises SpaceError
        as one ``Net`` at a time would."""
        if not rows:
            raise ValueError("empty family")
        n, given = len(window), [t for t in targets if t is not None]
        x, exact = _bulk(space, rows) if {n}.issuperset(map(len, rows)) else (None, False)
        if x is None or given and _bulk(space, [given])[0] is None:
            for row, t in zip(rows, targets):
                if len(row) != n:
                    raise SpaceError(f"net has {len(row)} values for a window of {n}")
                for v in row if t is None else (*row, t):
                    space.require(v)
            x, exact = np.array(rows, float), False  # all points: reals (Euclidean: tuples of them), ints up to 2**53
        if space.kind == EUCLIDEAN:
            x = np.ascontiguousarray(x.transpose(0, 2, 1))
        return cls(window, space, x, targets, rows=None if exact else list(map(tuple, rows)))

    def __len__(self):
        return len(self.targets)

    def row(self, k):
        """Member k's values as given: Python scalars and tuples, binary values as ints."""
        if self._rows is not None:
            return tuple(self._rows[k])
        row = self.array[k].tolist()
        return tuple(map(int, row) if self.space.kind == BINARY else row)

    def __getitem__(self, m):
        a = object.__new__(Net)
        a.family, a.k = self, range(len(self))[operator.index(m)]
        return a

    def __eq__(self, other):
        # Member by member, as the list of its nets.
        return list(self) == list(other) if isinstance(other, (list, tuple, StackedFamily)) else NotImplemented

    @functools.cached_property
    def points(self):
        """Every member's values, then every target if each member has one,
        as one flat array of floats (Euclidean: one row per axis) or symbol
        positions.  Point k * n + p is position p of member k, and point
        m * n + k, for m members, is member k's target."""
        x = self.array.transpose(1, 0, 2).reshape(self.space.dim, -1) if self.space.kind == EUCLIDEAN else self.array.ravel()
        if None in self.targets:
            return x
        t = _bulk(self.space, [self.targets])[0]
        t = (np.array([self.targets], float) if t is None else t)[0]  # checked: ints at 2**53
        return np.concatenate((x, t.T if self.space.kind == EUCLIDEAN else t), axis=-1)


def stacked(family):
    """``family`` as a StackedFamily: as it is when it is one, else the
    family of a nonempty list of nets on one window and one space, whose
    members equal them (equal values and targets, as given)."""
    if isinstance(family, StackedFamily):
        return family
    nets = list(family)
    if not nets:
        raise ValueError("empty family")
    window, space = nets[0].window, nets[0].space
    if any(a.window != window for a in nets[1:]):
        raise WindowError("family members live on different windows")
    if any(a.space != space for a in nets[1:]):
        raise SpaceError("family members take values in different spaces")
    array, rows = np.stack([a.array for a in nets]), [a.values for a in nets]
    return StackedFamily(window, space, array, [a.target for a in nets], rows=rows)


def _distance_space(space):
    # Distances live in [0, 1] exactly when the source space is 1-bounded.
    if space.diameter_bound is not None and space.diameter_bound <= 1.0:
        return unit_interval_space()
    return half_line_space()


def _pairwise(a, b, target):
    # The net of d(a_i, b_j) on product(window_a, window_b): pairs (i, j) with j running fastest, as the values.
    if a.space != b.space:
        raise SpaceError("mutual distance requires a shared metric space")
    dist, ys = a.space.unchecked_dist, b.values  # read once, not once per pair
    values = tuple(dist(x, y) for x in a.values for y in ys)
    return Net(product(a.window, b.window), _distance_space(a.space), values, target)


def mutual_distance(a, b):
    """Real net of pairwise distances d(a_i, b_j) on product(window_a, window_b)."""
    return _pairwise(a, b, None)


def self_distance(a):
    """Self-distance net: value at (i, j) is d(a_i, a_j), with target 0.

    The net converges to 0 exactly when ``a`` is Cauchy, so 0 is the
    canonical pointed target.
    """
    return _pairwise(a, a, 0.0)


def distance_to_point(a, b):
    """Real net of distances from a fixed point: value at i is d(a_i, b)."""
    a.space.require(b)
    values = tuple(map(a.space.unchecked_dist, a.values, [b] * len(a.window)))
    return Net(a.window, _distance_space(a.space), values, target=0.0)


#: Position pairs per kernel chunk; bounds the kernel's temporaries.
PAIR_CHUNK = 2**13


def _spans(sizes):
    # Consecutive slices of ``sizes`` whose sums are about PAIR_CHUNK, one entry at least.
    ends, lo = np.cumsum(sizes), 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + PAIR_CHUNK, side="right")))
        yield slice(lo, hi)
        lo = hi


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
    for rows in _spans(later):
        counts = later[rows]
        p = np.repeat(np.arange(rows.start, rows.stop), counts)
        q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
        if len(p):
            yield p, q, run[p]


def run_maxima(x, flat, sizes, ufunc=np.maximum):
    """Largest entry (``ufunc=np.minimum``: smallest) of each row of ``x``
    on each run of positions: rows x runs.

    ``flat`` is an integer array of positions cut into consecutive
    nonempty runs of ``sizes``.
    """
    return ufunc.reduceat(x[:, flat], np.cumsum(sizes) - sizes, axis=1)


#: Longest run that :func:`runs_within` decides on a scalar space by one
#: gather per level (rank inside a run); past it, ``reduceat`` takes every run.
LEVEL_PASSES = 8


def _beyond(s, i, j, bounds):
    """Bounds x pairs: whether points i and j of a stacked family (numbered
    as in :attr:`StackedFamily.points`) lie more than each bound (a column)
    apart, exactly as ``unchecked_dist`` measures them.

    A table space gathers from its table.  A Euclidean pair goes through a
    semi-static floating-point filter (Fortune & Van Wyk 1993; Shewchuk
    1997): numpy estimates e = fl(sqrt(sum fl(fl(x - y)^2))), and only the
    pairs it cannot decide go to ``math.dist``, on the array's exact points.
    Why that is exact.  Let u = 2^-53, d the dimension and t the true
    distance.  Call a pair safe when its computed sum of squares lies in
    [2^-900, 2^900]: no square overflowed, and squares that underflow shift
    the sum by a relative d * 2^-122 at most.  On a safe pair each
    difference, square and the square root rounds once, and the d - 1
    additions, in any order, add at most (d - 1)u / (1 - (d - 1)u), so
    |e - t| <= ((d + 4) / 2) u t up to O(u^2); ``math.dist`` is within one
    ulp, 2u t, of t.  With k = 8 (d + 8) u, whose factor 8 covers the
    O(u^2) terms, the underflow term and the rounding of the product,
    e (1 + k) <= b means within and e (1 - k) > b beyond.  Identical points
    have a sum of exactly 0; every other unsafe pair, and every pair with a
    bound in between, is measured.
    """
    x = s.points
    if s.space.kind != EUCLIDEAN:
        return np.array(s.space.table, float)[x[i], x[j]] > bounds
    kappa = 8 * (s.space.dim + 8) * 2.0**-53
    with np.errstate(over="ignore"):  # overflowing pairs are unsafe
        squares = sum((c[i] - c[j]) ** 2 for c in x)
    e = np.sqrt(squares)
    low = e * (1 - kappa)
    redo = ((low <= bounds) & (bounds < e * (1 + kappa))).any(axis=0)
    unsafe = (squares < 2.0**-900) | (squares > 2.0**900)
    if unsafe.any():
        redo |= unsafe & (sum(c[i] != c[j] for c in x) > 0)
    if redo.any():  # every coordinate, a float or an int up to 2**53, is held exactly, as math.dist reads it
        low[redo] = [math.dist(x[:, p], x[:, q]) for p, q in zip(i[redo].tolist(), j[redo].tolist())]
    return low > bounds


def runs_within(s, bounds, flat, sizes):
    """Whether the diameter of every member of a stacked family on each run
    of positions is <= each bound: members x bounds x runs booleans, exact
    and C-contiguous.

    ``flat`` is an integer array of positions cut into consecutive
    nonempty runs of ``sizes``; ``bounds`` are floats (see
    :func:`eps_floor`).  Scalar spaces compare run max minus run min, which
    is exact: binary64 subtraction is monotone, so fl(max - min) is the
    largest fl|x - y| over the run's pairs.  Runs of at most
    :data:`LEVEL_PASSES` positions keep a running max and min, one gather
    per level; a longer run sends every run through ``reduceat``, so time
    stays O(len(flat)).  Other spaces decide every pair of a run with
    :func:`_beyond`, chunk by chunk (:func:`_run_pairs`), and mark each run
    holding a pair beyond a bound.  Memory is O(points + chunk x bounds).
    """
    bounds, sizes = np.asarray(bounds, float)[:, None], np.asarray(sizes, np.intp)
    m, n, runs = len(s), len(s.window), len(sizes)
    if s.space.is_scalar():
        x, longest = s.array, sizes.max(initial=0)
        if longest > LEVEL_PASSES:
            d = run_maxima(x, flat, sizes) - run_maxima(x, flat, sizes, np.minimum)
        else:
            starts = np.cumsum(sizes) - sizes
            hi = lo = x[:, flat[starts]]
            for r in range(1, longest):
                level = x[:, flat[starts + np.minimum(r, sizes - 1)]]  # a shorter run repeats its last
                hi, lo = np.maximum(hi, level), np.minimum(lo, level)
            d = hi - lo
        return np.ascontiguousarray(d[:, None] <= bounds)
    far = np.zeros((m, len(bounds), runs), bool)
    for p, q, run in _run_pairs(sizes):
        for k in range(m):
            level, pair = np.nonzero(_beyond(s, k * n + flat[p], k * n + flat[q], bounds))
            far[k, level, run[pair]] = True
    return ~far


def first_far_pair(s, k, bound, up):
    """The first pair (p, q) of the ascending positions ``up``, in
    ``itertools.combinations`` order, at which member ``k`` of the stacked
    family ``s`` lies more than ``bound`` apart, decided by :func:`_beyond`
    chunk by chunk in :func:`_run_pairs` row order; None when there is none."""
    at, bounds = k * len(s.window) + up, np.array([[bound]])  # member k's points, numbered as in points
    for p, q, _ in _run_pairs([len(up)]):
        beyond = _beyond(s, at[p], at[q], bounds)[0]
        if beyond.any():
            f = beyond.argmax()
            return int(up[p[f]]), int(up[q[f]])
    return None


def _orthants(ufunc, x, shape, up=True):
    # ufunc accumulated over the orthant above (up) or below each entry of every row of x (rows x positions
    # of a grid).  Reversing the positions reverses every axis of the C-order grid.
    y = (x[:, ::-1] if up else x).reshape(len(x), *shape)
    for axis in range(1, y.ndim):
        y = ufunc.accumulate(y, axis=axis)
    return y.reshape(x.shape)[:, ::-1] if up else y.reshape(x.shape)


def tail_maxima(w, x, ufunc=np.maximum):
    """Largest entry (``ufunc=np.minimum``: smallest) of each row of ``x``
    (rows x positions of ``w``) over the up-set of every element.

    An up-set is an orthant on a grid window (see ``DirectedWindow.grid_shape``),
    taken as a suffix maximum along each axis, and a run of positions elsewhere.
    """
    shape = w.grid_shape()
    return run_maxima(x, *up_runs(w), ufunc) if shape is None else _orthants(ufunc, x, shape)


def targets_within(s, bound):
    """Members x positions: whether each member's value at every position
    lies within ``bound`` of its target, for a stacked family whose members
    all have one, exactly as ``unchecked_dist`` measures it."""
    m, n = len(s), len(s.window)
    if s.space.is_scalar():
        return np.abs(s.array - s.points[m * n:, None]) <= bound
    p = np.arange(m * n)
    return ~_beyond(s, p, m * n + p // n, np.array([[bound]]))[0].reshape(m, n)


def _tail_bounds(s):
    """Members x positions: ``lower <= D <= upper`` for every tail's diameter D as ``math.dist`` measures it.

    Euclidean bounds come in O(n) from the tail's extents (:func:`tail_maxima`)
    along each axis and each diagonal x_a +- x_(a+1).  ``upper`` is the box
    diagonal, rounded up by the kernel filter's margin (2d times the widest
    extent where the sum of squares may underflow).  ``lower`` is the widest
    axis extent or diagonal extent over sqrt 2, rounded down past every
    rounding: a pair of the tail attains it.  Its orthant maximum makes it
    monotone down the order, as D is.  A table space has 0 and its largest distance.
    """
    w, m, n = s.window, len(s), len(s.window)
    if s.space.kind != EUCLIDEAN:
        return np.zeros((m, n)), np.full((m, n), s.space.diameter_bound)
    x, d = s.array, s.space.dim
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate((x, x[:, :-1] + x[:, 1:], x[:, :-1] - x[:, 1:]), axis=1).reshape(-1, n)
        both = tail_maxima(w, np.concatenate((rows, -rows)))
        hi, lo = both[:len(rows)].reshape(m, -1, n), both[len(rows):].reshape(m, -1, n)  # lo: minus the minima
        extent = hi + lo
        widest, squares = extent[:, :d].max(axis=1), np.sum(extent[:, :d] ** 2, axis=1)
        upper = np.sqrt(squares) * (1 + 8 * (d + 8) * 2.0**-53)
        upper = np.where(squares < 2.0**-900, 2 * d * widest, upper)
        # A diagonal's sums round relative to their size; one that overflows (NaN) counts as 0.
        diagonal = (extent[:, d:] - 2.0**-50 * (np.abs(hi) + np.abs(lo))[:, d:]) * 0.7071067811865
        lower = np.fmax(widest, np.fmax.reduce(diagonal, axis=1, initial=0.0)) * (1 - 2.0**-50) - 2.0**-1070
    return tail_maxima(w, lower), upper


def _boxes(ext, strides):
    # Every offset 0 <= t < ext of each box (boxes x axes), box by box in C order: its box, t, and t @ strides.
    size = ext.prod(axis=1)
    box = np.repeat(np.arange(len(size)), size)
    rank = np.arange(len(box)) - (np.cumsum(size) - size)[box]
    t = np.empty((len(box), ext.shape[1]), np.intp)
    for a in range(ext.shape[1] - 1, 0, -1):
        rank, t[:, a] = np.divmod(rank, ext[box, a])
    t[:, 0] = rank
    return box, t, t @ strides


def _meet_pairs(shape, k, p, n):
    """Chunks ``(i, j, group)`` of every pair of points of member k[item] of a
    stacked family on a grid of leaf sizes ``shape`` whose meet (componentwise
    minimum) is position p[item], group k[item] * n + p[item], for every item.

    If x precedes y in C order and they meet at p, x lies on p's level on the
    first axis, and y on every axis where x lies above p: a box per x (on a
    chain, p's row).  Chunks hold about :data:`PAIR_CHUNK` points, so memory is O(n + chunk).
    """
    strides = np.array([math.prod(shape[a + 1:]) for a in range(len(shape))])
    orthant = np.array(shape) - np.array(np.unravel_index(p, shape)).T  # items x axes
    face = np.where(np.arange(len(shape)) > 0, orthant, 1)  # x's first coordinate is p's
    group = k * n + p  # also the point at p
    for items in _spans(face.prod(axis=1)):
        at, u, x = _boxes(face[items], strides)
        at += items.start
        box, x = np.where(u > 0, 1, orthant[at]), x + group[at]
        for part in _spans(box.prod(axis=1)):
            of, _, y = _boxes(box[part], strides)
            g, i = group[at[part][of]], x[part][of]
            j = y + g
            later = j > i
            yield i[later], j[later], g[later]


def tails_within(s, eps_grid, read, first=False):
    """Whether the tail (up-set) of each element has diameter <= eps:
    members x tolerances x positions booleans for a stacked family, exact
    where the mask ``read`` is True (with ``first``, up to each row's first
    True there) and elsewhere True only where it holds.

    Scalar spaces take the tail's max minus min, which is exact (see
    :func:`runs_within`).  Other spaces prune with :func:`_tail_bounds`
    (after Har-Peled, "A practical approach for computing the diameter of
    a point set", SoCG 2001) and decide the rest exactly.  On a grid a tail
    lies within eps when every pair meeting (componentwise minimum) at one
    of its positions does; only undecided positions above an undecided read
    one can hold a pair beyond eps, and :func:`_beyond` decides their pairs.
    Elsewhere :func:`runs_within` decides the read tails themselves.
    """
    bounds, w, m, n = np.array([eps_floor(eps) for eps in eps_grid])[:, None], s.window, len(s), len(s.window)
    if s.space.is_scalar():
        return (tail_maxima(w, s.array) - tail_maxima(w, s.array, np.minimum))[:, None] <= bounds
    lower, upper = _tail_bounds(s)
    hit = upper[:, None] <= bounds
    undecided = ~hit & (lower[:, None] <= bounds)
    pending = undecided & read  # undecided where read
    if first:
        pending &= ~np.logical_or.accumulate(hit & read, axis=2)
    if not pending.any():
        return hit
    shape = w.grid_shape()
    if shape is None:  # the read tails themselves, decided as runs
        cols, (flat, sizes), within = pending.any(axis=(0, 1)), up_runs(w), np.zeros_like(hit)
        within[:, :, cols] = runs_within(s, bounds[:, 0], flat[np.repeat(cols, sizes)], sizes[cols])
        return hit | pending & within
    need = undecided & _orthants(np.logical_or, pending.reshape(-1, n), shape, up=False).reshape(pending.shape)
    far = np.zeros(pending.shape, bool)  # some pair meeting at the position lies beyond the bound
    for i, j, g in _meet_pairs(shape, *np.nonzero(need.any(axis=1)), n):
        level, pair = np.nonzero(_beyond(s, i, j, bounds))
        far[g[pair] // n, level, g[pair] % n] = True
    return hit | pending & ~tail_maxima(w, far.reshape(-1, n)).reshape(far.shape)


def cauchy_indices(s, eps_grid):
    """:func:`window_cauchy_index` at each tolerance, as a tuple for each
    member of a stacked family, from one :func:`tails_within` that decides
    each row up to its first hit."""
    w = s.window
    read = np.arange(len(w)) != w.index(w.top())  # the top's tail is itself; it carries no stability evidence
    hit = tails_within(s, eps_grid, read, first=True) & read
    first, found = hit.argmax(axis=2).tolist(), hit.any(axis=2).tolist()
    return [tuple(w.elements[p] if f else None for p, f in zip(*row)) for row in zip(first, found)]


def window_cauchy_index(a, eps):
    """Smallest index i0 with d(a_j, a_k) <= eps for all j, k above i0.

    Only indices with a non-trivial tail count: an element whose up-set is
    just itself (the window top) would qualify vacuously for every net,
    which carries no stability evidence on a truncation.  Returns None
    when no window element has the tail property.

    Comparisons are exact <= on binary64; there is no tolerance slack.
    The answer is read off :func:`tails_within`, which decides every tail
    it reads exactly: because no distance is NaN (points are finite), the
    largest distance is <= eps exactly when every distance is.
    """
    return cauchy_indices(stacked([a]), (eps,))[0][0]
