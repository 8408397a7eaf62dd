"""Metric spaces: the kinds of point a net takes, their distances, and
the check that a list of values is a list of points."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .order import _same_kind

__all__ = [
    "MetricSpace",
    "SpaceError",
    "binary_space",
    "unit_interval_space",
    "half_line_space",
    "euclidean_space",
    "table_space",
]

BINARY = "binary-discrete"
UNIT_INTERVAL = "unit-interval"
HALF_LINE = "half-line"
EUCLIDEAN = "euclidean"
TABLE = "custom-table"


class SpaceError(ValueError):
    """Raised for points outside a space or malformed distance tables."""


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
        # Position of the first symbol equal to ``x`` and of its kind, else None: as
        # for window labels, a bool names only a bool and a float only a float.  A
        # comparison that yields an array (numpy against a tuple symbol) is no match.
        matches = (
            p for p, s in enumerate(self.symbols)
            if s is x or isinstance(eq := s == x, (bool, np.bool_)) and eq and _same_kind(x, s)
        )
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
    if any(x is None for x in symbols):  # a target of None means "no target"
        raise SpaceError("None cannot be a symbol")
    if len(table) != n or any(len(row) != n for row in table):
        raise SpaceError("distance table shape mismatch")
    if not all(_is_real(v) and v >= 0 for row in table for v in row):
        raise SpaceError("distance table entries must be finite reals >= 0")
    table = tuple(tuple(map(float, row)) for row in table)
    t = np.array(table).reshape(n, n)
    faults = np.column_stack((t.diagonal() != 0.0, t != t.T))  # row i: its self-distance, then its pairs
    if faults.any():
        i, j = divmod(int(faults.argmax()), n + 1)  # j = 0: i's self-distance; else the pair i, j - 1
        pair = f"asymmetric distances at {symbols[i]!r}, {symbols[j - 1]!r}"
        raise SpaceError(pair if j else f"nonzero self-distance at {symbols[i]!r}")
    first, until = None, n  # the first failing (i, j, k) in product order; only an i < until can precede it
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in Python
        for j in range(n):  # one middle symbol at a time: O(n^2) memory
            fails = (t[:until] > t[:until, j, None] + t[j]).ravel()
            if fails.any():
                until, k = divmod(int(fails.argmax()), n)
                first = (until, j, k)
    if first:
        raise SpaceError("triangle inequality fails at " + ", ".join(repr(symbols[p]) for p in first))
    bound = max((v for row in table for v in row), default=0.0)
    return MetricSpace(TABLE, symbols=symbols, table=table, diameter_bound=bound)


#: Where a point's kind allows only values in a range, that range; every
#: real coordinate must also be finite.
_RANGES = {BINARY: (0.0, 1.0), UNIT_INTERVAL: (0.0, 1.0), HALF_LINE: (0.0, math.inf)}


def _bulk(space, rows):
    # ``rows`` (lists of points, all of one length) as one array, rows x points (Euclidean: rows x points x dim;
    # tables: symbol positions), if one bulk test proves every one a point, else None; and whether it gives back
    # each value as given (binary ints, scalar floats).  Coordinates are exact ints and floats, flattened once;
    # binary ints in [0, 1] are 0 and 1.  Ints convert exactly below 2**53; one at or past it leaves the answer to require.
    if space.kind == TABLE:
        positions = [list(map(space._position, row)) for row in rows]
        return None if any(None in row for row in positions) else np.array(positions, np.intp), False
    shape, values = (len(rows), len(rows[0])), list(itertools.chain.from_iterable(rows))
    if space.kind == EUCLIDEAN:
        if set(map(type, values)) != {tuple} or set(map(len, values)) != {space.dim}:
            return None, False
        shape, values = (*shape, space.dim), list(itertools.chain.from_iterable(values))
    types = set(map(type, values))
    if not types <= ({int} if space.kind == BINARY else {int, float}):
        return None, False
    try:
        x = np.fromiter(values, float, len(values)).reshape(shape)
    except OverflowError:
        return None, False
    lo, hi = _RANGES.get(space.kind, (-math.inf, math.inf))
    least, most = float(x.min()), float(x.max())  # NaN if any entry is
    if not (math.isfinite(least) and math.isfinite(most) and lo <= least and most <= hi):
        return None, False
    if int in types and max(-least, most) >= 2.0**53:
        return None, False
    return x, space.kind == BINARY or space.is_scalar() and int not in types
