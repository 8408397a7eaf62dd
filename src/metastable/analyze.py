"""Empirical metastability analysis of numeric iterate sequences.

Builds demo iterate families (Cesaro averages of planar rotations),
searches for small uniform candidate sets over a grid of tolerances and a
suite of samplings, and runs the finite-point-set uniform-metastability
check.  Every element of a reported cover re-validates through the
witness checker; per-net witnesses come from the same exact block
decisions and are checked against brute-force oracles in the tests.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import compress

import numpy as np

from .meta import _within
from .net import CheckError, StackedFamily, cauchy_indices, eps_floor, runs_within, stacked
from .space import BINARY, EUCLIDEAN, SpaceError, euclidean_space
from .order import (
    WindowError,
    doubling_sampling,
    identity_sampling,
    make_omega_window,
    random_samplings,
    successor_sampling,
)

__all__ = [
    "AnalysisCell",
    "AnalysisReport",
    "UmpVerdict",
    "cesaro_rotation_nets",
    "cesaro_envelope",
    "cesaro_envelope_ok",
    "empirical_rate",
    "finite_space_ump_check",
    "ingest_csv",
    "build_sampling_suite",
]

#: Relative comparison slack used only when checking analytic bounds on
#: binary64 data; the computations themselves are raw arithmetic.
FLOAT_SLACK = 2.0 ** -40


def cesaro_rotation_nets(angles, horizon):
    """Cesaro averages of the rotation orbit of (1, 0): a StackedFamily, one member per angle.

    The value at index n >= 1 is the mean of the first n orbit points
    (1, 0), R(1, 0), ..., R^(n-1)(1, 0); index 0 holds the start vector.
    For angles that are exact multiples of pi/2 the orbit is computed in
    integer arithmetic, so e.g. the quarter-turn net vanishes exactly at
    every index divisible by 4.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    window = make_omega_window(horizon)
    rows, targets = [], []
    for theta in angles:
        if theta % (math.pi / 2) == 0.0:  # an exact multiple of a quarter turn: the integer orbit
            q = round(theta / (math.pi / 2)) % 4
            orbit = ((1, 0), (0, 1), (-1, 0), (0, -1))
            sx = sy = 0
            values = [(1.0, 0.0)]
            for n in range(1, horizon):
                vx, vy = orbit[((n - 1) * q) % 4]
                sx += vx
                sy += vy
                values.append((sx / n, sy / n))
        else:
            ks = np.arange(horizon - 1, dtype=float) * theta
            sx = np.cumsum(np.cos(ks))
            sy = np.cumsum(np.sin(ks))
            ns = np.arange(1, horizon, dtype=float)
            values = [(1.0, 0.0)] + list(zip(sx / ns, sy / ns))
        converges = theta % (2 * math.pi) != 0.0
        rows.append(tuple((float(x), float(y)) for x, y in values))
        targets.append((0.0, 0.0) if converges else (1.0, 0.0))
    return StackedFamily.from_rows(window, euclidean_space(2), rows, targets)


def cesaro_envelope(theta, n):
    """Analytic bound 2 / (n * |1 - e^(i theta)|) on the n-th average norm."""
    c = math.hypot(1.0 - math.cos(theta), math.sin(theta))
    if c == 0.0:
        raise ValueError("envelope bound needs a nonzero rotation angle")
    return 2.0 / (n * c)


def cesaro_envelope_ok(net, theta):
    """Whether every value at n >= 1 respects the geometric-series envelope.

    Compared in squared form with the relative slack :data:`FLOAT_SLACK`:
    the bound is exact in real arithmetic; the slack only absorbs binary64
    rounding of the stored averages.
    """
    c2 = (1.0 - math.cos(theta)) ** 2 + math.sin(theta) ** 2
    if c2 == 0.0:
        raise ValueError("envelope bound needs a nonzero rotation angle")
    for n, (x, y) in enumerate(net.values):
        if n == 0:
            continue
        if (x * x + y * y) * (n * n) * c2 > 4.0 * (1.0 + FLOAT_SLACK):
            return False
    return True


# -- empirical rate search -------------------------------------------------


@dataclass(frozen=True)
class AnalysisCell:
    """One (eps, sampling) cell: per-net witnesses and a greedy cover."""

    eps: float
    sampling_id: str
    witnesses: tuple  # first full-window witness per net, or None
    cover_set: tuple  # greedy uniform candidate set, enumeration order
    uncovered: tuple  # indices of nets no window element witnesses


@dataclass(frozen=True)
class AnalysisReport:
    window_size: int
    eps_grid: tuple
    sampling_ids: tuple
    cells: tuple  # AnalysisCell, by eps descending, then in the suite's own order
    cauchy_indices: tuple  # per net: tuple of (eps, index-or-None)
    refuted: bool  # some cell left a net without any witness


def _greedy_covers(witness):
    """Greedy covers of the nets by indices in every cell of a cells x nets x positions witness tensor.

    Cells run in lockstep.  Each round, every cell with an uncovered net takes the index witnessing
    most such nets, ties to the lowest position (``argmax``), and a covered cell drops out.  Returns
    cells x positions, True where the index is in the cell's cover.
    """
    live, cover = witness.any(axis=2), np.zeros(witness.shape[::2], bool)
    cells = np.flatnonzero(live.any(axis=1))
    while cells.size:
        w = witness[cells]
        best = (w & live[cells, :, None]).sum(axis=1).argmax(axis=1)
        cover[cells, best] = True
        live[cells] &= ~w[np.arange(len(cells)), :, best]
        cells = cells[live[cells].any(axis=1)]
    return cover


def empirical_rate(family, eps_grid, sampling_suite):
    """Per-(eps, sampling) witness tables plus greedy minimal covering sets.

    ``sampling_suite`` maps sampling ids to samplings on the family's
    window; a tolerance given twice raises ValueError.  Finding a true
    minimal set is set-cover-hard; the greedy cover is deterministic and
    every element of it is certified by re-validation against the witness
    checker.

    The family is stacked once.  Its Cauchy indices (tails decided against
    every tolerance by :func:`~metastable.net.cauchy_indices`) are one
    call, and so is the decision of every block of the suite against every
    tolerance (:func:`~metastable.net.runs_within`), which gives one witness
    tensor, cells x members x positions (cell c is tolerance c // k and
    sampling c % k of k), for one ``argmax`` and one lockstep cover.  The
    answers are those of the pairwise checks, exactly: binary64 subtraction
    is monotone, so fl(max - min) over a block or tail of scalar values
    equals the largest fl|x - y| over its pairs, Euclidean pairs are decided
    by the kernel filter's margin or by ``math.dist``, and with no NaN
    distances (points are finite) the largest distance is <= eps exactly
    when every distance is.
    """
    family = stacked(family)
    if not eps_grid or not sampling_suite:
        raise ValueError("empty tolerance grid or sampling suite")
    window, els = family.window, family.window.elements
    eps_grid = tuple(sorted(eps_grid, reverse=True))
    repeated = [x for x, y in zip(eps_grid, eps_grid[1:]) if x == y]  # one cell per tolerance, as in a Rate
    if repeated:
        raise ValueError(f"tolerance {repeated[0]!r} is repeated in the grid")
    sids, samplings, n = tuple(sampling_suite), tuple(sampling_suite.values()), len(window)
    if any(eta.window != window for eta in samplings):
        raise WindowError("sampling and net live on different windows")
    flat, sizes = (np.concatenate([getattr(eta, f) for eta in samplings]) for f in ("flat", "sizes"))
    if any(len(eta.sizes) != n for eta in samplings) or not sizes.all():
        raise WindowError("sampling needs one nonempty candidate set per index")
    k, within = len(samplings), runs_within(family, [eps_floor(eps) for eps in eps_grid], flat, sizes)
    witness = np.ascontiguousarray(within.reshape(len(family), -1, n).transpose(1, 0, 2))  # cells x members x positions
    m, found = len(family), witness.any(axis=2)
    seen = [els[p] if f else None for p, f in zip(witness.argmax(axis=2).ravel().tolist(), found.ravel().tolist())]
    cell, at = np.nonzero(_greedy_covers(witness))  # every cover element, cell by cell
    named, covers = witness[cell, :, at].argmax(axis=1).tolist(), [[] for _ in found]
    row, space = cache(family.row), family.space  # each member's values, read at most once for every cell
    for c, p, member in zip(cell.tolist(), at.tolist(), named):
        # Certified on its block: first by the member the tensor says it witnesses, the others only before refusing.
        eps, block = eps_grid[c // k], samplings[c % k].block(p)
        if not _within(space, row(member), eps, block) and not any(_within(space, row(b), eps, block) for b in range(m)):
            raise CheckError(f"cover element {els[p]!r} witnesses no net at eps={eps}, sampling {sids[c % k]!r}")
        covers[c].append(els[p])
    cells = tuple(
        AnalysisCell(eps_grid[c // k], sids[c % k], tuple(seen[c * m:c * m + m]), tuple(cover), tuple(compress(range(m), missed)))
        for c, (cover, missed) in enumerate(zip(covers, (~found).tolist()))
    )
    cauchy = tuple(tuple(zip(eps_grid, indices)) for indices in cauchy_indices(family, eps_grid))
    return AnalysisReport(len(window), eps_grid, sids, cells, cauchy, refuted=any(cell.uncovered for cell in cells))


@dataclass(frozen=True)
class UmpVerdict:
    """Outcome of the finite-point-set uniform metastability check."""

    ok: bool
    non_cauchy_points: tuple  # (point label, finest eps) for failing nets
    sets: tuple  # ((eps, sampling id), cover set) for every cell
    window_size: int


def finite_space_ump_check(family, labels, eps_grid, sampling_suite):
    """Uniform candidate sets for a family indexed by a finite point set.

    ``family`` has one member per point, named by ``labels`` in order.  A
    finite point set is compact, so once every member is window-Cauchy at
    the finest tolerance a uniform candidate set exists for each (eps,
    sampling) cell.  Both facts are read off :func:`empirical_rate`'s
    report (its Cauchy indices and greedy covers), and each cover is
    re-validated against every member.  Members failing the Cauchy
    precondition are reported by point and no sets are returned.
    """
    family, labels = stacked(family), tuple(labels)
    if len(labels) != len(family):
        raise ValueError(f"{len(labels)} point labels for a family of {len(family)}")
    report = empirical_rate(family, eps_grid, sampling_suite)
    finest = report.eps_grid[-1]
    failures = tuple((label, finest) for label, c in zip(labels, report.cauchy_indices) if c[-1][1] is None)
    if failures:
        return UmpVerdict(False, failures, (), report.window_size)
    sets, rows = [], list(map(family.row, range(len(family))))  # each member's values, read once for every cell
    for cell in report.cells:
        eps, sid, eta, cover = cell.eps, cell.sampling_id, sampling_suite[cell.sampling_id], cell.cover_set
        if cell.uncovered:
            raise CheckError(f"window-Cauchy nets {cell.uncovered} have no witness at eps={eps}, sampling {sid!r}")
        blocks = [eta.block(p) for p in family.window._indices(cover).tolist()]  # the cover's positions, read once
        for m, values in enumerate(rows):  # re-validate: the cover serves every net
            if not any(_within(family.space, values, eps, block) for block in blocks):
                raise CheckError(f"cover misses net {m} at eps={eps}, sampling {sid!r}")
        sets.append(((eps, sid), cover))
    return UmpVerdict(True, (), tuple(sets), report.window_size)


# -- ingestion and suites --------------------------------------------------


def ingest_csv(path, space):
    """Parse a rectangular numeric CSV into a StackedFamily on an omega window.

    One row per index.  Scalar spaces take one member per column; a
    d-dimensional Euclidean space groups consecutive blocks of d columns
    into one member each.  The file is read as UTF-8.  Every message names
    a row by its CSV record number, blank records counted.
    """
    rows, records = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for record, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise SpaceError(f"non-numeric cell in row {record}") from None
            if len(rows[-1]) != len(rows[0]):
                raise SpaceError(f"ragged row {record}: expected {len(rows[0])} columns")
            records.append(record)
    if not rows:
        raise SpaceError("empty CSV")
    window = make_omega_window(len(rows))
    columns = list(zip(*rows))
    if space.kind == EUCLIDEAN:
        d = space.dim
        if len(columns) % d != 0:
            raise SpaceError(f"{len(columns)} columns do not group into dimension {d}")
        columns = [tuple(zip(*columns[c:c + d])) for c in range(0, len(columns), d)]
    elif space.kind == BINARY:
        for column in columns:
            for record, v in zip(records, column):
                if v not in (0.0, 1.0):
                    raise SpaceError(f"non-binary value in row {record}")
        columns = [tuple(map(int, column)) for column in columns]
    return StackedFamily.from_rows(window, space, columns, [None] * len(columns))


def build_sampling_suite(window, names, seed=None, random_count=8):
    """Named built-in sampling suite: identity, successor, doubling, random-k.

    ``random-k`` requires a seed and contributes ``random_count`` seeded
    samplings with ids random-k-0, random-k-1, ...
    """
    fixed = {"identity": identity_sampling, "successor": successor_sampling, "doubling": doubling_sampling}
    suite = {}
    for name in names:
        if name in fixed:
            suite[name] = fixed[name](window)
        elif name == "random-k":
            if seed is None:
                raise ValueError("the random-k suite needs a seed")
            drawn = random_samplings(window, random.Random(seed), random_count)
            suite.update((f"random-k-{r}", eta) for r, eta in enumerate(drawn))
        else:
            raise ValueError(f"unknown sampling suite name {name!r}")
    return suite
