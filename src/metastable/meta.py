"""Witness search, rates of metastability, the rate-transformation calculus,
and adversarial refutation of candidate uniform rates.

A witness for a net at tolerance ``eps`` under a sampling ``eta`` is an
index ``i`` whose candidate set ``eta_i`` has all pairwise distances at most
``eps`` (pointed variant: all distances to a fixed target point).  A
:class:`Rate` records, per (threshold, sampling), a finite set of indices
promised to contain a witness for every member of some family of nets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import families as _families
from .families import RefutationCertificate
from .net import CheckError, StackedFamily, eps_floor, first_far_pair, require_eps, run_maxima, runs_within, stacked
from .net import tail_maxima, tails_within, targets_within
from .order import (
    Sampling,
    WindowError,
    _above,
    _positions,
    induced_sampling,
    project_set,
    require_valid_sampling,
)

__all__ = [
    "Rate",
    "RateError",
    "WitnessReport",
    "RefutationCertificate",
    "DEFAULT_THRESHOLDS",
    "is_witness",
    "is_pointed_witness",
    "find_witness",
    "find_pointed_witness",
    "build_rate",
    "verify_rate",
    "pointed_to_plain",
    "selfdist_rate_to_net_rate",
    "sampling_independent_bound",
    "replay_certificate",
    "require_replay",
    "refute_uniform",
]

#: Default dyadic threshold grid 1, 1/2, ..., 2^-10 (descending).
DEFAULT_THRESHOLDS = tuple(2.0 ** -i for i in range(11))


class RateError(ValueError):
    """Raised for malformed rates or missing rate entries."""


def is_witness(a, eps, eta, i):
    """Whether ``i`` witnesses plain [eps, eta]-metastability of ``a``."""
    return _first_witness(a, require_eps(eps), eta, [a.window.index(i)]) is not None


def is_pointed_witness(a, b, eps, eta, i):
    """Whether ``i`` witnesses [eps, eta]-metastability of ``a`` near ``b``."""
    return _first_witness(a, require_eps(eps), eta, [a.window.index(i)], a.space.require(b)) is not None


def _within(space, values, eps, block, target=None):
    # The one witness test, unchecked: every pair of a member's values (a row, as
    # given) at the block's positions (each read once) within eps, or every one within eps of target.
    dist, points = space.unchecked_dist, [values[p] for p in block]
    if target is None:
        return all(dist(x, y) <= eps for x, y in itertools.combinations(points, 2))
    return all(dist(x, target) <= eps for x in points)


def _first_witness(a, eps, eta, positions, target=None):
    # The one witness scan: the element at the first of ``positions`` whose block passes _within, else None.
    if eta.window != a.window:
        raise WindowError("sampling and net live on different windows")
    values, space, elements = a.values, a.space, a.window.elements  # read once per scan
    return next((elements[p] for p in positions if _within(space, values, eps, eta.block(p), target)), None)


def find_witness(a, eps, eta):
    """First index (enumeration order) witnessing [eps, eta]-metastability, else None."""
    return _first_witness(a, require_eps(eps), eta, range(len(a.window)))


def find_pointed_witness(a, b, eps, eta):
    """Pointed analogue of :func:`find_witness`, measured against ``b``."""
    return _first_witness(a, require_eps(eps), eta, range(len(a.window)), a.space.require(b))


# -- rates -----------------------------------------------------------------


@dataclass(frozen=True)
class Rate:
    """Finite-grid rate of (pointed) metastability.

    ``thresholds`` is a strictly descending tuple of finite positive reals;
    ``samplings`` maps sampling ids to the rate's valid samplings, at least
    one and all on one window (checked here, so decoded rates are too);
    ``table`` maps (threshold, sampling id) to a nonempty candidate set,
    its labels checked as given and held as a frozenset.  Lookup at an
    arbitrary eps uses the largest listed threshold <= eps: a rate valid
    at a finer tolerance is valid at any coarser one.
    """

    thresholds: tuple
    samplings: Mapping[str, Sampling]
    table: Mapping[tuple, frozenset]
    pointed: bool = False

    def __post_init__(self):
        if not self.thresholds:
            raise RateError("rate needs a nonempty threshold grid")
        for t in self.thresholds:
            require_eps(t)
        if list(self.thresholds) != sorted(set(self.thresholds), reverse=True):
            raise RateError("thresholds must be strictly descending")
        windows = {eta.window for eta in self.samplings.values()}
        if len(windows) != 1:
            raise RateError("rate needs at least one sampling, all on one window")
        for eta in self.samplings.values():
            require_valid_sampling(eta)
        for (t, sid), candidates in self.table.items():
            if t not in self.thresholds:
                raise RateError(f"table threshold {t} not in the grid")
            if sid not in self.samplings:
                raise RateError(f"table sampling id {sid!r} is unregistered")
            if not candidates:
                raise RateError(f"empty candidate set at ({t}, {sid!r})")
            self.window._indices(candidates)
        object.__setattr__(self, "table", {key: frozenset(c) for key, c in self.table.items()})  # a set merges True into 1

    @property
    def window(self):
        return next(iter(self.samplings.values())).window

    def lookup(self, eps, sid):
        """Candidate set for ``eps`` under sampling id ``sid`` (largest threshold <= eps)."""
        if sid not in self.samplings:
            raise RateError(f"sampling id {sid!r} is unregistered")
        for t in self.thresholds:  # descending: the first usable one is the largest
            if t <= eps and (t, sid) in self.table:
                return self.table[(t, sid)]
        raise RateError(f"no rate entry for eps={eps} under sampling {sid!r}")


def build_rate(samplings, fn, thresholds=DEFAULT_THRESHOLDS, pointed=False):
    """Tabulate a rate from a function (threshold, sampling) -> candidate set."""
    samplings = dict(samplings)
    table = {
        (t, sid): frozenset(fn(t, eta))
        for t in thresholds
        for sid, eta in samplings.items()
    }
    return Rate(tuple(thresholds), samplings, table, pointed=pointed)


@dataclass(frozen=True)
class WitnessReport:
    """Per-family verification outcome for one (eps, sampling) cell."""

    eps: float
    sampling_id: str
    window_size: int
    outcomes: tuple  # one witness index or None per net

    @property
    def overall(self):
        """Whether every net has a witness."""
        return None not in self.outcomes


def verify_rate(family, rate, eps, sid):
    """Check that the rate's candidate set under sampling id ``sid`` covers every net in the family.

    ``family`` is a StackedFamily or a nonempty list of nets, stacked once.
    In pointed mode every net must carry a declared target; witnesses are
    then measured against it.  The report records one witness (or None)
    per net, in family order.  All members are decided at once, exact as
    the pairwise test: each candidate's block by the block decision kernel
    :func:`~metastable.net.runs_within` (pointed: each of its values by
    :func:`~metastable.net.targets_within`) against ``eps_floor(eps)``.
    """
    return _verify_reports(family, rate, eps, [sid])[0]


def _verify_reports(family, rate, eps, sids):
    # verify_rate's report for each of sids, in order: the candidates' blocks of every sid decided by one kernel call.
    cells = [(rate.lookup(eps, sid), rate.samplings[sid]) for sid in sids]
    window, pointed = rate.window, rate.pointed
    bound = eps_floor(require_eps(eps))
    family = stacked(family)
    if family.window != window:
        raise WindowError("family nets and rate live on different windows")
    if pointed and None in family.targets:
        raise RateError("pointed verification needs a declared target on every net")
    labels, starts, runs = [], [], []  # every sid's candidates in turn, each sid's in ascending positions
    for candidates, sampling in cells:
        positions = window._indices(candidates := list(candidates))
        starts.append(len(labels))
        labels += [candidates[k] for k in np.argsort(positions).tolist()]
        chosen = np.bincount(positions, minlength=len(window)) > 0  # ascending positions: the blocks keep the sampling's order
        runs.append((sampling.flat[np.repeat(chosen, sampling.sizes)], sampling.sizes[chosen]))
    flat, sizes = map(np.concatenate, zip(*runs))
    if pointed:  # every value of a block within eps of its member's target
        ok = run_maxima(targets_within(family, bound), flat, sizes, np.minimum)
    else:
        ok = runs_within(family, [bound], flat, sizes)[:, 0]
    # Per sid and member, the first witness's place in labels; len(labels), read as None, where there is none.
    first = np.minimum.reduceat(np.where(ok, np.arange(len(labels)), len(labels)), starts, axis=1).T.tolist()
    labels.append(None)
    return [WitnessReport(eps, sid, len(window), tuple(map(labels.__getitem__, f))) for sid, f in zip(sids, first)]


def pointed_to_plain(rate):
    """Plain rate from a pointed one: the entry at eps comes from eps/2.

    A pointed witness at eps/2 is a plain witness at eps by the triangle
    inequality through the target.  Output thresholds are those grid
    points whose half also lies on the grid.
    """
    if not rate.pointed:
        raise RateError("input rate is not pointed")
    grid = set(rate.thresholds)
    out_thresholds = tuple(t for t in rate.thresholds if t / 2 in grid)
    if not out_thresholds:
        raise RateError("no threshold has its half on the grid")
    table = {}
    for t in out_thresholds:
        for sid in rate.samplings:
            if (t / 2, sid) in rate.table:
                table[(t, sid)] = rate.table[(t / 2, sid)]
    return Rate(out_thresholds, dict(rate.samplings), table, pointed=False)


def selfdist_rate_to_net_rate(rate, d, base_samplings):
    """Turn a pointed-near-0 rate for a self-distance net into a net rate.

    ``rate`` must live on product(d, d) and be indexed exactly by the
    samplings induced (via the join of ``d``) from ``base_samplings``,
    under the same ids.  Each candidate set of pairs is projected through
    the join; the result is a plain rate on ``d``.
    """
    if not rate.pointed:
        raise RateError("self-distance rate must be pointed (near 0)")
    base_samplings = dict(base_samplings)
    if set(base_samplings) != set(rate.samplings):
        raise RateError("base sampling ids do not match the rate's sampling ids")
    for sid, eta in base_samplings.items():
        if rate.samplings[sid] != induced_sampling(eta, d):
            raise RateError(f"rate sampling {sid!r} is not induced from its base sampling")
    table = {
        (t, sid): project_set(candidates, d)
        for (t, sid), candidates in rate.table.items()
    }
    return Rate(rate.thresholds, base_samplings, table, pointed=False)


def sampling_independent_bound(rate):
    """Upper bound (by repeated join) of each threshold's candidate set.

    Requires the candidate sets at each threshold to agree across all
    registered samplings.  Any family verified by such a rate is
    tail-close within eps above the returned index.
    """
    w = rate.window
    bounds = {}
    for t in rate.thresholds:
        sets = [rate.table[(t, sid)] for sid in rate.samplings if (t, sid) in rate.table]
        if not sets:
            continue
        if any(s != sets[0] for s in sets[1:]):
            raise RateError(f"candidate sets at threshold {t} depend on the sampling")
        bounds[t] = w.join_all(sets[0])
    return bounds


# -- refutation ------------------------------------------------------------


def replay_certificate(cert):
    """Re-run a certificate through the witness checker; True iff it holds."""
    eps, member, target = require_eps(cert.eps), cert.member, cert.pointed_target
    require_valid_sampling(cert.sampling)
    if target is not None:
        member.space.require(target)
    positions = _positions(member.window, list(cert.candidate_set))
    if cert.sampling.window != member.window or -1 in positions:
        return False
    return _first_witness(member, eps, cert.sampling, positions, target) is None


def require_replay(cert):
    """Return ``cert`` if it replays, else raise :class:`CheckError`."""
    if not replay_certificate(cert):
        raise CheckError("certificate does not replay")
    return cert


def refute_uniform(family, candidate_sets, eps, pointed=False):
    """First member defeated on every candidate set, with its certificate.

    ``family`` is a FamilySpec (closed forms are replayed for C and pointed
    D; otherwise its enumeration is read lazily in stacked chunks, up to
    ``families.FAMILY_MEMBER_CAP`` members), a StackedFamily, or a
    nonempty iterable of nets on one window and one space, stacked whole.
    The members live on the spec's window (a list's first member's); a
    list member on another window, or a candidate that is not one of its
    elements as given (``True`` and ``1.0`` name no int), raises
    WindowError up front.  A certificate defeats a set holding no
    (pointed) witness; defeating the union defeats every listed set.

    Samplings are chosen index by index, so the question is exact per
    member: ``a`` is defeated on the union iff the up-set of each of its
    indices has a pair at distance > eps (pointed: a point at distance
    > eps from the target), and that pair (point) is the index's block in
    the certificate; other indices get {i}.  Every member of a chunk is
    decided at once, by :func:`~metastable.net.tails_within` at the union's
    positions only (pointed: :func:`~metastable.net.targets_within` over each
    up-set); the first defeated member's blocks are read off its row of the
    chunk, and only it leaves, as a view of that row.  Returns None when none is.
    """
    require_eps(eps)
    candidate_sets = [tuple(s) for s in candidate_sets]  # as given: a set would merge True into 1
    if not candidate_sets or any(not s for s in candidate_sets):
        raise ValueError("candidate sets must be given and nonempty")
    is_spec = isinstance(family, _families.FamilySpec)
    if is_spec:
        # Enumerated members live on the spec's window and carry targets; read lazily, chunk by chunk.
        window, chunks = family.window, _families.stacked_members(family)
    else:
        family = family if isinstance(family, StackedFamily) else list(family)  # a list's member returns as the caller's net
        chunks = [stacked(family)]
        window = chunks[0].window
        if pointed and None in chunks[0].targets:
            raise RateError("pointed refutation needs declared targets")
    positions = window._indices(itertools.chain.from_iterable(candidate_sets))
    union = frozenset().union(*candidate_sets)
    if is_spec and (cert := _families.closed_form_refutation(family, union, eps, pointed=pointed)):
        return require_replay(cert)
    # The top's up-set is itself, so a union holding it defeats no member in
    # the plain case, and pointed only one far from its target there: no C member.
    top = window.top()
    if top in union and (not pointed or is_spec and family.tag == "C"):
        return None
    bound, read = eps_floor(eps), np.bincount(positions, minlength=len(window)) > 0
    for chunk in chunks:
        # Per member and index: whether its up-set lies within eps (pointed: of the target).
        close = targets_within(chunk, bound) if pointed else None
        near = tail_maxima(window, close, np.minimum) if pointed else tails_within(chunk, [eps], read)[:, 0]
        defeated = np.flatnonzero(~(near & read).any(axis=1))
        if defeated.size:
            a = (chunk if is_spec else family)[k := int(defeated[0])]
            blocks = {p: _far_block(chunk, k, bound, p, close) for p in np.flatnonzero(read).tolist()}
            eta = Sampling._with_blocks(window, blocks)
            return require_replay(RefutationCertificate(eps, eta, a, union, pointed_target=a.target if pointed else None))
    return None


def _far_block(s, k, bound, p, close):
    # The ascending positions at which row k of s (defeated at p) lies beyond bound over p's up-set: pointed
    # (``close`` is targets_within(s, bound)), the first position far from the target; else a pair that far
    # apart, the largest and smallest value on scalar spaces, otherwise the first in combinations order.
    up = np.flatnonzero(_above(s.window, p, np.arange(len(s.window))))
    if close is not None:
        far = [up[close[k, up].argmin()]]
    elif s.space.is_scalar():
        x = s.array[k, up]
        far = [up[x.argmax()], up[x.argmin()]]
    else:
        far = first_far_pair(s, k, bound, up)
    return sorted(map(int, far))
