"""The canonical example families of binary nets and their certificates.

Four families over a window:

* ``B``: non-increasing {0,1}-valued nets.  Admits a two-element uniform
  rate per sampling (:func:`rate_B`) that is independent of the tolerance.
* ``B0``: B minus the constant-1 net; every member is eventually zero, yet
  no uniform *pointed* rate near 0 exists.
* ``C``: all eventually-zero {0,1}-valued nets.  Not uniformly metastable
  at all; :func:`refute_C` produces a replayable counterexample for any
  candidate set with room above it.
* ``D``: one net per cutoff alpha on a chain, zero at even indices up to
  alpha and one elsewhere.  All members converge to 1 but no pointed
  uniform rate exists (:func:`refute_D_pointed`).

:func:`paracompact_nets` instantiates, on a finite discrete point set, the
bump-function construction whose per-point iterate sequences reproduce the
D-pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .net import CheckError, Net, StackedFamily, require_eps
from .order import (
    DirectedWindow,
    Sampling,
    WindowError,
    make_omega_window,
    successor_sampling,
    up_runs,
)
from .space import binary_space, unit_interval_space

__all__ = [
    "FamilySpec",
    "FamilyError",
    "enumerate_family",
    "stacked_members",
    "stack_family",
    "rate_B",
    "refute_C",
    "refute_D_pointed",
    "paracompact_nets",
    "closed_form_refutation",
    "RefutationCertificate",
    "BRUTE_FORCE_CAP",
    "FAMILY_MEMBER_CAP",
    "FAMILY_VALUE_CAP",
]

#: Largest non-chain window on which B and B0 filter every binary assignment.
BRUTE_FORCE_CAP = 16
#: Most members :func:`enumerate_family` yields before raising FamilyError.
#: Family C has 2**(n-1) members on n elements, so it is refused above
#: n = 13, and a paracompact spec may ask for at most this many points.
FAMILY_MEMBER_CAP = 4096
#: Most values (members times window elements) :func:`stack_family` builds at once.
FAMILY_VALUE_CAP = 2**24
#: Values in one chunk of members that :func:`stacked_members` builds at a time.
CHUNK_VALUES = 2**12

TAGS = ("B", "B0", "C", "D", "paracompact")


class FamilyError(ValueError):
    """Raised for invalid family parameters or windows too small to refute."""


@dataclass(frozen=True)
class FamilySpec:
    """A family tag, the window all its members live on (a chain for D and paracompact), and parameters."""

    tag: str
    window: DirectedWindow
    parameters: Mapping = field(default_factory=dict)

    def __post_init__(self):
        # A parameter of the wrong type raises TypeError (a schema error when
        # decoded), one out of range FamilyError, so every spec has a member.
        if self.tag not in TAGS:
            raise FamilyError(f"unknown family tag {self.tag!r}")
        alphas, n_points = self.parameters.get("alphas", (0,)), self.parameters.get("n_points", 1)
        if not isinstance(alphas, (list, tuple, range)) or any(type(v) is not int for v in (*alphas, n_points)):
            raise TypeError("alphas must be a list of ints and n_points an int")
        if n_points < 1 or not alphas or any(not 0 <= a < len(self.window) for a in alphas):
            raise FamilyError("n_points must be positive and alphas nonempty positions of the window")
        if self.tag in ("D", "paracompact") and not self.window.is_chain():
            raise FamilyError(f"family {self.tag} needs a chain window")
        if self.tag == "paracompact" and self.n_points > FAMILY_MEMBER_CAP:
            raise FamilyError(
                f"paracompact n_points = {self.n_points} exceeds FAMILY_MEMBER_CAP = {FAMILY_MEMBER_CAP}"
            )

    @property
    def n_points(self):
        """Points of a paracompact family: the ``n_points`` parameter, else the window size."""
        return self.parameters.get("n_points", len(self.window))

    @property
    def alphas(self):
        """Cutoffs of a D family: the ``alphas`` parameter, else every window position."""
        return self.parameters.get("alphas", range(len(self.window)))

    @property
    def member_count(self):
        """Members, counted without building one; None for B and B0 off chains (see BRUTE_FORCE_CAP)."""
        n = len(self.window)
        if self.tag == "C":
            return 2 ** (n - 1)
        if self.tag == "D":
            return len(self.alphas)
        if self.tag == "paracompact":
            return self.n_points
        return (n + 1 if self.tag == "B" else n) if self.window.is_chain() else None


@dataclass(frozen=True)
class RefutationCertificate:
    """Self-contained evidence that a candidate set contains no witness.

    Replaying the certificate re-checks, index by index, that no element
    of ``candidate_set`` witnesses the (pointed) [eps, eta]-metastability
    of ``member``.
    """

    eps: float
    sampling: Sampling
    member: Net
    candidate_set: frozenset
    pointed_target: object = None


def _nonincreasing(window, values):
    # Per member (values: positions on the last axis): adjacent positions on
    # a chain; elsewhere each element against its up-set.
    x = np.asarray(values)
    if window.is_chain():
        return (x[..., :-1] >= x[..., 1:]).all(axis=-1)
    ok, (flat, sizes) = True, up_runs(window)
    for p, up in enumerate(np.split(flat, np.cumsum(sizes)[:-1])):
        ok = ok & (x[..., [p]] >= x[..., up]).all(axis=-1)
    return ok


def _eventually_zero(window, values):
    # Zero on some up-set iff zero at the greatest element, whose up-set is itself.
    return np.asarray(values)[..., window.index(window.top())] == 0


def _require(invariant, values):
    # One verdict per member: for one member's values, or for each row of an array of them.
    bad = np.flatnonzero(~np.atleast_1d(invariant))
    if bad.size:
        raise CheckError(f"constructed member {np.atleast_2d(values)[bad[0]].tolist()} breaks its family invariant")


def _stack(window, space, x, targets):
    # Members built as a pattern array, their values the array's own (binary ints, floats).
    targets = targets.tolist() if isinstance(targets, np.ndarray) else [targets] * len(x)
    return StackedFamily(window, space, x.astype(float), targets)


def _chunks(items, size):
    # Consecutive slices of ``size`` items, as float arrays; ``items`` (a range)
    # may be too long for len().  Items are window positions, point counts or
    # ranks below the member cap plus one chunk, so every one is exact.
    for lo in itertools.count(0, size):
        part = items[lo:lo + size]
        if not len(part):
            return
        yield np.asarray(part, float)


def _bits(r, width):
    # The binary digits of each r (below 2**53), most significant first, ``width`` per row, as floats.
    k = min(width, 53)
    x = np.zeros((len(r), width))
    x[:, width - k:] = (r.astype(np.int64)[:, None] >> np.arange(k - 1, -1, -1)) % 2
    return x


def d_member(window, alpha):
    """The cutoff-alpha net on a chain: 0 at even indices <= alpha, 1 elsewhere.

    Index 0 counts as even.  Every value above alpha is 1, so the member
    converges to 1 within the window; its declared target is 1.
    """
    return next(_members(FamilySpec("D", window, {"alphas": [alpha]}), 1))[0]


def enumerate_family(spec):
    """Yield exactly the members of the tagged family on the spec's window.

    Members are built a chunk at a time (see :func:`stacked_members`), and
    each chunk is re-checked against its family invariant.  Asking for
    member ``FAMILY_MEMBER_CAP + 1`` raises FamilyError, so every caller
    sees the same cap.
    """
    for chunk in stacked_members(spec):
        yield from chunk


def stacked_members(spec):
    """The members of ``spec`` in enumeration order, as StackedFamily chunks
    of about CHUNK_VALUES values each.  Asking for a chunk past member
    ``FAMILY_MEMBER_CAP`` raises FamilyError.
    """
    count = 0
    for chunk in _members(spec, max(1, CHUNK_VALUES // len(spec.window))):
        if count + len(chunk) > FAMILY_MEMBER_CAP:
            room = FAMILY_MEMBER_CAP - count
            if room:
                yield StackedFamily(chunk.window, chunk.space, chunk.array[:room], chunk.targets[:room])
            require_member_cap(spec, FAMILY_MEMBER_CAP + 1)
        count += len(chunk)
        yield chunk


def stack_family(spec):
    """Every member of ``spec`` as one StackedFamily.

    The member count meets FAMILY_MEMBER_CAP, and times the window size
    FAMILY_VALUE_CAP, before any member is built; B and B0 off chains are
    counted once filtered (see BRUTE_FORCE_CAP), before they are returned.
    """
    require_member_cap(spec, spec.member_count or 0)
    if (spec.member_count or 0) * len(spec.window) > FAMILY_VALUE_CAP:
        raise FamilyError(f"family {spec.tag} on this window has more than FAMILY_VALUE_CAP = {FAMILY_VALUE_CAP} values")
    (family,) = _members(spec, FAMILY_MEMBER_CAP)
    require_member_cap(spec, len(family))
    return family


def require_member_cap(spec, count):
    """Raise FamilyError, naming FAMILY_MEMBER_CAP, if ``count`` members of ``spec`` exceed it."""
    if count > FAMILY_MEMBER_CAP:
        raise FamilyError(f"family {spec.tag} on this window has more than FAMILY_MEMBER_CAP = {FAMILY_MEMBER_CAP} members")


def _members(spec, size):
    # Chunks of at most ``size`` members, each an array of value patterns
    # checked once: B and B0 by cutoff on chains, and off chains by
    # filtering every binary assignment (at most BRUTE_FORCE_CAP elements)
    # in one chunk; C by the digits of its lexicographic rank, with 0 at the
    # top, on every window; D and paracompact by parity below a cutoff.
    # Patterns are built and compared as floats, the numpy loops the kernels
    # run anyway: int and bool comparisons would map more of numpy's library.
    window, tag, n = spec.window, spec.tag, len(spec.window)
    pos, odd = np.arange(n, dtype=float), (np.arange(n) % 2).astype(bool)
    if tag == "paracompact":  # the iterate net at point x_p: 0 exactly at the odd steps i <= p
        for p in _chunks(range(spec.n_points), size):
            yield _stack(window, unit_interval_space(), ~odd | (pos > p[:, None]), 1.0)
    elif tag == "D":
        for alpha in _chunks(spec.alphas, size):
            yield _stack(window, binary_space(), odd | (pos > alpha[:, None]), 1)
    elif tag == "C":
        t = window.index(window.top())
        for r in _chunks(range(2 ** (n - 1)), size):
            x = np.insert(_bits(r, n - 1), t, 0, axis=1)
            _require(_eventually_zero(window, x), x)
            yield _stack(window, binary_space(), x, 0)
    elif window.is_chain():
        for cutoff in _chunks(range(n, -1, -1) if tag == "B" else range(n - 1, -1, -1), size):
            x = (pos < cutoff[:, None]).astype(float)
            _require(_nonincreasing(window, x), x)
            yield _stack(window, binary_space(), x, (cutoff == n).astype(int))
    elif n > BRUTE_FORCE_CAP:
        raise FamilyError(
            f"enumeration of {tag} on a non-chain window is capped at {BRUTE_FORCE_CAP} elements"
        )
    else:
        x = _bits(np.arange(2.0**n), n)
        ones = x.all(axis=1)
        x = x[_nonincreasing(window, x) & ~(ones & (tag == "B0"))]
        yield _stack(window, binary_space(), x, x.all(axis=1).astype(int))


def _require_refutation_eps(eps):
    # Closed-form refuters separate 0 from 1, so eps must also lie below 1.
    if require_eps(eps) >= 1:
        raise FamilyError("refutation needs eps strictly between 0 and 1")


def _candidate_set(s, window):
    s = tuple(s)  # as given: a set would merge True into 1
    if not s:
        raise FamilyError("candidate set must be nonempty")
    return frozenset(window.elements[p] for p in map(window.index, s))


def rate_B(eta, window):
    """The two-element uniform candidate set for the non-increasing family.

    k is the first window element; l is an upper bound of eta_k.  For any
    tolerance below the space diameter, a non-increasing {0,1} net is
    either constant on eta_k (k witnesses) or hits 0 there, in which case
    monotonicity makes it identically 0 on eta_l (l witnesses).
    """
    if eta.window != window:
        raise WindowError("sampling does not live on the given window")
    k = window.elements[0]
    l = window.join_all(eta.at(k))
    return frozenset({k, l})


def refute_C(s, window, eps):
    """Certificate that no subset of ``s`` uniformly covers family C.

    Picks k strictly above the join of ``s`` and l strictly above k, sets
    eta_i = {k, l} on ``s`` (identity elsewhere), and takes the member
    that is 1 at k and 0 everywhere else.  Every i in ``s`` then samples a
    pair at distance 1.
    """
    _require_refutation_eps(eps)
    s = _candidate_set(s, window)
    bound = window.join_all(s)
    k = next(iter(window.strictly_above(bound)), None)
    l = next(iter(window.strictly_above(k)), None) if k is not None else None
    if l is None:
        raise FamilyError("window has no two elements strictly above the candidate set")
    kp = window.index(k)  # l lies above the join too, so it is listed after k, the first such
    eta = Sampling._with_blocks(window, dict.fromkeys(window._indices(s).tolist(), [kp, window.index(l)]))
    values = (0,) * kp + (1,) + (0,) * (len(window) - kp - 1)
    member = Net(window, binary_space(), values, target=0)
    _require(_eventually_zero(window, member.array), member.array)
    return RefutationCertificate(eps, eta, member, s, pointed_target=None)


def refute_D_pointed(s, window, eps=0.5):
    """Certificate that no subset of ``s`` is a pointed uniform rate for D.

    Uses the successor sampling eta_i = {i, i+1} (clipped at the top) and
    the member whose cutoff alpha is one position past the last of ``s``.
    For each i in ``s`` the sampled pair contains an even index <= alpha,
    where the member is 0, at distance 1 from the target 1.
    """
    _require_refutation_eps(eps)
    if not window.is_chain():
        raise FamilyError("family D needs a chain window")
    s = _candidate_set(s, window)
    n = len(window)
    alpha = max(window.index(i) for i in s) + 1
    if alpha + 1 > n - 1:
        raise FamilyError("window too small: no room for the cutoff above the candidate set")
    eta = successor_sampling(window)
    member = d_member(window, alpha)
    return RefutationCertificate(eps, eta, member, s, pointed_target=1)


def paracompact_nets(n_points, horizon):
    """Per-point iterate nets of the bump-function counterexample.

    On the discrete point set {x_0, ..., x_{m-1}} take the indicator bumps
    g_j of the singletons, their partial sums, and the everywhere-1 total
    sum; the iterates alternate between partial and total sums.  The net
    at x_p has value 1 at step i iff i is even or i > p, so each net is
    eventually constant at 1 while the family reproduces the D-pattern
    (with the roles of 0 and 1 exchanged across parity).  Returns
    ``stack_family`` of the paracompact spec on ``make_omega_window(horizon)``.
    """
    return stack_family(FamilySpec("paracompact", make_omega_window(horizon), {"n_points": n_points}))


def closed_form_refutation(spec, union, eps, pointed=False):
    """Replay the paper-style construction for C (plain) or D (pointed).

    Returns a certificate or None (meaning: fall back to the exact search
    over the enumeration).  These two stay closed forms: C has 2**(n-1)
    members, and D's defeating cutoff lies one past the union, so the
    search would build every member below it.  D's certificate counts only
    if its member is listed: cutoffs alpha and alpha ^ 1 give the same net.
    """
    window = spec.window
    try:
        if spec.tag == "C" and not pointed:
            return refute_C(union, window, eps)
        if spec.tag == "D" and pointed:
            cert = refute_D_pointed(union, window, eps)
            cutoff = max(map(window.index, union)) + 1
            return cert if cutoff in spec.alphas or cutoff ^ 1 in spec.alphas else None
    except FamilyError:
        return None
    return None
