"""Directed sets presented as finite windows, their products, and samplings.

A :class:`DirectedWindow` is a finite, explicitly enumerated fragment of a
directed set together with its partial order and a chosen explicit
upper-bound operation (``join``).  Windows are truncations: every quantifier
in this library ("for every index", "for every sampling") ranges over the
window only.  A :class:`Sampling` assigns to each index a nonempty finite
subset of its up-set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

__all__ = [
    "DirectedWindow",
    "Sampling",
    "WindowError",
    "SamplingViolation",
    "make_omega_window",
    "make_custom_window",
    "product",
    "validate_sampling",
    "require_valid_sampling",
    "identity_sampling",
    "successor_sampling",
    "doubling_sampling",
    "random_sampling",
    "random_samplings",
    "induced_sampling",
    "project_set",
]

OMEGA = "omega-window"
PRODUCT = "product-window"
CUSTOM = "custom"
_INT, _BOOLS, _FLOATS = frozenset({int}), (bool, np.bool_), (float, np.floating)  # label types the label rule reads


class WindowError(ValueError):
    """Raised when a window or sampling is structurally invalid."""


#: Most elements of an omega or product window, checked before any is built.
WINDOW_CAP = 2**20


def _require_window_size(n):
    if n > WINDOW_CAP:
        raise WindowError(f"a window of {n} elements exceeds WINDOW_CAP = {WINDOW_CAP}")


class DirectedWindow:
    """Finite fragment of a directed set with order and explicit join.

    Instances are immutable.  Omega windows and product windows are valid
    by construction; custom windows are fully validated when built
    (reflexivity, antisymmetry, transitivity, and that ``join`` is an
    upper bound; its table holds element positions, so it stays inside).
    """

    __slots__ = ("kind", "_elements", "_index", "_factors", "_order", "_joins", "_chain", "_leaves", "_top")

    def __init__(self, kind, elements, factors=None, leq_matrix=None, join_table=None):
        self.kind = kind
        self._elements = elements if kind == OMEGA else tuple(elements)  # an omega window's range(n): element p is p
        self._index = None if kind == OMEGA else {e: p for p, e in enumerate(self._elements)}
        self._factors = factors
        self._order = None if leq_matrix is None else np.array(leq_matrix, bool)  # what _above reads
        self._joins = None if join_table is None else np.array(join_table, np.intp)  # what _join reads
        if not self._elements:
            raise WindowError("window must be nonempty")
        if kind != OMEGA and len(self._index) != len(self._elements):
            raise WindowError("duplicate window elements")
        if kind != OMEGA and None in self._index:  # None stands for "no index" in every answer
            raise WindowError("None cannot be a window element")
        # The window as a product of leaves, (size, order) each, a product's its factors' in turn: positions are C order
        # over them, and an up-set is the product of theirs.  A leaf's order is None on a chain, else its own matrix.
        chain = leq_matrix is None or np.array_equal(self._order, np.triu(np.ones_like(self._order)))
        self._leaves = factors[0]._leaves + factors[1]._leaves if factors else ((len(self), None if chain else self._order),)
        # C order over the leaves follows a chain's order only when every leaf is one and at most one is longer than 1.
        self._chain = self.grid_shape() is not None and sum(k > 1 for k, _ in self._leaves) <= 1
        self._top = (factors[0]._top, factors[1]._top) if factors else (
            self._elements[-1] if self._chain else self.join_all(self._elements))

    # -- structure ---------------------------------------------------------

    @property
    def elements(self):
        """Elements in canonical enumeration order: ``range(n)`` on an omega window, else a tuple."""
        return self._elements

    @property
    def factors(self):
        """Factor windows of a product window, else None."""
        return self._factors

    def index(self, a):
        """Position of the element ``a`` names (see ``in``), in enumeration order."""
        (p,) = _positions(self, [a])
        if p < 0:
            raise WindowError(f"{a!r} is not an element of this window")
        return p

    def _indices(self, labels):
        # index of each label, as an array, from one call of the rule; index raises for the first naming none.
        p = _positions(self, labels := list(labels))
        return np.array(p, np.intp) if -1 not in p else self.index(labels[p.index(-1)])

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, a):
        """Whether ``a`` names an element; never raises (see ``_positions``)."""
        return _positions(self, [a])[0] >= 0

    def leq(self, a, b):
        """Whether ``a`` precedes (or equals) ``b`` in the window order."""
        return bool(_above(self, self.index(a), self.index(b)))

    def join(self, a, b):
        """The chosen explicit upper bound of ``a`` and ``b``, an element of the window (``_join`` of their positions)."""
        return self._elements[_join(self, self.index(a), self.index(b))]

    def join_all(self, items):
        """Upper bound of a nonempty collection, by repeated join.

        Items are joined in enumeration order, a repeated item as often as
        given, so the result is deterministic regardless of input ordering.
        """
        positions = np.sort(self._indices(items)).tolist()
        if not positions:
            raise WindowError("join_all of empty collection")
        return self._elements[reduce(partial(_join, self), positions)]

    def up_set(self, a):
        """All elements ``b`` with ``a`` <= ``b``, in enumeration order, read off positions."""
        return tuple(itertools.compress(self._elements, _above(self, self.index(a), np.arange(len(self)))))

    def strictly_above(self, a):
        """Elements strictly above ``a``, in enumeration order, read off positions."""
        p, q = self.index(a), np.arange(len(self))
        return tuple(itertools.compress(self._elements, _above(self, p, q) & (q != p)))

    def is_chain(self):
        """Whether the window is a chain listed in its own order.

        True exactly when ``leq(a, b)`` iff ``index(a) <= index(b)``; fixed
        at construction.  A total order listed out of order is not a chain
        here, because chain-only code reads tails and cutoffs off
        enumeration positions.
        """
        return self._chain

    def grid_shape(self):
        """Leaf sizes of a grid (a window whose leaves are chains, so its up-sets are orthants), else None."""
        return None if any(order is not None for _, order in self._leaves) else tuple(k for k, _ in self._leaves)

    def top(self):
        """The greatest element: a product's factors' pair, a chain's last, else the join of all; fixed at construction."""
        return self._top

    def validate(self):
        """Re-verify the partial-order and majorization invariants (omega and product windows satisfy them
        by construction) by boolean-matrix passes over the order matrix, its rows as bits, and every pair's ``_join``."""
        els, p = self._elements, np.arange(len(self))
        above = _above(self, p[:, None], p)
        if not above.diagonal().all():
            raise WindowError(f"order not reflexive at {els[np.argmin(above.diagonal())]!r}")
        both = np.argwhere(np.triu(above & above.T, 1))
        if len(both):
            raise WindowError(f"order not antisymmetric on {els[both[0, 0]]!r}, {els[both[0, 1]]!r}")
        rows, lacks, broken = np.packbits(above, axis=1), np.packbits(~above, axis=1), np.zeros(len(p), bool)
        for b in p:  # a <= b whose row has a bit that a's row lacks: some c has a <= b <= c, not a <= c
            broken |= above[:, b] & (rows[b] & lacks).any(axis=1)
        if broken.any():
            a = broken.argmax()
            b, c = np.argwhere(above[a][:, None] & above & ~above[a])[0]
            raise WindowError(f"order not transitive on {els[a]!r}, {els[b]!r}, {els[c]!r}")
        join = _join(self, p[:, None], p)
        bad = np.argwhere(~(above[p[:, None], join] & above[p, join]))
        if len(bad):
            a, b = bad[0]
            raise WindowError(f"join({els[a]!r},{els[b]!r}) = {els[join[a, b]]!r} is not an upper bound")

    # -- equality is structural -------------------------------------------

    def _key(self):
        if self.kind != CUSTOM:  # a product is its factors, an omega window its range
            return (self.kind, self._factors or self._elements)
        return (self.kind, self._elements, self._order.tobytes(), self._joins.tobytes())

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, DirectedWindow):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DirectedWindow({self.kind}, n={len(self)})"


def _positions(w, labels):
    # The one label rule, for a list of labels: the position of the element each names, else -1.  A label
    # names an element it equals only as written: a bool names only a bool and a float only a float, numpy's
    # too, through tuples, so ``True`` and ``1.0`` name no omega element.  An unhashable label names none.
    n = len(w._elements)
    if w._index is None and _INT.issuperset(map(type, labels)):  # omega: exact ints take one range test
        return labels if not labels or 0 <= min(labels) and max(labels) < n else [a if 0 <= a < n else -1 for a in labels]
    return [_named(w, a) for a in labels]


def _named(w, a):
    # One label past the range test, found as a dict finds it (by hash, then ==; omega element p hashes to p), and
    # kept if of the element's kind; the identity and type tests only spare _same_kind's calls.  No element is None.
    try:
        p = hash(a) if w._index is None else w._index.get(a, -1)
        e = w._elements[p] if 0 <= p < len(w._elements) and (w._index is not None or p == a) else None
    except TypeError:  # unhashable
        return -1
    return p if e is not None and (a is e or type(a) is type(e) is not tuple or _same_kind(a, e)) else -1


def _same_kind(x, e):
    # For equal labels: whether bools meet only bools and floats only floats (numpy's too), through tuples.
    if type(e) is tuple:
        return all(map(_same_kind, x, e))
    return type(x) is type(e) or isinstance(x, _BOOLS) is isinstance(e, _BOOLS) and isinstance(x, _FLOATS) is isinstance(e, _FLOATS)


def make_omega_window(n):
    """Chain window 0 < 1 < ... < n-1 with join = max."""
    if type(n) is not int:
        raise TypeError(f"omega window size must be an int, got {n!r}")
    if n < 1:
        raise WindowError("omega window needs at least one element")
    _require_window_size(n)
    return DirectedWindow(OMEGA, range(n))


def make_custom_window(elements, leq, join):
    """Build a fully validated window from explicit order data.

    ``leq`` is a predicate or a matrix of 0, 1, True or False indexed by
    element position; ``join`` is a binary callable on elements or a
    matrix of element positions.  Callables are tabulated first, so both
    forms take one check.  Construction fails unless the order is a
    partial order and ``join`` is an upper-bound operation closed over
    the window.
    """
    elements = tuple(elements)
    n = len(elements)
    if callable(leq):
        leq = [[bool(leq(a, b)) for b in elements] for a in elements]
    if callable(join):  # -1 where the join names no element, read by the rule on a window of the elements alone
        w = DirectedWindow(CUSTOM, elements)
        join = [_positions(w, [join(a, b) for b in elements]) for a in elements]
    leq_matrix, join_table = (tuple(tuple(row) for row in m) for m in (leq, join))
    if any(len(m) != n or any(len(r) != n for r in m) for m in (leq_matrix, join_table)):
        raise WindowError("leq matrix or join table shape mismatch")
    if any(type(v) not in (int, bool) or v not in (0, 1) for row in leq_matrix for v in row):
        raise WindowError("leq matrix entries must be 0, 1, True or False")
    if any(type(v) is not int or not 0 <= v < n for row in join_table for v in row):
        raise WindowError(f"join table entries must be element positions in range({n})")
    w = DirectedWindow(CUSTOM, elements, leq_matrix=leq_matrix, join_table=join_table)
    w.validate()
    return w


def product(d, e):
    """Product window: pairs under the componentwise order and join."""
    _require_window_size(len(d) * len(e))
    return DirectedWindow(PRODUCT, itertools.product(d.elements, e.elements), factors=(d, e))


# -- samplings -------------------------------------------------------------


def _above(w, p, q):
    # The window order: whether position q is at or above p, over integer arrays; on a chain by
    # position, on a product by its factors' positions (p = p_d * |e| + p_e), else the order matrix.
    if w.is_chain():
        return q >= p
    if w.kind == PRODUCT:
        d, e = w.factors
        return _above(d, p // len(e), q // len(e)) & _above(e, p % len(e), q % len(e))
    return w._order[p, q]


def _join(w, p, q):
    # The window join over integer position arrays, as _above is its order: on an omega window the larger
    # position, on a product by its factors' positions (p = p_d * |e| + p_e), else the join table.
    if w.kind == OMEGA:
        return np.maximum(p, q)
    if w.kind == PRODUCT:
        d, e = w.factors
        return _join(d, p // len(e), q // len(e)) * len(e) + _join(e, p % len(e), q % len(e))
    return w._joins[p, q]


def _sorted_runs(flat, sizes, n):
    # Positions below n sorted within each run: a run's keys lie in a band of their own.
    base = np.repeat(np.arange(len(sizes), dtype=np.int64) * n, sizes)
    return np.sort(base + flat) - base


def _run_ranks(sizes):
    # Each entry's rank inside its run, for consecutive runs of ``sizes``.
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _leaf_runs(order):
    # The up-set of each position of a custom leaf, from its k x k order matrix, as runs: (flat, starts, sizes).
    sizes = order.sum(axis=1)
    return np.nonzero(order)[1], np.cumsum(sizes) - sizes, sizes


def _up_decode(w, owner, rank=0):
    # The position of each rank inside the up-set of its owner position, in enumeration order, and that up-set's size.
    # An up-set is the product of its leaves' (see DirectedWindow._leaves), so a rank is mixed radix over them, the
    # last leaf least significant: on a chain leaf the digit r is the coordinate c + r, and on a custom leaf it
    # indexes c's run of up-positions, read off the leaf's own matrix.
    at, size, stride = 0, 1, 1
    for k, order in reversed(w._leaves):
        owner, c = np.divmod(owner, k)
        if order is not None:
            flat, starts, sizes = _leaf_runs(order)
        side = k - c if order is None else sizes[c]
        rank, r = np.divmod(rank, side)
        at, size = at + stride * (c + r if order is None else flat[starts[c] + r]), size * side
        stride *= k
    return at, size


class Sampling:
    """Assignment of a finite candidate set to every window element.

    Held as runs of window positions: ``flat`` lists every block in turn,
    sorted within each, and ``sizes`` the block sizes in enumeration order.
    Labels appear only at the boundary: ``Sampling(window, assign)`` turns all
    its labels into positions by one call of the label rule (the first naming
    no element raises :class:`WindowError`); :meth:`block` reads a block's
    positions, and ``assign``, :meth:`at` and :meth:`items` build label sets
    on demand.  The constructor checks nothing else; use :func:`validate_sampling`.
    """

    def __new__(cls, window, assign):
        blocks = tuple(assign)
        sizes, labels = np.fromiter(map(len, blocks), np.intp, len(blocks)), itertools.chain.from_iterable(blocks)
        flat, owner = _sorted_runs(window._indices(labels), sizes, len(window)), np.repeat(np.arange(len(sizes)), sizes)
        once = np.ones(len(flat), bool)  # a label given twice counts once
        once[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
        return cls._of_runs(window, flat[once], np.bincount(owner[once], minlength=len(sizes)))

    @classmethod
    def _of_runs(cls, window, flat, sizes):
        s = object.__new__(cls)
        s.window, s.flat, s.sizes = window, np.asarray(flat, np.intp), np.asarray(sizes, np.intp)
        s.flat.flags.writeable = s.sizes.flags.writeable = False
        s._starts = np.cumsum(s.sizes) - s.sizes
        return s

    @classmethod
    def from_function(cls, window, fn):
        return cls(window, map(fn, window.elements))

    @classmethod
    def _with_blocks(cls, window, blocks):
        # The identity sampling, except that each position p in ``blocks`` gets the ascending positions blocks[p].
        sizes = np.ones(len(window), np.intp)
        sizes[list(blocks)] = list(map(len, blocks.values()))
        flat, starts = np.repeat(np.arange(len(window)), sizes), np.cumsum(sizes) - sizes
        for p, block in blocks.items():
            flat[starts[p]:starts[p] + sizes[p]] = block
        return cls._of_runs(window, flat, sizes)

    @property
    def assign(self):
        """One label set per window element, in enumeration order."""
        labels, ends = [self.window.elements[p] for p in self.flat.tolist()], np.cumsum(self.sizes).tolist()
        return tuple(frozenset(labels[a:b]) for a, b in zip([0] + ends, ends))

    def block(self, p):
        """The sorted window positions of eta at position ``p``, as a list."""
        return self.flat[self._starts[p]:self._starts[p] + self.sizes[p]].tolist()

    def at(self, element):
        """The candidate set eta_i for window element ``i``."""
        return frozenset(map(self.window.elements.__getitem__, self.block(self.window.index(element))))

    def items(self):
        """(element, candidate set) pairs in enumeration order, each set built as it is reached."""
        return ((i, self.at(i)) for i in self.window.elements)

    def _key(self):
        return (self.window, self.flat.tobytes(), self.sizes.tobytes())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Sampling) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class SamplingViolation:
    element: object
    offender: object  # None for an empty assignment
    reason: str


def validate_sampling(s):
    """Check the sampling invariants; return a list of violations (empty = ok).

    One vectorised test passes a valid sampling: every block nonempty and every position
    above its owner's.  Only one that fails it is walked label by label to list them.
    """
    w, sizes = s.window, s.sizes
    if len(sizes) != len(w):
        return [SamplingViolation(None, None, f"assign has {len(sizes)} entries for a window of {len(w)}")]
    if sizes.all() and _above(w, np.repeat(np.arange(len(w)), sizes), s.flat).all():
        return []
    violations = []
    for i, eta_i in s.items():
        if not eta_i:
            violations.append(SamplingViolation(i, None, "empty candidate set"))
        violations += [SamplingViolation(i, j, "not in the up-set") for j in eta_i if not w.leq(i, j)]
    return violations


def require_valid_sampling(s):
    violations = validate_sampling(s)
    if violations:
        raise WindowError(f"invalid sampling: {violations[:3]}{'...' if len(violations) > 3 else ''}")
    return s


def identity_sampling(window):
    """eta_i = {i}."""
    return Sampling._of_runs(window, np.arange(len(window)), np.ones(len(window), np.intp))


def _chain_sampling(window, step):
    if not window.is_chain():
        raise WindowError("this sampling is defined only on chain windows")
    p = np.arange(len(window))
    q = np.minimum(step(p), len(window) - 1)
    two = q != p  # clipped at the top: one element
    keep = np.stack((np.ones_like(two), two), axis=1).ravel()
    return Sampling._of_runs(window, np.stack((p, q), axis=1).ravel()[keep], 1 + two)


def successor_sampling(window):
    """On chains: eta_i = {i, i+1}, clipped at the top element."""
    return _chain_sampling(window, lambda p: p + 1)


def doubling_sampling(window):
    """On chains: eta_i = {i, 2i}, clipped at the top element."""
    return _chain_sampling(window, lambda p: 2 * p)


#: Most elements :func:`random_sampling` puts in one candidate set.  The output
#: bytes fix it at 3, and :func:`_draw_ranks` writes its set method out for at
#: most three picks (a test pins it).
RANDOM_BLOCK_MAX = 3
_BITS = tuple(b.bit_length() for b in range(22))  # of the bounds up to 21: the pool method's and randint's


def _draw_ranks(rng, sizes):
    """Ranks of ``rng.sample(range(m), rng.randint(1, min(RANDOM_BLOCK_MAX, m)))`` per m, flat, and counts.

    CPython's rule, on the same MT19937 words: ``_randbelow(b)`` is
    ``getrandbits(b.bit_length())``, the top bits of one 32-bit word, drawn
    again while >= b.  ``sample`` takes one of two methods, and the loop is
    written for each.  Above 21 elements (the set method) the count is
    ``randint(1, RANDOM_BLOCK_MAX)``, and each pick is drawn again while it
    repeats an earlier one: written out for at most three picks, with
    ``!=`` tests.  Up to 21 (the pool method) each pick swaps the pool's
    last entry into its place.
    """
    kmax, getrandbits, ranks, counts = RANDOM_BLOCK_MAX, rng.getrandbits, [], []
    add, count, kbits, pools = ranks.append, counts.append, _BITS[kmax], [list(range(m)) for m in range(22)]
    for m, s in zip(sizes, map(int.bit_length, sizes)):
        if m > 21:
            k = getrandbits(kbits)
            while k >= kmax:
                k = getrandbits(kbits)
            count(k + 1)
            a = getrandbits(s)
            while a >= m:
                a = getrandbits(s)
            add(a)
            if k:
                b = getrandbits(s)
                while b >= m or b == a:
                    b = getrandbits(s)
                add(b)
                if k > 1:
                    c = getrandbits(s)
                    while c >= m or c == a or c == b:
                        c = getrandbits(s)
                    add(c)
        else:
            b = m if m < kmax else kmax
            k = getrandbits(_BITS[b]) + 1
            while k > b:
                k = getrandbits(_BITS[b]) + 1
            count(k)
            pool = pools[m][:]
            for b in range(m, m - k, -1):
                j = getrandbits(_BITS[b])
                while j >= b:
                    j = getrandbits(_BITS[b])
                add(pool[j])
                pool[j] = pool[b - 1]
    return ranks, counts


def random_samplings(window, rng, count):
    """The ``count`` random valid samplings that ``count`` calls of :func:`random_sampling` would draw.

    Each eta_i is a nonempty subset of the up-set of i, decoded from ranks
    to positions by mixed radix over its leaves' up-sets (``_up_decode``).
    Positions are then sorted within each block.
    """
    n = len(window)
    q, counts = _draw_ranks(rng, _up_decode(window, np.arange(n))[1].tolist() * count)
    q, counts = np.fromiter(q, np.intp, len(q)), np.fromiter(counts, np.intp, len(counts))
    at, _ = _up_decode(window, np.repeat(np.arange(len(counts)) % n, counts), q)
    flat, edges = _sorted_runs(at, counts, n), [0, *np.cumsum(counts)[n - 1::n].tolist()]
    return [Sampling._of_runs(window, flat[edges[r]:edges[r + 1]], counts[r * n:(r + 1) * n]) for r in range(count)]


def random_sampling(window, rng):
    """One random valid sampling: :func:`random_samplings` with a count of 1."""
    return random_samplings(window, rng, 1)[0]


def induced_sampling(eta, d):
    """Sampling on product(d, d) induced via the explicit join.

    At a pair (i, j) the induced sampling is eta_{i v j} x eta_{i v j}.
    """
    require_valid_sampling(eta)
    if eta.window != d:
        raise WindowError("sampling does not live on the given window")
    n, p = len(d), np.arange(len(d))
    joins = _join(d, p[:, None], p).ravel()
    sizes = eta.sizes[joins]
    start, (i, j) = np.repeat(eta._starts[joins], sizes**2), np.divmod(_run_ranks(sizes**2), np.repeat(sizes, sizes**2))
    return Sampling._of_runs(product(d, d), eta.flat[start + i] * n + eta.flat[start + j], sizes**2)  # sorted as blocks are


def project_set(s, d):
    """Image of a set of pairs under the join: {i v j : (i, j) in s}, by one positional join."""
    firsts, seconds = [], []
    for pair in s:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise WindowError(f"{pair!r} is not a pair") from None
        firsts.append(i)
        seconds.append(j)
    return frozenset(map(d.elements.__getitem__, _join(d, d._indices(firsts), d._indices(seconds)).tolist()))
