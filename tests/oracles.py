"""Independent brute-force oracles and generators shared across tests.

These deliberately avoid the library's scan helpers: witnesses are found
by raw nested loops over freshly recomputed distances, so agreement with
the library is a two-route check rather than a tautology.
"""

import csv
import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from metastable import (
    Net,
    RefutationCertificate,
    Sampling,
    SpaceError,
    binary_space,
    make_custom_window,
    make_omega_window,
    product,
    replay_certificate,
    unit_interval_space,
)
from metastable import WindowError
from metastable.net import _run_pairs, run_maxima, stacked, tail_maxima
from metastable.space import EUCLIDEAN
from metastable.order import OMEGA, SamplingViolation, _above, _draw_ranks


def label_chain(listing):
    """Custom window on ``listing`` ordered by Python ``<=`` on the labels.

    The window is a chain in its listing order only when ``listing`` is
    sorted; any other listing gives the same total order out of order.
    """
    return make_custom_window(listing, lambda x, y: x <= y, max)


def star(k):
    """Custom window of k >= 2 elements: a bottom 0, a top k - 1 and the k - 2 between them incomparable."""
    return make_custom_window(
        range(k), lambda x, y: x == y or x == 0 or y == k - 1, lambda x, y: x if x == y else max(x, y) if 0 in (x, y) else k - 1
    )


def up_runs(w):
    """The up-set of every element of ``w`` by position, in enumeration order, as runs: (flat, sizes),
    read off the whole n x n order matrix that ``_above`` gives."""
    above = _above(w, np.arange(len(w))[:, None], np.arange(len(w)))
    return np.nonzero(above)[1], above.sum(axis=1)


def diamond():
    """Custom window bot < a, b < top with a and b incomparable."""
    pairs = {("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")}
    leq = lambda x, y: x == y or (x, y) in pairs
    join = lambda x, y: x if leq(y, x) else (y if leq(x, y) else "top")
    return make_custom_window(["bot", "a", "b", "top"], leq, join)


def windows():
    """Hypothesis strategy: omega and label chains, an out-of-order chain, a
    diamond, and k x m products of these, with products nested as factors."""
    size = st.integers(1, 5)
    base = st.one_of(
        size.map(make_omega_window),
        size.map(lambda n: label_chain([f"x{p}" for p in range(n)])),
        st.permutations(["a", "b", "c", "d"]).map(label_chain),
        st.just(diamond()),
    )
    return st.recursive(base, lambda inner: st.tuples(inner, inner).map(lambda de: product(*de)), max_leaves=3)


def leaf_windows():
    """Hypothesis strategy: :func:`windows`, beside products whose leaves mix chains with
    custom ones (stars, a diamond, out-of-order chains), nested as factors."""
    leaf = st.one_of(
        st.integers(1, 4).map(make_omega_window),
        st.integers(2, 5).map(star),
        st.just(diamond()),
        st.permutations(["a", "b", "c"]).map(label_chain),
    )
    return st.one_of(windows(), st.recursive(leaf, lambda inner: st.tuples(inner, inner).map(lambda de: product(*de)), max_leaves=3))


_ORDERS = {}  # id(window): (window, leq, join); holding the window keeps its id from reuse


def _brute_order(window):
    """The order and the join of ``window`` as functions of two elements, built once per window from
    a dict of its elements, so the oracle never goes through the library's label rule
    (``window.index``) or positional rules that it checks.  Each follows the window's definition:
    componentwise over a product's label parts; on an omega window position order and ``max``; on a
    custom window position order if it is a chain, else the entry of its order matrix, and the
    element its join table names."""
    held = _ORDERS.get(id(window))
    if held is None or held[0] is not window:
        if window.factors is not None:
            (first, first_join), (second, second_join) = map(_brute_order, window.factors)
            leq = lambda a, b: first(a[0], b[0]) and second(a[1], b[1])
            join = lambda a, b: (first_join(a[0], b[0]), second_join(a[1], b[1]))
        else:
            els = window.elements
            pos = {e: p for p, e in enumerate(els)}
            if window.is_chain():
                leq = lambda a, b: pos[a] <= pos[b]
            else:
                rows = window._order.tolist()
                leq = lambda a, b: rows[pos[a]][pos[b]]
            if window.kind == OMEGA:
                join = max
            else:
                table = window._joins.tolist()
                join = lambda a, b: els[table[pos[a]][pos[b]]]
        if len(_ORDERS) >= 256:
            _ORDERS.clear()
        held = _ORDERS[id(window)] = window, leq, join
    return held[1:]


def brute_leq(window, a, b):
    """The window order on elements, apart from the library's positional test and its label rule."""
    return _brute_order(window)[0](a, b)


def brute_join(window, a, b):
    """The window join on elements, apart from the library's positional join and its label rule."""
    return _brute_order(window)[1](a, b)


def brute_position(window, a):
    """The label rule label by label: a lookup in a dict of the window's elements, then a check that
    the label is of its element's kind (a bool, numpy's too, names only a bool and a float, numpy's
    too, only a float, through tuples).  The position of the element ``a`` names, else None."""
    try:
        p = {e: p for p, e in enumerate(window.elements)}.get(a)
    except TypeError:  # unhashable
        return None
    return p if p is not None and _brute_same_kind(a, window.elements[p]) else None


def _brute_same_kind(x, e):
    if type(e) is tuple:
        return all(map(_brute_same_kind, x, e))
    bools, floats = (bool, np.bool_), (float, np.floating)
    return isinstance(x, bools) is isinstance(e, bools) and isinstance(x, floats) is isinstance(e, floats)


def brute_up_set(window, a):
    """Elements ``b`` with ``a`` <= ``b``, by filtering the window through ``brute_leq``."""
    return tuple(b for b in window.elements if brute_leq(window, a, b))


def brute_validate_window(elements, leq, join):
    """The message of the first window invariant that order data breaks, else None,
    checked loop by loop over labels: ``leq`` a predicate and ``join`` a binary
    callable on them.  Reflexivity by element, antisymmetry over pairs listed
    earlier-first, transitivity over triples and the join over pairs, each in
    enumeration (product) order."""
    for a in elements:
        if not leq(a, a):
            return f"order not reflexive at {a!r}"
    for a, b in itertools.combinations(elements, 2):
        if leq(a, b) and leq(b, a):
            return f"order not antisymmetric on {a!r}, {b!r}"
    for a, b, c in itertools.product(elements, repeat=3):
        if leq(a, b) and leq(b, c) and not leq(a, c):
            return f"order not transitive on {a!r}, {b!r}, {c!r}"
    for a, b in itertools.product(elements, repeat=2):
        j = join(a, b)
        if not (leq(a, j) and leq(b, j)):
            return f"join({a!r},{b!r}) = {j!r} is not an upper bound"
    return None


def brute_values(a):
    """A net's values keyed by its window's elements, read once, for the oracles' own label lookups."""
    return dict(zip(a.window.elements, a.values))


def brute_witness(a, eps, eta):
    """First index whose sampled block has all pairwise distances <= eps."""
    value = brute_values(a)
    for i in a.window.elements:
        block = list(eta.at(i))
        ok = True
        for j in block:
            for k in block:
                if a.space.dist(value[j], value[k]) > eps:
                    ok = False
        if ok:
            return i
    return None


def brute_greedy_cover(nets, eps, eta):
    """Set-based greedy cover: (cover in enumeration order, nets with no witness).

    Witness sets come from raw pairwise loops.  Each round scans the
    window in enumeration order and keeps the first index with a strictly
    larger gain, so ties go to the lowest index.
    """
    window, witness_sets = eta.window, []
    for a in nets:
        value = brute_values(a)
        witness_sets.append(
            {i for i in window.elements if all(a.space.dist(value[j], value[k]) <= eps for j in eta.at(i) for k in eta.at(i))}
        )
    uncovered = {m for m, ws in enumerate(witness_sets) if ws}
    no_witness = tuple(m for m, ws in enumerate(witness_sets) if not ws)
    cover = []
    while uncovered:
        best, best_gain = None, 0
        for i in window.elements:
            gain = sum(1 for m in uncovered if i in witness_sets[m])
            if gain > best_gain:
                best, best_gain = i, gain
        cover.append(best)
        uncovered -= {m for m in uncovered if best in witness_sets[m]}
    return tuple(sorted(cover, key=window.index)), no_witness


def brute_pointed_witness(a, b, eps, eta):
    value = brute_values(a)
    for i in a.window.elements:
        if all(a.space.dist(value[j], b) <= eps for j in eta.at(i)):
            return i
    return None


def brute_random_sampling(window, rng, max_size=3):
    """Random sampling drawn from each materialised up-set, as a slice or tuple."""
    assign = []
    for i in window.elements:
        ups = window.up_set(i)
        size = rng.randint(1, min(max_size, len(ups)))
        assign.append(frozenset(rng.sample(ups, size)))
    return Sampling(window, tuple(assign))


# -- label-set samplings ---------------------------------------------------
# Each construction as one frozenset of window labels per element, built
# label by label: the reference that the position-run builders must equal.


def label_identity(window):
    return tuple(frozenset({i}) for i in window.elements)


def label_step(window, step):
    """Chain blocks {i, element at min(step(position of i), top)}: successor and doubling."""
    els, top = window.elements, len(window) - 1
    return tuple(frozenset({e, els[min(step(p), top)]}) for p, e in enumerate(els))


def label_random_samplings(window, rng, count):
    """``count`` label-set samplings drawn by the library's rank rule: ranks
    index the materialised up-set of each element, in enumeration order."""
    ups = [window.up_set(e) for e in window.elements]
    ranks, counts = _draw_ranks(rng, [len(u) for u in ups] * count)
    drawn, assign = iter(ranks), []
    for r, c in enumerate(counts):
        up = ups[r % len(ups)]
        assign.append(frozenset(up[next(drawn)] for _ in range(c)))
    n = len(window)
    return [tuple(assign[r * n:(r + 1) * n]) for r in range(count)]


def label_induced(eta, d):
    """eta_{i v j} x eta_{i v j} at every pair (i, j) of product(d, d)."""
    return tuple(frozenset(itertools.product(eta.at(brute_join(d, i, j)), repeat=2)) for i, j in product(d, d).elements)


def label_from_function(window, fn):
    return tuple(frozenset(fn(e)) for e in window.elements)


def _json_label(x):
    return tuple(map(_json_label, x)) if isinstance(x, list) else x


def json_text(doc):
    """Canonical JSON text by the stdlib encoder: what ``serialize.dumps`` must write."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def label_decode(doc):
    """A sampling document's label sets: each JSON list row, lists read as tuples."""
    return tuple(frozenset(map(_json_label, row)) for row in doc["assign"])


def brute_validate_sampling(s):
    """The violations of a sampling, found through ``brute_up_set``: element by
    element in enumeration order, then label by label in the order of the
    sampling's own label set."""
    w = s.window
    if len(s.assign) != len(w):
        return [SamplingViolation(None, None, f"assign has {len(s.assign)} entries for a window of {len(w)}")]
    found = []
    for i in w.elements:
        block = s.at(i)
        if not block:
            found.append(SamplingViolation(i, None, "empty candidate set"))
        for j in block:
            if j not in brute_up_set(w, i):
                found.append(SamplingViolation(i, j, "not in the up-set"))
    return found


def positions_of(window, assign):
    """The position runs of label sets: each set's positions, sorted, then the set sizes."""
    runs = [sorted(window.index(j) for j in block) for block in assign]
    return [p for run in runs for p in run], [len(run) for run in runs]


def brute_cauchy_index(a, eps):
    value = brute_values(a)
    for i0 in a.window.elements:
        tail = brute_up_set(a.window, i0)
        if len(tail) < 2:
            continue
        ok = True
        for j in tail:
            for k in tail:
                if a.space.dist(value[j], value[k]) > eps:
                    ok = False
        if ok:
            return i0
    return None


def group_max_distances(a, pairs, n_groups):
    """Largest distance d(a_i, a_j) in each group of point pairs of a stacked family:
    the all-pairs maxima that the library's decisions against eps answer to.

    Points are numbered as in :attr:`StackedFamily.points`.  ``pairs``
    yields chunks ``(i, j, group)`` of integer arrays: points
    (``i`` and ``j`` broadcast against each other) and, in their broadcast
    shape, a group id in ``range(n_groups)`` per pair.  Entry g of the
    result is bit-identical to the ``max`` of ``a.space.unchecked_dist``
    over group g's pairs, and 0.0 for a group without pairs.  Memory is
    O(points + n_groups + chunk).

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
    space, array = a.space, a.points
    if space.kind == EUCLIDEAN:
        # math.dist takes the points as given, as unchecked_dist does (no enumerated
        # family is Euclidean), gathered by position without a Python int per index.
        targets = () if None in a.targets else a.targets
        coordinates = np.fromiter(itertools.chain(*map(a.row, range(len(a))), targets), object, array.shape[1])
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
            exact = map(math.dist, coordinates[i], coordinates[j])
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


def run_diameters(s, flat, sizes):
    """Diameter of every member of a stacked family on each run of positions:
    members x runs, each an exact maximum of ``unchecked_dist`` over the
    run's pairs.

    ``flat`` is an integer array of positions cut into consecutive
    nonempty runs of ``sizes``.  Scalar spaces take run max minus run min
    (``reduceat``), exact because binary64 subtraction is monotone.  Other
    spaces take every pair of a run of every member through one
    ``group_max_distances`` call.  The all-pairs route that
    ``net.runs_within`` answers to: its decisions are these <= ``eps_floor(eps)``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if s.space.is_scalar():
        return run_maxima(s.array, flat, sizes) - run_maxima(s.array, flat, sizes, np.minimum)
    m, n, runs = len(s), len(s.window), len(sizes)
    chunks = ((k * n + flat[p], k * n + flat[q], k * runs + run) for p, q, run in _run_pairs(sizes) for k in range(m))
    return group_max_distances(s, chunks, m * runs).reshape(m, runs)


def block_diameters(nets, *samplings):
    """Nets x blocks matrix of the diameter of each net on each sampled block.

    ``nets`` is a StackedFamily or a nonempty list of nets, stacked once.
    Columns run over the indices of each sampling in turn, so with one
    sampling index p witnesses net m at eps iff entry (m, p) is <= eps.
    """
    window = samplings[0].window
    for eta in samplings:
        if eta.window != window:
            raise WindowError("samplings live on different windows")
        if len(eta.sizes) != len(window) or not eta.sizes.all():
            raise WindowError("sampling needs one nonempty candidate set per index")
    family = stacked(nets)
    if family.window != window:
        raise WindowError("sampling and net live on different windows")
    flat = np.concatenate([eta.flat for eta in samplings])
    return run_diameters(family, flat, np.concatenate([eta.sizes for eta in samplings]))


def tail_diameters(s):
    """Diameter of the tail (up-set) of every window element, by position:
    members x positions of a stacked family, each an exact maximum of
    ``unchecked_dist`` over every pair of the tail.

    Scalar spaces take the tail's max minus its min.  On a grid window
    other spaces group all pairs by their meet (componentwise minimum),
    take each group's largest distance with ``group_max_distances``, and
    take the maximum over the orthant above each element, since a pair
    lies in the tail of i exactly when its meet does.  On other windows
    every element's tail goes through ``run_diameters``.  O(n^2) per
    member: the all-pairs route the library's tail decisions answer to.
    """
    w, m, n = s.window, len(s), len(s.window)
    shape = w.grid_shape()
    if s.space.is_scalar():
        return tail_maxima(w, s.array) - tail_maxima(w, s.array, np.minimum)
    if shape is None:
        return run_diameters(s, *up_runs(w))
    # A position is the sum of its coordinates' shares (coordinate times
    # stride), so a meet's position sums the smaller share on each axis.
    strides = np.cumprod((*shape[1:], 1)[::-1])[::-1]
    shares = np.indices(shape).reshape(len(shape), -1) * strides[:, None]
    chunks = ((p, q, sum(np.minimum(c[p], c[q]) for c in shares)) for p, q, _ in _run_pairs([n]))
    pairs = ((k * n + i, k * n + j, k * n + g) for i, j, g in chunks for k in range(m))
    return tail_maxima(w, group_max_distances(s, pairs, m * n).reshape(m, n))


def all_samplings(window, max_size=2):
    """Every sampling whose candidate sets have at most ``max_size`` elements."""
    per_element = []
    for i in window.elements:
        ups = brute_up_set(window, i)
        choices = []
        for size in range(1, max_size + 1):
            choices.extend(frozenset(c) for c in itertools.combinations(ups, size))
        per_element.append(choices)
    for assign in itertools.product(*per_element):
        yield Sampling(window, tuple(assign))


def all_binary_nets(window, target=None):
    for values in itertools.product((0, 1), repeat=len(window)):
        yield Net(window, binary_space(), values, target=target)


def random_binary_net(window, rng, target=None):
    values = tuple(rng.randint(0, 1) for _ in window.elements)
    return Net(window, binary_space(), values, target=target)


def random_unit_net(window, rng, target=None):
    values = tuple(rng.random() for _ in window.elements)
    return Net(window, unit_interval_space(), values, target=target)


def eventually_constant_net(window, rng, limit=None):
    """Random unit-interval chain net that settles at a limit value."""
    n = len(window)
    if limit is None:
        limit = rng.random()
    cutoff = rng.randrange(n)
    values = tuple(
        rng.random() if p < cutoff else limit for p in range(n)
    )
    return Net(window, unit_interval_space(), values, target=limit)


def brute_nonincreasing(window, values):
    """Whether ``values`` never rises along the order: every ``brute_leq`` pair, by filter."""
    pos = {e: p for p, e in enumerate(window.elements)}
    return all(
        values[pos[i]] >= values[pos[j]]
        for i, j in itertools.permutations(window.elements, 2)
        if brute_leq(window, i, j)
    )


def brute_eventually_zero(window, values):
    """Whether some element's whole up-set (by ``brute_leq`` filter) carries 0."""
    pos = {e: p for p, e in enumerate(window.elements)}
    return any(all(values[pos[j]] == 0 for j in brute_up_set(window, i)) for i in window.elements)


def brute_approx_half(x, n):
    """max over i = 1..n of min(i/n, max(x - i/n, 0)), term by term."""
    best = 0.0
    for i in range(1, n + 1):
        t = i / n
        best = max(best, min(t, max(x - t, 0.0)))
    return best


def brute_refute_uniform(members, candidate_sets, eps, pointed=False):
    """Exhaustive search over a list of nets: member by member, in list
    order, every sampling of ``all_samplings(window, max_size=2)`` on the
    first member's window goes through ``replay_certificate``; the first
    pair that replays is returned, else None."""
    union = frozenset().union(*map(frozenset, candidate_sets))
    members = list(members)
    if not members:
        return None
    samplings = list(all_samplings(members[0].window))
    for a in members:
        for eta in samplings:
            cert = RefutationCertificate(eps, eta, a, union, pointed_target=a.target if pointed else None)
            if replay_certificate(cert):
                return cert
    return None


def brute_csv_nets(path, space):
    """The nets of a numeric CSV built one ``Net`` per column (Euclidean: per
    group of d consecutive columns), binary cells coerced to int, with the
    errors and messages ``analyze.ingest_csv`` documents, raised in the same
    order: a cell, a ragged row, an empty file, the window, the grouping,
    then a binary value column by column, then each net's points.  A row is
    named by its CSV record number, blank records counted, in every message."""
    rows, numbers = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise SpaceError(f"non-numeric cell in row {lineno}") from None
            if len(rows[-1]) != len(rows[0]):
                raise SpaceError(f"ragged row {lineno}: expected {len(rows[0])} columns")
            numbers.append(lineno)
    if not rows:
        raise SpaceError("empty CSV")
    window, ncols = make_omega_window(len(rows)), len(rows[0])
    if space.kind == "euclidean":
        d = space.dim
        if ncols % d:
            raise SpaceError(f"{ncols} columns do not group into dimension {d}")
        return [Net(window, space, tuple(tuple(row[g:g + d]) for row in rows)) for g in range(0, ncols, d)]
    if space.kind == "binary-discrete":
        for col in range(ncols):
            for lineno, row in zip(numbers, rows):
                if row[col] not in (0.0, 1.0):
                    raise SpaceError(f"non-binary value in row {lineno}")
        return [Net(window, space, tuple(int(row[col]) for row in rows)) for col in range(ncols)]
    return [Net(window, space, tuple(row[col] for row in rows)) for col in range(ncols)]


def brute_table_fault(symbols, table):
    """The message ``space.table_space`` raises for a distance table of
    finite reals >= 0, else None, found by the loops it once ran: each row's
    self-distance and then its pairs, row by row, then every (i, j, k) in
    ``itertools.product`` order against ``T[i][k] <= T[i][j] + T[j][k]``."""
    table = [[float(v) for v in row] for row in table]
    n = len(symbols)
    for i in range(n):
        if table[i][i] != 0.0:
            return f"nonzero self-distance at {symbols[i]!r}"
        for j in range(n):
            if table[i][j] != table[j][i]:
                return f"asymmetric distances at {symbols[i]!r}, {symbols[j]!r}"
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[i][k] > table[i][j] + table[j][k]:
            return f"triangle inequality fails at {symbols[i]!r}, {symbols[j]!r}, {symbols[k]!r}"
    return None
