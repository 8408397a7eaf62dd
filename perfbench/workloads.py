"""Request pools and seeded request streams for the benchmark workloads.

Every request comes from a fixed pool of entries.  An entry's input files
are derived from its key alone, so its expected output could be recorded
once (``record.py`` writes ``references.json``).  The workload seed picks
which pool entries a run sends and in which order.

A run sends whole decks.  A deck has a fixed composition (how many
requests of each group) and is filled with seeded choices from each
group's pool, then shuffled.  The fixed composition keeps the mix of cheap
and expensive requests, and so the throughput and latency percentiles,
the same from seed to seed; the seed changes the inputs and their order.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("analyze-chain", "analyze-grid", "families")

EPS_GRID = "0.5,0.25,0.1"


@dataclass(frozen=True)
class Entry:
    """One pool entry: a CLI request and how its output is checked.

    In ``argv``, an argument ``@name`` stands for the input file ``name``
    in the run's work directory and ``@out`` for the output file.
    """

    key: str
    argv: tuple
    check: dict

    @property
    def files(self):
        return tuple(a[1:] for a in self.argv if a.startswith("@") and a != "@out")


@dataclass
class Pool:
    entries: dict  # key -> Entry
    files: dict  # file name -> bytes
    groups: dict  # group name -> list of entry keys
    deck: tuple  # (group name, count) pairs


def _json_bytes(doc):
    return json.dumps(doc, separators=(",", ":")).encode()


def window_doc(n):
    return {"type": "window", "schema_version": 1, "kind": "omega-window", "size": n}


def _net(window, space, values, target):
    return {
        "type": "net",
        "schema_version": 1,
        "window": window,
        "space": space,
        "values": values,
        "target": target,
    }


def _spec(tag, n):
    return {"type": "family-spec", "schema_version": 1, "tag": tag, "window": window_doc(n), "parameters": {}}


BINARY = {"type": "space", "schema_version": 1, "kind": "binary-discrete"}
EUCLIDEAN2 = {"type": "space", "schema_version": 1, "kind": "euclidean", "dim": 2}


def _add(pool, group, key, argv, check, files=None):
    pool.entries[key] = Entry(key, tuple(argv), check)
    pool.groups.setdefault(group, []).append(key)
    pool.files.update(files or {})


# -- analyze-chain ---------------------------------------------------------

CHAIN_POOL = {64: 96, 128: 48, 256: 24, 512: 12}
CHAIN_DECK = (("n64", 12), ("n128", 4), ("n256", 3), ("n512", 1))


def _chain_csv(n, rng):
    # Two uniform-noise columns and two noisy columns converging to a
    # seeded limit in [0, 1].
    limits = (rng.random(), rng.random())
    lines = []
    for i in range(n):
        row = [rng.random(), rng.random()]
        amp = 0.5 / (1.0 + i / 8.0)
        for lim in limits:
            row.append(min(1.0, max(0.0, lim + amp * (2.0 * rng.random() - 1.0))))
        lines.append(",".join(repr(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def _chain_pool():
    pool = Pool({}, {}, {}, CHAIN_DECK)
    for n, count in CHAIN_POOL.items():
        for v in range(count):
            key = f"chain-n{n}-v{v}"
            rng = random.Random(key)
            name = f"{key}.csv"
            argv = [
                "analyze", "--csv", f"@{name}", "--space", "unit-interval",
                "--suite", "identity,successor,doubling,random-k",
                "--seed", str(rng.randrange(2**31)), "--eps-grid", EPS_GRID, "--out", "@out",
            ]
            _add(pool, f"n{n}", key, argv, {"kind": "hash"}, {name: _chain_csv(n, rng)})
    return pool


# -- analyze-grid ----------------------------------------------------------

GRID_POOL = {6: 64, 8: 48, 12: 24, 16: 16}
GRID_DECK = (("k6", 10), ("k8", 8), ("cesaro", 3), ("k12", 5), ("k16", 4))


def _grid_nets(k, rng):
    # Four R^2 nets on the k x k product window whose values approach a
    # seeded point as i + j grows.
    window = {
        "type": "window",
        "schema_version": 1,
        "kind": "product-window",
        "factors": [window_doc(k), window_doc(k)],
    }
    nets = []
    for _ in range(4):
        px, py = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        values = []
        for i in range(k):
            for j in range(k):
                amp = 1.5 / (1.0 + (i + j) / 2.0)
                values.append([px + amp * rng.uniform(-1.0, 1.0), py + amp * rng.uniform(-1.0, 1.0)])
        nets.append(_net(window, EUCLIDEAN2, values, None))
    return _json_bytes(nets)


def _grid_pool():
    pool = Pool({}, {}, {}, GRID_DECK)
    for k, count in GRID_POOL.items():
        for v in range(count):
            key = f"grid-k{k}-v{v}"
            rng = random.Random(key)
            name = f"{key}.json"
            argv = [
                "analyze", "--family", f"@{name}", "--space", "euclidean", "--dim", "2",
                "--suite", "identity,random-k", "--seed", str(rng.randrange(2**31)),
                "--eps-grid", EPS_GRID, "--out", "@out",
            ]
            _add(pool, f"k{k}", key, argv, {"kind": "hash"}, {name: _grid_nets(k, rng)})
    _add(pool, "cesaro", "demo-cesaro", ["demo", "cesaro", "--size", "256", "--out", "@out"], {"kind": "hash"})
    return pool


# -- families --------------------------------------------------------------

FAMILIES_DECK = (
    ("c-refute", 2),
    ("d-refute", 2),
    ("paracompact-small", 2),
    ("closed-C", 2),
    ("closed-D", 2),
    ("closed-B0", 2),
    ("verify32-pass", 1),
    ("verify32-fail", 1),
    ("b-rate-small", 2),
    ("paracompact-64", 1),
    ("refute-C12", 6),
    ("verify64-pass", 1),
    ("verify64-fail", 1),
    ("b-rate-64", 1),
    ("verify96-pass", 1),
    ("verify96-fail", 1),
    ("refute-Blist32", 1),
    ("lukasiewicz", 2),
    ("refute-Blist48", 1),
    ("refute-Blist64", 1),
    ("verify128-pass", 3),
    ("verify128-fail", 3),
)

VERIFY_SIZES = (32, 64, 96, 128)
VERIFY_POOL = 8
C12_POOL = 6
BLIST_SIZES = (32, 48, 64)
BLIST_POOL = 4
CLOSED_N = 1024
CLOSED_POOL = 8
EPS = 0.5


def _random_assign(n, rng):
    # A valid sampling on the chain 0 < ... < n-1: each eta_i is a nonempty
    # subset of {i, ..., n-1} with at most three elements.
    return [sorted(rng.sample(range(i, n), rng.randint(1, min(3, n - i)))) for i in range(n)]


def _rate(n, rng, passing):
    # Passing: rate_B's candidates {0, max eta_0} cover every member of B.
    # Failing: a single candidate c with |eta_c| >= 2 is defeated by the
    # member whose cutoff is max eta_c.
    samplings, table = {}, []
    for s in range(3):
        assign = _random_assign(n, rng)
        sid = f"r{s}"
        samplings[sid] = {"type": "sampling", "schema_version": 1, "window": window_doc(n), "assign": assign}
        if passing:
            candidates = sorted({0, max(assign[0])})
        else:
            candidates = [rng.choice([i for i in range(n) if len(assign[i]) >= 2])]
        for t in (0.5, 0.25):
            table.append({"threshold": t, "sampling_id": sid, "candidates": candidates})
    return {
        "type": "rate",
        "schema_version": 1,
        "thresholds": [0.5, 0.25],
        "pointed": False,
        "samplings": samplings,
        "table": table,
    }


def _threshold_values(n, cutoff):
    return [1 if p < cutoff else 0 for p in range(n)]


def _candidate_sets(rng, below, count, max_size):
    return [sorted(rng.sample(range(below), rng.randint(1, max_size))) for _ in range(count)]


def _refute_check(tag, n, sets, pointed, members_file=None, extra=None):
    check = {
        "kind": "certificate",
        "tag": tag,
        "n": n,
        "eps": EPS,
        "union": sorted(set().union(*map(set, sets))),
        "pointed": pointed,
    }
    if members_file:
        check["members"] = members_file
    check.update(extra or {})
    return check


def _families_pool():
    pool = Pool({}, {}, {}, FAMILIES_DECK)

    for n in VERIFY_SIZES:
        spec = f"spec-B-n{n}.json"
        pool.files[spec] = _json_bytes(_spec("B", n))
        for outcome in ("pass", "fail"):
            for v in range(VERIFY_POOL):
                key = f"verify-B-n{n}-{outcome}-v{v}"
                rate = f"{key}.rate.json"
                doc = _rate(n, random.Random(key), outcome == "pass")
                argv = ["verify", "--family", f"@{spec}", "--rate", f"@{rate}", "--eps", str(EPS), "--out", "@out"]
                _add(pool, f"verify{n}-{outcome}", key, argv, {"kind": "hash"}, {rate: _json_bytes(doc)})

    # Generic refute on all 2048 members of C at n=12, shuffled.  One
    # candidate set of at most two elements below 9: a certificate exists
    # and the random search finds it early, so decoding dominates.
    heads = list(itertools.product((0, 1), repeat=11))
    for v in range(C12_POOL):
        key = f"refute-C12-v{v}"
        rng = random.Random(key)
        order = heads[:]
        rng.shuffle(order)
        members = [_net(window_doc(12), BINARY, list(h) + [0], 0) for h in order]
        sets = _candidate_sets(rng, 9, 1, 2)
        fam, cands = f"{key}.family.json", f"{key}.cands.json"
        argv = [
            "refute", "--family", f"@{fam}", "--candidates", f"@{cands}",
            "--eps", str(EPS), "--seed", str(rng.randrange(2**31)), "--out", "@out",
        ]
        check = _refute_check("C", 12, sets, False, fam)
        _add(pool, "refute-C12", key, argv, check, {fam: _json_bytes(members), cands: _json_bytes(sets)})

    # Generic refute on a list of B members whose candidate union holds the
    # chain top: no certificate exists, so the search exhausts its budget.
    for n in BLIST_SIZES:
        for v in range(BLIST_POOL):
            key = f"refute-Blist-n{n}-v{v}"
            rng = random.Random(key)
            cutoffs = list(range(n + 1))
            rng.shuffle(cutoffs)
            members = [_net(window_doc(n), BINARY, _threshold_values(n, c), 1 if c == n else 0) for c in cutoffs]
            sets = _candidate_sets(rng, n, 2, 3) + [[n - 1]]
            fam, cands = f"{key}.family.json", f"{key}.cands.json"
            argv = [
                "refute", "--family", f"@{fam}", "--candidates", f"@{cands}",
                "--eps", str(EPS), "--seed", str(rng.randrange(2**31)), "--out", "@out",
            ]
            check = _refute_check("B", n, sets, False, fam)
            _add(pool, f"refute-Blist{n}", key, argv, check, {fam: _json_bytes(members), cands: _json_bytes(sets)})

    # Closed-form refutations on family specs at n=1024.
    for tag, pointed in (("C", False), ("D", True), ("B0", True)):
        spec = f"spec-{tag}-n{CLOSED_N}.json"
        pool.files[spec] = _json_bytes(_spec(tag, CLOSED_N))
        for v in range(CLOSED_POOL):
            key = f"refute-closed-{tag}-v{v}"
            rng = random.Random(key)
            sets = _candidate_sets(rng, 900, rng.randint(1, 3), 5)
            cands = f"{key}.cands.json"
            argv = [
                "refute", "--family", f"@{spec}", "--candidates", f"@{cands}",
                "--eps", str(EPS), "--seed", str(rng.randrange(2**31)), "--out", "@out",
            ] + (["--pointed"] if pointed else [])
            _add(pool, f"closed-{tag}", key, argv, _refute_check(tag, CLOSED_N, sets, pointed), {cands: _json_bytes(sets)})

    for size in (16, 32, 48, 64):
        half = [list(range(size // 2))]
        _add(pool, "c-refute", f"demo-c-refute-s{size}",
             ["demo", "c-refute", "--size", str(size), "--out", "@out"],
             _refute_check("C", size, half, False, extra={"at": "certificate"}))
        _add(pool, "d-refute", f"demo-d-refute-s{size}",
             ["demo", "d-refute", "--size", str(size), "--out", "@out"],
             _refute_check("D", size, half, True, extra={"at": "certificate"}))
    for size in (16, 32, 64):
        n_points = max(2, size // 4)
        _add(pool, "paracompact-64" if size == 64 else "paracompact-small", f"demo-paracompact-s{size}",
             ["demo", "paracompact", "--size", str(size), "--out", "@out"],
             _refute_check("paracompact", size, [list(range(n_points - 1))], True,
                           extra={"at": "pointed_refutation", "n_points": n_points, "hash_at": "plain_uniform"}))
    for size in (16, 32, 64):
        for v in range(4):
            _add(pool, "b-rate-64" if size == 64 else "b-rate-small", f"demo-b-rate-s{size}-v{v}",
                 ["demo", "b-rate", "--size", str(size), "--seed", str(v), "--out", "@out"], {"kind": "hash"})
    _add(pool, "lukasiewicz", "demo-lukasiewicz", ["demo", "lukasiewicz", "--out", "@out"], {"kind": "hash"})
    return pool


_BUILDERS = {"analyze-chain": _chain_pool, "analyze-grid": _grid_pool, "families": _families_pool}


def build_pool(workload):
    """All entries, input files and deck composition of one workload."""
    return _BUILDERS[workload]()


def decks(pool, workload, seed):
    """Endless seeded stream of decks, each a list of entry keys.

    A group's picks within one deck are drawn without replacement (the
    whole pool is used when the deck takes that many), which keeps each
    deck's mix of inputs balanced.
    """
    rng = random.Random(f"{workload}/{seed}")
    while True:
        deck = []
        for group, count in pool.deck:
            keys = pool.groups[group]
            picked = []
            while len(picked) < count:
                picked += rng.sample(keys, min(len(keys), count - len(picked)))
            deck += picked
        rng.shuffle(deck)
        yield deck
