"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Lines are written to the real stdout so they appear even under pytest's
capture.  Tolerances are pinned in-line; every randomized check runs from
a fixed seed.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from metastable import (
    Net,
    Sampling,
    binary_space,
    build_rate,
    build_sampling_suite,
    cesaro_envelope_ok,
    cesaro_rotation_nets,
    find_pointed_witness,
    find_witness,
    finite_space_ump_check,
    identity_sampling,
    induced_sampling,
    is_pointed_witness,
    is_witness,
    make_omega_window,
    pointed_to_plain,
    product,
    project_set,
    random_sampling,
    refute_uniform,
    replay_certificate,
    self_distance,
    distance_to_point,
    unit_interval_space,
    verify_rate,
)
from metastable.families import (
    FamilySpec,
    enumerate_family,
    paracompact_nets,
    rate_B,
    refute_C,
    refute_D_pointed,
)
from metastable.mvlogic import approx_half
from metastable.serialize import dumps, family_spec_to_dict, rate_to_dict
from oracles import (
    all_samplings,
    brute_pointed_witness,
    brute_witness,
    random_binary_net,
    random_unit_net,
)

SLACK = 2.0 ** -40


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return ok


def test_criterion_1_witness_oracle_equivalence():
    rng = random.Random(10_001)
    windows = {n: make_omega_window(n) for n in (2, 3, 5, 8, 13, 21, 34, 64)}
    sizes = sorted(windows)
    start = time.monotonic()
    agree = total = 0
    for _ in range(10_000):
        w = windows[rng.choice(sizes)]
        binary = rng.random() < 0.5
        a = random_binary_net(w, rng) if binary else random_unit_net(w, rng)
        eta = random_sampling(w, rng)
        eps = rng.choice((0.05, 0.1, 0.25, 0.5, 0.9))
        if rng.random() < 0.5:
            got = find_witness(a, eps, eta)
            want = brute_witness(a, eps, eta)
        else:
            b = rng.randint(0, 1) if binary else rng.random()
            got = find_pointed_witness(a, b, eps, eta)
            want = brute_pointed_witness(a, b, eps, eta)
        total += 1
        agree += got == want
    elapsed = time.monotonic() - start
    ok = agree == total == 10_000 and elapsed < 30.0
    assert _report(
        1, ok, f"witness oracle equivalence ({agree}/{total} agree, {elapsed:.1f}s < 30s)"
    )


def test_criterion_2_family_B_uniform_rate():
    start = time.monotonic()
    failures = 0
    cases = 0
    # exhaustive: every sampling with |eta_i| <= 2 on windows <= 5
    for n in (2, 3, 4, 5):
        w = make_omega_window(n)
        family = list(enumerate_family(FamilySpec("B", w)))
        for eta in all_samplings(w, max_size=2):
            rate = build_rate({"s": eta}, lambda t, e: rate_B(e, w), thresholds=(0.5,))
            cases += 1
            if not verify_rate(family, rate, 0.5, "s").overall:
                failures += 1
    exhaustive = cases
    # randomized: 10^3 samplings on window 64
    rng = random.Random(20_002)
    w = make_omega_window(64)
    family = list(enumerate_family(FamilySpec("B", w)))
    for _ in range(1000):
        eta = random_sampling(w, rng)
        rate = build_rate({"s": eta}, lambda t, e: rate_B(e, w), thresholds=(0.5,))
        cases += 1
        if not verify_rate(family, rate, 0.5, "s").overall:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and exhaustive >= 2000 and elapsed < 60.0
    assert _report(
        2,
        ok,
        f"family B uniform rate ({exhaustive} exhaustive + 1000 random samplings, "
        f"{failures} failures, {elapsed:.1f}s < 60s)",
    )


def test_criterion_3_refuters_replay():
    rng = random.Random(30_003)
    replay_failures = 0
    for _ in range(500):
        n = rng.randint(3, 64)
        w = make_omega_window(n)
        s = {rng.randrange(n - 2) for _ in range(rng.randint(1, min(6, n - 2)))}
        cert = refute_C(s, w, 0.5)
        replay_failures += not replay_certificate(cert)
    for _ in range(500):
        n = rng.randint(3, 64)
        w = make_omega_window(n)
        s = {rng.randrange(n - 2) for _ in range(rng.randint(1, min(6, n - 2)))}
        cert = refute_D_pointed(s, w, eps=0.5)
        replay_failures += not replay_certificate(cert)
    ok = replay_failures == 0
    assert _report(
        3, ok, f"refuter certificates (500 + 500 random S, {replay_failures} replay failures)"
    )


def _pointed_rate_for(family, suite, thresholds):
    w = family[0].window

    def sets(t, eta):
        out = set()
        for a in family:
            i = brute_pointed_witness(a, a.target, t, eta)
            out.add(i if i is not None else w.elements[0])
        return out

    return build_rate(suite, sets, thresholds=thresholds, pointed=True)


def test_criterion_4_rate_transform_laws():
    failures = 0
    cases_35 = cases_310 = 0

    # --- halving law, exhaustive on windows <= 4 ---
    for n in (2, 3, 4):
        w = make_omega_window(n)
        for values in itertools.product((0, 1), repeat=n):
            family = [Net(w, binary_space(), values, target=values[-1])]
            for eta in all_samplings(w, max_size=2):
                rate = _pointed_rate_for(family, {"s": eta}, (0.5, 0.25))
                plain = pointed_to_plain(rate)
                cases_35 += 1
                if verify_rate(family, rate, 0.25, "s").overall:
                    if not verify_rate(family, plain, 0.5, "s").overall:
                        failures += 1
    # --- halving law, randomized ---
    rng = random.Random(40_004)
    for _ in range(1000):
        n = rng.randint(2, 8)
        w = make_omega_window(n)
        values = tuple(rng.random() for _ in range(n))
        family = [Net(w, unit_interval_space(), values, target=values[-1])]
        eta = random_sampling(w, rng)
        rate = _pointed_rate_for(family, {"s": eta}, (0.5, 0.25))
        plain = pointed_to_plain(rate)
        cases_35 += 1
        if verify_rate(family, rate, 0.25, "s").overall:
            if not verify_rate(family, plain, 0.5, "s").overall:
                failures += 1

    # --- self-distance projection law, exhaustive on windows <= 4 ---
    for n in (2, 3, 4):
        w = make_omega_window(n)
        pairs = product(w, w).elements
        for values in itertools.product((0, 1), repeat=n):
            c = Net(w, binary_space(), values)
            sd = self_distance(c)
            for eta in all_samplings(w, max_size=2):
                ind = induced_sampling(eta, w)
                for pair in pairs:
                    cases_310 += 1
                    if is_pointed_witness(sd, 0.0, 0.5, ind, pair):
                        j = next(iter(project_set({pair}, w)))
                        if not is_witness(c, 0.5, eta, j):
                            failures += 1
    # --- self-distance projection law, randomized ---
    for _ in range(1000):
        n = rng.randint(2, 10)
        w = make_omega_window(n)
        c = random_unit_net(w, rng)
        eta = random_sampling(w, rng)
        sd = self_distance(c)
        ind = induced_sampling(eta, w)
        eps = rng.choice((0.2, 0.5))
        pair = (rng.choice(w.elements), rng.choice(w.elements))
        cases_310 += 1
        if is_pointed_witness(sd, 0.0, eps, ind, pair):
            j = next(iter(project_set({pair}, w)))
            if not is_witness(c, eps, eta, j):
                failures += 1

    ok = failures == 0 and cases_35 >= 1000 and cases_310 >= 1000
    assert _report(
        4,
        ok,
        f"rate-transform laws ({cases_35} halving + {cases_310} projection cases, "
        f"{failures} failures)",
    )


def test_criterion_5_finite_space_uniform_sets():
    rng = random.Random(50_005)
    failures = 0
    for trial in range(100):
        n = rng.randint(4, 32)
        w = make_omega_window(n)
        nets = {}
        for p in range(rng.randint(2, 5)):
            limit = rng.random()
            cutoff = rng.randrange(n - 1)  # constant tail of length >= 2
            values = tuple(rng.random() if q < cutoff else limit for q in range(n))
            nets[f"x{p}"] = Net(w, unit_interval_space(), values, target=limit)
        suite = build_sampling_suite(
            w, ["identity", "successor", "random-k"], seed=trial, random_count=2
        )
        eps_grid = (0.5, 0.25)
        verdict = finite_space_ump_check(list(nets.values()), list(nets), eps_grid, suite)
        if not verdict.ok or not verdict.sets:
            failures += 1
            continue
        for (eps, sid), cover in verdict.sets:  # independent re-validation
            eta = suite[sid]
            for a in nets.values():
                if not any(is_witness(a, eps, eta, i) for i in cover):
                    failures += 1
    ok = failures == 0
    assert _report(
        5, ok, f"finite-point-set uniform candidate sets (100 families, {failures} failures)"
    )


def test_criterion_6_paracompact_construction():
    failures = 0
    certs = 0
    for m in range(2, 9):
        horizon = 2 * m + 4
        nets = paracompact_nets(m, horizon)
        for a in nets:
            if a.values[-2:] != (1.0, 1.0) or a.target != 1.0:
                failures += 1
        spec = FamilySpec("paracompact", make_omega_window(horizon), {"n_points": m})
        # every nonempty candidate set inside {0..m-2} has size < m
        for size in range(1, m):
            for s in itertools.combinations(range(m - 1), size):
                cert = refute_uniform(spec, [set(s)], 0.5, pointed=True)
                certs += 1
                if cert is None or not replay_certificate(cert):
                    failures += 1
    ok = failures == 0
    assert _report(
        6,
        ok,
        f"bump-function construction (m=2..8, {certs} pointed refutations, {failures} failures)",
    )


def test_criterion_7_halving_approximation():
    grid = np.arange(1001) / 1000
    ns = [4, 8, 16, 32, 64, 128, 256]
    sups = []
    failures = 0
    for n in ns:
        sup = float(np.max(np.abs(approx_half(grid, n) - grid / 2)))
        if sup > 1 / (2 * n) + SLACK:
            failures += 1
        sups.append(sup)
    monotone = all(a >= b - SLACK for a, b in zip(sups, sups[1:]))
    ok = failures == 0 and monotone
    assert _report(
        7,
        ok,
        f"halving approximation (n=4..256, sup error within 1/(2n)+2^-40, "
        f"monotone={monotone})",
    )


def test_criterion_8_cli_determinism(tmp_path):
    w = make_omega_window(8)
    fam = tmp_path / "family.json"
    fam.write_text(dumps(family_spec_to_dict(FamilySpec("B", w))))
    rng = random.Random(8)
    suite = {"identity": identity_sampling(w), "r0": random_sampling(w, rng)}
    rate_file = tmp_path / "rate.json"
    rate_file.write_text(dumps(rate_to_dict(build_rate(suite, lambda t, e: rate_B(e, w)))))
    cfam = tmp_path / "cfamily.json"
    cfam.write_text(dumps(family_spec_to_dict(FamilySpec("C", w))))
    cands = tmp_path / "cands.json"
    cands.write_text(json.dumps([[0, 1]]))
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("\n".join("%.6f" % (1.0 / (i + 1)) for i in range(12)) + "\n")

    commands = {
        "verify": ["verify", "--family", str(fam), "--rate", str(rate_file), "--eps", "0.5"],
        "refute": ["refute", "--family", str(cfam), "--candidates", str(cands), "--eps", "0.5", "--seed", "17"],
        "analyze": ["analyze", "--csv", str(csv_file), "--suite", "identity,random-k", "--seed", "17"],
    }
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "metastable", *argv], capture_output=True
            )
            assert proc.returncode in (0, 2), proc.stderr.decode()
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    assert _report(
        8,
        ok,
        "CLI determinism (verify/refute/analyze byte-identical across reruns)"
        if ok
        else f"CLI determinism (mismatched: {mismatches})",
    )


def test_criterion_9_cesaro_demo():
    horizon = 10_001
    theta = math.pi / 2
    net = cesaro_rotation_nets([theta], horizon)[0]
    exact_zeros = all(net.value(4 * k) == (0.0, 0.0) for k in range(1, horizon // 4 + 1))
    envelope = cesaro_envelope_ok(net, theta)
    ok = exact_zeros and envelope
    assert _report(
        9,
        ok,
        f"Cesaro quarter-turn demo (a_4k exactly (0,0): {exact_zeros}, "
        f"envelope bound at all n <= 10^4: {envelope})",
    )
