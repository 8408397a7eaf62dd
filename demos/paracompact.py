"""Pointwise-but-not-uniformly convergent iterates on a finite point set.

The bump-function iterates evaluated at m discrete points give one net
per point, each eventually constant at 1.  Because a finite point set is
compact, plain uniform candidate sets exist (and the checker finds and
re-validates them) -- yet every pointed candidate set with fewer than m
elements is defeated by the iterate at a deeper point.
"""

from metastable import build_sampling_suite, finite_space_ump_check, refute_uniform, replay_certificate
from metastable.families import FamilySpec, paracompact_nets
from metastable.order import make_omega_window


def main():
    m, horizon = 5, 16
    nets = paracompact_nets(m, horizon)
    print(f"iterate nets at {m} points over {horizon} steps:")
    for p, row in enumerate(nets.array.tolist()):
        print(f"  x{p}: {tuple(map(int, row))} -> target 1")

    suite = build_sampling_suite(nets.window, ["identity", "successor"])
    verdict = finite_space_ump_check(nets, [f"x{p}" for p in range(m)], [0.5, 0.25], suite)
    print(f"\nplain uniform check: ok={verdict.ok}")
    for (eps, sid), cover in verdict.sets:
        print(f"  eps={eps:<5} {sid:10s} cover {list(cover)}")

    spec = FamilySpec("paracompact", make_omega_window(horizon), {"n_points": m})
    s = {0, 1, 2}
    cert = refute_uniform(spec, [s], 0.5, pointed=True)
    print(f"\npointed candidate set {sorted(s)} (size < {m}) is refuted:")
    print(f"  defeating member (point x{int(max(s)) + 1}): {cert.member.values}")
    print(f"  replay: {replay_certificate(cert)}")
    assert replay_certificate(cert)


if __name__ == "__main__":
    main()
