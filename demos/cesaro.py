"""Empirical metastability of Cesaro averages of planar rotations.

Averaging the orbit of (1, 0) under rotation by theta drives the mean to
the origin at rate 2 / (n |1 - e^(i theta)|) for any nonzero angle.  The
quarter-turn orbit is computed in integer arithmetic, so its averages hit
(0, 0) *exactly* at every index divisible by 4.  The analysis report
tabulates per-tolerance witnesses and greedy covering sets.
"""

import math

from metastable import (
    build_sampling_suite,
    cesaro_envelope,
    cesaro_envelope_ok,
    cesaro_rotation_nets,
    empirical_rate,
)


def main():
    angles = [math.pi / 2, math.pi / 3, 0.5]
    horizon = 256
    nets = cesaro_rotation_nets(angles, horizon)

    quarter = nets[0]
    zeros = [n for n in range(4, 33, 4) if quarter.value(n) == (0.0, 0.0)]
    print(f"quarter-turn averages vanish exactly at {zeros} ...")

    for theta, net in zip(angles, nets):
        print(
            f"theta={theta:.4f}: envelope 2/(n|1-e^it|) at n=100 is "
            f"{cesaro_envelope(theta, 100):.5f}, holds at all n: "
            f"{cesaro_envelope_ok(net, theta)}"
        )

    suite = build_sampling_suite(nets.window, ["identity", "doubling"])
    report = empirical_rate(nets, [0.5, 0.1, 0.02], suite)
    print("\nempirical covers (eps, sampling -> cover set):")
    for cell in report.cells:
        print(f"  eps={cell.eps:<5} {cell.sampling_id:10s} cover {list(cell.cover_set)}")
    print(f"refuted anywhere: {report.refuted}")


if __name__ == "__main__":
    main()
