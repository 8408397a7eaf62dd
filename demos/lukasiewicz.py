"""Halving a truth value with Lukasiewicz connectives, to any accuracy.

The connectives min, max, 1-x, and the bounded sum cannot express x/2
exactly, but the grid expression

    max over i=1..n of min(i/n, max(x - i/n, 0))

approaches it from below with one-sided error at most 1/(2n).  Composing
halvings and bounded sums then approximates r*x for any dyadic r.  This
script prints the measured sup error against the derived bound; each
approximation runs over the whole grid in one call.
"""

from fractions import Fraction

import numpy as np

from metastable.mvlogic import approx_half, approx_scaled, scaled_error_bound


def main():
    grid = np.arange(1001) / 1000
    print(f"{'n':>5}  {'sup |approx_half - x/2|':>24}  {'bound 1/(2n)':>13}")
    for n in (4, 8, 16, 32, 64, 128, 256):
        sup = np.max(np.abs(approx_half(grid, n) - grid / 2))
        print(f"{n:>5}  {sup:>24.8f}  {1 / (2 * n):>13.8f}")

    print("\ndyadic scaling via composed halvings, n = 64:")
    for r in (Fraction(1, 4), Fraction(3, 8), Fraction(5, 8)):
        sup = np.max(np.abs(approx_scaled(r, grid, 64) - float(r) * grid))
        print(f"  r={r}:  sup error {sup:.6f}  <=  bound {scaled_error_bound(r, 64):.6f}")


if __name__ == "__main__":
    main()
