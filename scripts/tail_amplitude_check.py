#!/usr/bin/env python3
"""Measure the large-x tail amplitude of a global solution and compare it
with the trigonometric closed form.

The decaying solution behaves like w_i ~ a x^(-1/2) exp(-2 sqrt2 x) with
a = -s1 2^(-7/4) / sqrt(pi) and s1 = -2cos(pi(g0+1)/4) - 2cos(pi(g1+3)/4).
The script computes the orbit, fits w_0 sqrt(x) exp(2 sqrt2 x) = a + b/x
on a window, and optionally dumps the compensated tail as CSV.  It exits 1
if the fit deviates from the prediction by more than MAX_REL_DEV (0.33% at
the defaults), and 0 otherwise; where s1 = 0 there is no relative
deviation to bound.

Usage:
    python scripts/tail_amplitude_check.py --gamma 0.3,0.1
    python scripts/tail_amplitude_check.py --gamma 0.3,0.1 --csv tail.csv
"""

import argparse
import math
import sys

import numpy as np

from ttstar_toda import fit_tail_amplitude, solve_global, tail_amplitude_s1

SQ8 = 2.0 * math.sqrt(2.0)
MAX_REL_DEV = 0.01


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", default="0.3,0.1")
    ap.add_argument("--x0", type=float, default=0.01)
    ap.add_argument("--window", default="5.0,7.0")
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    gamma = tuple(float(t) for t in args.gamma.split(","))
    lo, hi = (float(t) for t in args.window.split(","))
    sol = solve_global(gamma, args.x0)
    s1 = tail_amplitude_s1(gamma)
    predicted = -s1 * 2.0 ** -1.75 / math.sqrt(math.pi)
    fitted = fit_tail_amplitude(sol, window=(lo, hi))

    print(f"gamma = {gamma}")
    print(f"s1 = {s1:+.8f}")
    print(f"predicted amplitude -s1 2^(-7/4)/sqrt(pi) = {predicted:+.8e}")
    print(f"fitted amplitude on [{lo}, {hi}]          = {fitted:+.8e}")
    deviation = 0.0
    if predicted != 0.0:
        deviation = abs(fitted - predicted) / abs(predicted)
        print(f"relative deviation                       = "
              f"{deviation:.3%} (bound {MAX_REL_DEV:.0%})")
    print(f"shooting residual {sol.diagnostics['residual']:.2e}, "
          f"match residual {sol.diagnostics['match_residual']:.2e}")

    if args.csv:
        xs = np.linspace(lo, hi, 81)
        with open(args.csv, "w") as fh:
            fh.write("x,w0,compensated\n")
            for x in xs:
                w0 = sol.state(float(x)).w[0]
                comp = w0 * math.sqrt(x) * math.exp(SQ8 * x)
                fh.write(f"{x:.17g},{w0:.17g},{comp:.17g}\n")
        print(f"wrote {args.csv}")
    return 0 if deviation <= MAX_REL_DEV else 1


if __name__ == "__main__":
    sys.exit(main())
