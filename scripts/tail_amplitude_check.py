#!/usr/bin/env python3
"""Compare the large-x tail amplitude of a global solution with the
trigonometric closed form.

The decaying solution behaves like w_i ~ a x^(-1/2) exp(-2 sqrt2 x) with
a = -s1 2^(-7/4) / sqrt(pi) and s1 = -2cos(pi(g0+1)/4) - 2cos(pi(g1+3)/4).
The solve's tail is amp_sum K0(2 sqrt2 x) (1, 1) + amp_diff K0(4 x) (1, -1),
so the exact x -> inf limit of w_0 sqrt(x) exp(2 sqrt2 x) is
amp_sum sqrt(pi) 2^(-5/4).  The script compares that limit with a, and
optionally dumps the compensated tail w_0 sqrt(x) exp(2 sqrt2 x) on
[5, 7] as CSV.  It exits 1 if the limit deviates from a by more than
MAX_REL_DEV = 1e-6 relative (3.3e-9 at the defaults), and 0 otherwise;
where s1 = 0 there is no relative deviation to bound.

Usage:
    python scripts/tail_amplitude_check.py --gamma 0.3,0.1
    python scripts/tail_amplitude_check.py --gamma 0.3,0.1 --csv tail.csv
"""

import argparse
import math
import sys

import numpy as np

from ttstar_toda import solve_global, tail_amplitude_s1

SQ8 = 2.0 * math.sqrt(2.0)
MAX_REL_DEV = 1e-6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", default="0.3,0.1")
    ap.add_argument("--x0", type=float, default=0.01)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    gamma = tuple(float(t) for t in args.gamma.split(","))
    sol = solve_global(gamma, args.x0)
    s1 = tail_amplitude_s1(gamma)
    predicted = -s1 * 2.0 ** -1.75 / math.sqrt(math.pi)
    limit = sol.amp_sum * math.sqrt(math.pi) * 2.0 ** -1.25

    print(f"gamma = {gamma}")
    print(f"s1 = {s1:+.8f}")
    print(f"predicted amplitude -s1 2^(-7/4)/sqrt(pi) = {predicted:+.15e}")
    print(f"amp_sum sqrt(pi) 2^(-5/4)                = {limit:+.15e}")
    deviation = 0.0
    if predicted != 0.0:
        deviation = abs(limit - predicted) / abs(predicted)
        print(f"relative deviation                       = "
              f"{deviation:.2e} (bound {MAX_REL_DEV:g})")
    print(f"shooting residual {sol.diagnostics['residual']:.2e}, "
          f"match residual {sol.diagnostics['match_residual']:.2e}")

    if args.csv:
        xs = np.linspace(5.0, 7.0, 81)
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
