#!/usr/bin/env python3
"""Dynamics oracle for the smooth-family rho formula (n = 1).

For the n = 1 chain the globally smooth solutions form a one-parameter
family: for each gamma0 there is exactly one rho0 whose trajectory decays
at infinity; larger rho0 blows up to +inf, smaller to -inf.  This script
measures that separatrix by bisection on plain forward integrations and
compares it with the closed form rho = -gamma log 2 + log(X_1/X_0) on the
reversed data, plus the small-gamma slope (log 2 + euler_gamma) gamma
forced by matching the decaying Bessel mode of the linearized equation.
Each run starts from the small-x series seed (`init_from_asymptotics`),
which misses the orbit by less than 1e-13, so the measured rho* is set by
the integrator's tolerance (1e-10) alone.  Near the domain floor the seed
starts far out, |w0| ~ gamma0/2 |log x| (5.8 at gamma0 = 0.9, a = 0.2,
from x ~ 2e-7); the integrator judges blow-up against each run's own
start, past max(5, 1 + |seed w0|).  The bisection brackets rho* by
global_rho(1, (gamma0,)) +- h, halving h from 1 until the series has
converged above x = 1e-8 at both ends (h = 0.25 at gamma0 = 0.9).  It
exits 1 if |measured - closed| exceeds MAX_GAP at any gamma0 (the worst
at the defaults, 0.9 included, is about 5e-12), or if no bracket down to
h = 2^-10 has converged seeds at both ends.  It exits 0 otherwise.

Usage:
    python scripts/separatrix_check.py
    python scripts/separatrix_check.py --gammas 0.1,0.3,0.5 --x0 1e-4
"""

import argparse
import math
import sys

import numpy as np

from ttstar_toda import (AsymptoticData, GlobalSolveError, IntegratorConfig, global_rho,
                         init_from_asymptotics, integrate)

# bound on |measured - closed|: runs at rel_tol 1e-10 from the series seed
# leave about 5e-12 at the defaults
MAX_GAP = 1e-9
# the narrowest bracket half-width tried before giving up on a gamma0
MIN_HALF_WIDTH = 2.0 ** -10


def blow_sign(gamma0: float, rho0: float, x0: float) -> int:
    seed = init_from_asymptotics(AsymptoticData(1, (gamma0,), (rho0,)), x0)
    traj = integrate(seed, 14.0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12), 1)
    if traj.stop_reason != "blowup":
        return 0
    return 1 if traj.points[-1].w[0] > 0 else -1


def separatrix(gamma0: float, x0: float) -> float:
    centre, half = global_rho(1, (gamma0,))[0], 1.0
    while True:
        lo, hi = centre - half, centre + half
        try:
            s_lo, s_hi = blow_sign(gamma0, lo, x0), blow_sign(gamma0, hi, x0)
            break
        except GlobalSolveError:
            if half <= MIN_HALF_WIDTH:
                raise
            half *= 0.5
    if s_lo == s_hi:
        raise RuntimeError("bracketing failed")
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        s = blow_sign(gamma0, mid, x0)
        if s == 0:
            return mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gammas", default="0.1,0.3,0.5,0.7,0.9")
    ap.add_argument("--x0", type=float, default=1e-4)
    args = ap.parse_args()

    slope = math.log(2.0) + float(np.euler_gamma)
    print(f"{'gamma0':>8s} {'measured rho*':>15s} {'closed form':>15s} "
          f"{'linearized':>12s} {'meas-closed':>12s}")
    worst = 0.0
    for tok in args.gammas.split(","):
        g = float(tok)
        try:
            meas = separatrix(g, args.x0)
        except GlobalSolveError as exc:
            print(f"{g:>8.3f} no converged seed at both ends of global_rho +- "
                  f"{MIN_HALF_WIDTH:g}: {exc}")
            worst = math.inf
            continue
        closed = global_rho(1, (g,))[0]
        print(f"{g:>8.3f} {meas:>15.6f} {closed:>15.6f} "
              f"{slope * g:>12.6f} {meas - closed:>12.2e}")
        worst = max(worst, abs(meas - closed))
    print(f"worst |measured - closed| = {worst:.2e} (bound {MAX_GAP:g})")
    return 0 if worst <= MAX_GAP else 1


if __name__ == "__main__":
    sys.exit(main())
