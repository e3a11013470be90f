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
the integrator's tolerance (1e-10) alone.  The bisection brackets rho* by
global_rho(1, (gamma0,)) +- 1.  It exits 1 if |measured - closed| exceeds
MAX_GAP at any gamma0 (the worst at the defaults is about 2e-12), or if a
bracket end has no converged seed.  That is still so at gamma0 = 0.9
(a = 0.2): the series at the lower end has not converged above x = 1e-8,
and the script says so and exits 1.  It exits 0 otherwise.

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
# leave about 2e-12 at the defaults
MAX_GAP = 1e-9


def blow_sign(gamma0: float, rho0: float, x0: float) -> int:
    a = AsymptoticData(1, (gamma0,), (rho0,))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, blowup_threshold=5.0)
    traj = integrate(init_from_asymptotics(a, x0), 14.0, cfg, 1)
    if traj.stop_reason != "blowup":
        return 0
    return 1 if traj.points[-1].w[0] > 0 else -1


def separatrix(gamma0: float, x0: float) -> float:
    centre = global_rho(1, (gamma0,))[0]
    lo, hi = centre - 1.0, centre + 1.0
    s_lo, s_hi = blow_sign(gamma0, lo, x0), blow_sign(gamma0, hi, x0)
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
    ap.add_argument("--gammas", default="0.1,0.3,0.5,0.7")
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
            print(f"{g:>8.3f} no seed in the bracket global_rho +- 1: {exc}")
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
