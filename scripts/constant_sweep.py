#!/usr/bin/env python3
"""Sweep the connection constant over a gamma grid.

For each gamma the constant is computed two independent ways: by
regularized quadrature along the numerically computed global solution
(one solve where the small-x series has converged, else x1 -> 0
extrapolation over three) and from the closed form built on the
generating function.  x1 is the smallest x1 solved at (the one solve's
own, or 6.25e-4 under the fit), K the order of the series there and p
the fitted exponent (inf from one solve).  Emits one JSON line per point
and a summary table.
A gamma whose solve fails, or that lies below the working domain's floor
a(gamma) >= 0.2, is printed as a failed row and the sweep goes on; the
exit code is 4 (as `ttstar constant`'s verification failure) if
any gamma failed or has |c_numeric - c_closed| above 1e-3.

Usage:
    python scripts/constant_sweep.py
    python scripts/constant_sweep.py --gammas "0.3,0.1;0.1,-0.1" --out sweep.jsonl
    python scripts/constant_sweep.py --gammas=-0.825,0.075   # '=' before a leading minus
"""

import argparse
import json
import sys
import time

from ttstar_toda import (BlowupError, ExtrapolationError, GenericityError,
                        GlobalSolveError, constant_numeric, make_backward_basis)

EXIT_VERIFY = 4
ABS_DIFF_MAX = 1e-3
DEFAULT_GRID = "0,0;0.3,0.1;0.1,-0.1;0.5,0.2;-0.2,0.4;0.25,-0.35"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gammas", default=DEFAULT_GRID,
                    help="semicolon-separated gamma pairs, e.g. '0.3,0.1;0.1,-0.1'")
    ap.add_argument("--x2", type=float, default=7.0)
    ap.add_argument("--out", default=None, help="JSON-lines output path")
    args = ap.parse_args()

    pairs = [tuple(float(t) for t in chunk.split(","))
             for chunk in args.gammas.split(";") if chunk]
    basis = make_backward_basis()
    sink = open(args.out, "w") if args.out else None

    print(f"{'gamma':>16s} {'c_numeric':>15s} {'c_closed':>15s} "
          f"{'abs_diff':>10s} {'x1':>8s} {'K':>2s} {'p':>6s} {'sec':>5s}")
    worst = 0.0
    failed = []
    for g in pairs:
        t0 = time.perf_counter()
        try:
            rep = constant_numeric(g, x2=args.x2, basis=basis)
        except (BlowupError, ExtrapolationError, GenericityError, GlobalSolveError) as exc:
            failed.append(g)
            print(f"{str(g):>16s} failed: {type(exc).__name__}: {exc}")
            if sink:
                sink.write(json.dumps({"gamma": list(g), "error": type(exc).__name__,
                                       "message": str(exc)}) + "\n")
            continue
        dt = time.perf_counter() - t0
        worst = max(worst, rep.abs_diff)
        if not rep.abs_diff <= ABS_DIFF_MAX:
            failed.append(g)
        print(f"{str(g):>16s} {rep.c_numeric:>15.10f} {rep.c_closed:>15.10f} "
              f"{rep.abs_diff:>10.2e} {rep.x1_grid[-1]:>8.3g} {rep.series_order:>2d} "
              f"{rep.extrapolation_exponent:>6.2f} "
              f"{dt:>5.1f}")
        if sink:
            sink.write(json.dumps(rep.to_json_dict()) + "\n")
    if sink:
        sink.close()
    print(f"\nworst |c_numeric - c_closed| = {worst:.3e}, {len(failed)} failed or inaccurate")
    return EXIT_VERIFY if failed else 0


if __name__ == "__main__":
    sys.exit(main())
