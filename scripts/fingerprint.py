#!/usr/bin/env python3
"""Bit-level fingerprint of the numerical results, for bit-identity claims.

Prints one JSON line holding a SHA-256 over the `float.hex` of:
- `c_numeric` and the work counts of `integrator_stats` (integrations,
  steps, rejected steps, RHS calls) of `constant_numeric` with a shared
  basis, at the 8 gammas of the CI constant sweep and at 40 draws from
  |gamma_i| <= 0.9 (numpy seed 12345); a draw that raises a typed error
  hashes the error's name instead;
- the arrays (xs, ys, hs, Q) and step counts of the two trajectories of
  `make_backward_basis()`;
- `reg_integral` at three x2 and `state` at three x of `solve_global(gamma,
  0.01)` for three gammas.

A change that claims to keep every result bit for bit runs this on the
parent commit and on the change and shows the same digest.  The counts
hashed are the four that every version reports, so a change that only
adds a counter keeps the digest.  Takes about two seconds.

Usage:
    PYTHONPATH=src python scripts/fingerprint.py
"""

import hashlib
import json
import sys

import numpy as np

from ttstar_toda import (BlowupError, GenericityError, GlobalSolveError,
                         constant_numeric, make_backward_basis, solve_global)

CI_GAMMAS = ((0.3, 0.1), (0.9, -0.4), (0.0, 0.8), (-0.825, 0.075), (0.0, 0.0),
             (-0.875, 0.4), (0.42223887, -0.69539036), (-0.88, 0.3))
DRAWS, DRAW_SEED, DRAW_RADIUS = 40, 12345, 0.9
STATS_KEYS = ("integrations", "steps", "rejected", "rhs_evals")
SOLVE_GAMMAS = ((0.3, 0.1), (0.1, -0.1), (-0.2, 0.4))
REG_X2 = (1.0, 4.0, 6.0)
STATE_X = (0.5, 3.0, 6.0)


def main() -> int:
    h = hashlib.sha256()

    def put(*values) -> None:
        for v in values:
            h.update((float(v).hex() if isinstance(v, float) else str(v)).encode())
            h.update(b";")

    def put_array(a) -> None:
        put(*np.asarray(a, dtype=float).ravel().tolist())

    basis = make_backward_basis()
    for traj in basis:
        for a in (traj.xs, traj.ys, traj.hs, traj.Q):
            put_array(a)
        put(traj.stats.n_steps, traj.stats.n_rejected, traj.stats.n_rhs_evals)

    rng = np.random.default_rng(DRAW_SEED)
    draws = [tuple(float(v) for v in rng.uniform(-DRAW_RADIUS, DRAW_RADIUS, 2))
             for _ in range(DRAWS)]
    failed = 0
    for gamma in CI_GAMMAS + tuple(draws):
        put(*gamma)
        try:
            rep = constant_numeric(gamma, basis=basis)
        except (BlowupError, GenericityError, GlobalSolveError) as exc:
            failed += 1
            put(type(exc).__name__)
            continue
        put(rep.c_numeric, *(rep.integrator_stats[k] for k in STATS_KEYS))

    for gamma in SOLVE_GAMMAS:
        sol = solve_global(gamma, 0.01, basis=basis)
        put(*(sol.reg_integral(x2) for x2 in REG_X2))
        for x in STATE_X:
            p = sol.state(x)
            put(*p.w, *p.wt)

    print(json.dumps({"sha256": h.hexdigest(), "constants": len(CI_GAMMAS) + DRAWS,
                      "failed": failed, "solves": len(SOLVE_GAMMAS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
