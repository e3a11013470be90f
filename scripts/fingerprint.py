#!/usr/bin/env python3
"""Bit-level fingerprint of the numerical results, for bit-identity claims.

Prints one JSON line holding four SHA-256 digests over `float.hex` values:
- `constants`: `c_numeric` and the work counts of `integrator_stats`
  (integrations, steps, rejected steps, RHS calls) of `constant_numeric`
  at the 8 gammas of the CI constant gate (`verify.ACCEPTANCE_GAMMAS`, the
  constant suite's fixed list) and at 40 draws from |gamma_i| <= 0.9
  (numpy seed 12345); a draw that raises a typed error hashes the error's
  name instead;
- `solves`: `reg_integral` at three x2 and `state` at three x of
  `solve_global(gamma, 0.01)` for three gammas;
- `maps`: the closed-form layer at 20 generic gammas per n = 1..6, each
  with a rho (numpy seed 2718): `log_e` of `asymptotic_to_monodromy`, `rho`
  of the round trip back, `global_rho`, `gen_fun_F` at the smooth family,
  the `verify_generating_function` residuals and the `verify_symplectic`
  matrix;
- `reads`: the read path of the three solutions of `solves`, over
  seeded grids (numpy seed 38): `forward.sample_state` on a 1-D and on a
  2-D grid over [x0, 4.2], `tail_state` on an array over [4.2, 9], and
  `state` at 20 scalar x over [x0, 9].

A change that claims to keep every result bit for bit runs this on the
parent commit and on the change and shows the same digests; a change that
moves only the tail beyond x = 4.2 (the `solves` reads at x = 6) can still
show its constants bit-identical.  The counts hashed are the four that
every version reports, so a change that only adds a counter keeps the
digests.  Takes about two seconds.

Usage:
    PYTHONPATH=src python scripts/fingerprint.py
"""

import hashlib
import json
import sys

import numpy as np

from ttstar_toda import (BlowupError, GenericityError, GlobalSolveError,
                         constant_numeric, solve_global)
from ttstar_toda import data_maps as dm
from ttstar_toda.verify import ACCEPTANCE_GAMMAS
DRAWS, DRAW_SEED, DRAW_RADIUS = 40, 12345, 0.9
STATS_KEYS = ("integrations", "steps", "rejected", "rhs_evals")
SOLVE_GAMMAS = ((0.3, 0.1), (0.1, -0.1), (-0.2, 0.4))
REG_X2 = (1.0, 4.0, 6.0)
STATE_X = (0.5, 3.0, 6.0)
READS_SEED, READS_GRID, READS_2D, READS_TAIL, READS_STATES = 38, 64, (8, 6), 40, 20
MAPS_N, MAPS_DRAWS, MAPS_SEED = range(1, 7), 20, 2718
MAPS_SCALE, MAPS_MARGIN = 0.45, 5e-3   # as the benchmark's maps_closed draws


def main() -> int:
    digests = {"constants": hashlib.sha256(), "solves": hashlib.sha256(),
               "maps": hashlib.sha256(), "reads": hashlib.sha256()}

    def put(h, *values) -> None:
        for v in values:
            h.update((float(v).hex() if isinstance(v, float) else str(v)).encode())
            h.update(b";")

    rng = np.random.default_rng(DRAW_SEED)
    draws = [tuple(float(v) for v in rng.uniform(-DRAW_RADIUS, DRAW_RADIUS, 2))
             for _ in range(DRAWS)]
    failed, h = 0, digests["constants"]
    for gamma in ACCEPTANCE_GAMMAS + tuple(draws):
        put(h, *gamma)
        try:
            rep = constant_numeric(gamma)
        except (BlowupError, GenericityError, GlobalSolveError) as exc:
            failed += 1
            put(h, type(exc).__name__)
            continue
        put(h, rep.c_numeric, *(rep.integrator_stats[k] for k in STATS_KEYS))

    h, sols = digests["solves"], [solve_global(gamma, 0.01) for gamma in SOLVE_GAMMAS]
    for sol in sols:
        put(h, *(sol.reg_integral(x2) for x2 in REG_X2))
        for x in STATE_X:
            p = sol.state(x)
            put(h, *p.w, *p.wt)

    h, rng = digests["reads"], np.random.default_rng(READS_SEED)
    for sol in sols:
        x0, xs, xr = sol.x0, sol.x_switch, sol.x_right
        for grid in (rng.uniform(x0, xs, READS_GRID), rng.uniform(x0, xs, READS_2D)):
            put(h, *sol.forward.sample_state(grid).ravel().tolist())
        put(h, *sol.tail_state(rng.uniform(xs, xr, READS_TAIL)).ravel().tolist())
        for x in rng.uniform(x0, xr, READS_STATES):
            p = sol.state(x)
            put(h, *p.w, *p.wt)

    h = digests["maps"]
    rng = np.random.default_rng(MAPS_SEED)
    for n in MAPS_N:
        L = dm.reduced_length(n)
        for _ in range(MAPS_DRAWS):
            while True:
                gamma = tuple(float(v) for v in rng.uniform(-MAPS_SCALE, MAPS_SCALE, L))
                try:
                    dm.check_genericity(n, gamma, margin=MAPS_MARGIN)
                    break
                except GenericityError:
                    continue
            rho = tuple(float(v) for v in rng.uniform(-1.0, 1.0, L))
            md = dm.asymptotic_to_monodromy(dm.AsymptoticData(n, gamma, rho))
            rho_s = dm.global_rho(n, gamma)
            put(h, *gamma, *rho, *md.log_e, *dm.monodromy_to_asymptotic(md).rho, *rho_s,
                dm.gen_fun_F(n, rho_s, [-0.5 * g for g in gamma]),
                *dm.verify_generating_function(n, gamma, rho).residuals,
                *(v for row in dm.verify_symplectic(n, gamma).matrix for v in row))

    print(json.dumps({**{k: d.hexdigest() for k, d in digests.items()},
                      "constants_n": len(ACCEPTANCE_GAMMAS) + DRAWS, "failed": failed,
                      "solves_n": len(SOLVE_GAMMAS), "maps_n": len(MAPS_N) * MAPS_DRAWS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
