#!/usr/bin/env python3
"""Bit-level fingerprint of the numerical results, for bit-identity claims.

Prints one JSON line holding two SHA-256 digests over `float.hex` values:
- `constants`: `c_numeric` and the work counts of `integrator_stats`
  (integrations, steps, rejected steps, RHS calls) of `constant_numeric`
  at the 8 gammas of the CI constant gate (`cli.ACCEPTANCE_GAMMAS`) and at 40
  draws from |gamma_i| <= 0.9 (numpy seed 12345); a draw that raises a
  typed error hashes the error's name instead;
- `solves`: `reg_integral` at three x2 and `state` at three x of
  `solve_global(gamma, 0.01)` for three gammas.

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
from ttstar_toda.cli import ACCEPTANCE_GAMMAS
DRAWS, DRAW_SEED, DRAW_RADIUS = 40, 12345, 0.9
STATS_KEYS = ("integrations", "steps", "rejected", "rhs_evals")
SOLVE_GAMMAS = ((0.3, 0.1), (0.1, -0.1), (-0.2, 0.4))
REG_X2 = (1.0, 4.0, 6.0)
STATE_X = (0.5, 3.0, 6.0)


def main() -> int:
    digests = {"constants": hashlib.sha256(), "solves": hashlib.sha256()}

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

    h = digests["solves"]
    for gamma in SOLVE_GAMMAS:
        sol = solve_global(gamma, 0.01)
        put(h, *(sol.reg_integral(x2) for x2 in REG_X2))
        for x in STATE_X:
            p = sol.state(x)
            put(h, *p.w, *p.wt)

    print(json.dumps({**{k: d.hexdigest() for k, d in digests.items()},
                      "constants_n": len(ACCEPTANCE_GAMMAS) + DRAWS, "failed": failed,
                      "solves_n": len(SOLVE_GAMMAS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
