#!/usr/bin/env python3
"""Measure clock.SENSITIVITY: how much each kind of timed work slows when the
machine is in its slow state, relative to the reference kernel.

    python3 perfbench/calibrate.py --seconds 60

For each kind it times ops for --seconds under the sampling clock: "step" is
make_backward_basis() in a loop, "tau" and "maps" are the tau_profile and
maps_closed ops.  An op is in the slow state if most kernel samples next to
it are above clock.SLOW_SAMPLE_S.  The printed beta is the exponent at which
the median rescaled time of slow-state ops equals that of fast-state ops,
i.e. at which a run's median does not depend on its mix of states.  It needs
both states in the sampled period; run it again if one is missing.
"""

import argparse
import math
import statistics
import sys
from time import perf_counter

import run  # pins the thread pools before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from clock import REF_NOMINAL_S, SENSITIVITY, SLOW_SAMPLE_S, Clock, Stopwatch  # noqa: E402

MIN_OPS = 5   # per state


def step_ops(lib, clock: Clock, seconds: float):
    times, windows = [], []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        with Stopwatch(clock) as sw:
            lib.global_solutions.make_backward_basis()
        times.append(sw.seconds)
        windows.append(sw.window)
    return times, windows


def sampled(lib, kind: str, seconds: float):
    """(raw seconds, mean kernel time, slow?) of every op of `kind`."""
    clock = Clock()
    clock.start()
    try:
        if kind == "step":
            times, windows = step_ops(lib, clock, seconds)
        else:
            name = {"tau": "tau_profile", "maps": "maps_closed"}[kind]
            out = workloads.RUNNERS[name](lib, clock, 1, seconds)
            times, windows = out.op_s, out.op_w
    finally:
        clock.stop()
    ops = []
    for t, w in zip(times, windows):
        near = clock.near(*w)
        slow = sum(s > SLOW_SAMPLE_S for s in near) > len(near) / 2
        ops.append((t, statistics.fmean(near), slow))
    return ops


def crossing(ops) -> float | None:
    """beta at which slow- and fast-state ops have equal rescaled medians."""
    fast = [(t, k) for t, k, slow in ops if not slow]
    slow = [(t, k) for t, k, slow in ops if slow]
    if min(len(fast), len(slow)) < MIN_OPS:
        return None

    def gap(beta):   # decreasing in beta
        def med(group):
            return statistics.median(t * (REF_NOMINAL_S / k) ** beta for t, k in group)
        return math.log(med(slow) / med(fast))

    lo, hi = 0.0, 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=60.0, help="timed seconds per kind")
    args = ap.parse_args()
    lib = workloads.Library()
    for kind in SENSITIVITY:
        ops = sampled(lib, kind, args.seconds)
        n_slow = sum(slow for _t, _k, slow in ops)
        beta = crossing(ops)
        shown = "undetermined (one state missing)" if beta is None else f"{beta:.3f}"
        print(f"{kind}: beta {shown}; ops fast {len(ops) - n_slow}, slow {n_slow}; "
              f"in use {SENSITIVITY[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
