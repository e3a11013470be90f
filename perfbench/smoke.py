#!/usr/bin/env python3
"""Smoke test of the benchmark: each workload at a tiny seeded size, traced, twice.

    python3 perfbench/smoke.py

Asserts, per workload:
- the traced hamiltonian_flow.rhs_evals, summed from the returned
  Trajectory.stats, equals an independent count: the calls of the vector
  field made inside the integration spans, counted by wrapping the
  callable that hamiltonian_flow._make_rhs returns;
- every work count (counters and call counts) repeats exactly between the
  two runs, as do attempted and failed;
- no self time is negative, and the tracer restored every name it rebound;
- the metric names and units printed match BENCHMARK.json.

It is a script rather than a pytest module so that the Tier-1 suite does not
collect it.  Takes about a minute.
"""

import json
import sys

import run  # pins the thread pools before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

SIZES = {"constant_sweep": 1, "tau_profile": 2, "maps_closed": 4}
SEED = 12345


def measured(lib, workload: str, tracer=None):
    clock = Clock()
    clock.start()
    try:
        return workloads.RUNNERS[workload](lib, clock, SEED, 0.0, tracer,
                                           max_ops=SIZES[workload])
    finally:
        clock.stop()


def count_rhs_calls(tracer, flow) -> list:
    """Count vector-field calls made directly inside an integration span of
    the measured phase; reg_density's single call runs in its own span."""
    calls = [0]
    make_rhs = flow._make_rhs
    integrate = tracer._intern("hamiltonian_flow.integrate")

    def counting_make_rhs(n, even_variant):
        f, L = make_rhs(n, even_variant)

        def counted(x, y):
            stack = tracer._stack
            if tracer.op > 0 and stack and stack[-1][0] == integrate:
                calls[0] += 1
            return f(x, y)

        return counted, L

    tracer._restore.append((flow, "_make_rhs", make_rhs))
    flow._make_rhs = counting_make_rhs
    return calls


def traced(lib, workload: str):
    tracer = tracing.Tracer()
    tracing.install(tracer, lib)
    rhs_calls = count_rhs_calls(tracer, lib.hamiltonian_flow)
    rebound = list(tracer._restore)
    try:
        out = measured(lib, workload, tracer)
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    return tracer, out, rhs_calls[0]


def declared(section: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main() -> int:
    lib = workloads.Library()
    for workload in SIZES:
        (t1, o1, rhs1), (t2, o2, rhs2) = traced(lib, workload), traced(lib, workload)
        assert not o1.fatal, o1.fatal
        for t, rhs_calls in ((t1, rhs1), (t2, rhs2)):
            traced_rhs = t.counts.get("rhs_evals", 0)
            assert traced_rhs == rhs_calls, (traced_rhs, rhs_calls)
            assert all(v >= -1e-9 for v in t.self_time.values()), t.self_time
        assert t1.counts == t2.counts, (t1.counts, t2.counts)
        assert t1.calls == t2.calls, (t1.calls, t2.calls)
        assert (o1.attempted, o1.failed) == (o2.attempted, o2.failed)
        layer = run.per_layer(t1, o1)
        assert {k: v["unit"] for k, v in layer.items()} == declared("per_layer")
        print(f"{workload}: attempted={o1.attempted} failed={o1.failed} "
              f"integrations={layer['hamiltonian_flow.integrations']['value']} "
              f"rhs_evals={layer['hamiltonian_flow.rhs_evals']['value']} "
              f"sample_state.calls={layer['hamiltonian_flow.sample_state.calls']['value']} "
              f"psi_m2.calls={layer['special_functions.psi_m2.calls']['value']} "
              f"reported_rhs_share={layer['tau_constant.reported_rhs_share']['value']:.4f}")
    out = measured(lib, "maps_closed")
    e2e = run.end_to_end(out, 0.0, out.basis_w[0])
    assert {k: v["unit"] for k, v in e2e.items()} == declared("end_to_end")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
