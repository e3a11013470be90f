#!/usr/bin/env python3
"""ttstar-toda benchmark: one workload, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload constant_sweep --seed 1 --seconds 20 --trace 0

Workloads are described in perfbench/workloads.py, the layer -> metric ->
workload map in perfbench/README.md.  With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 the layer boundaries are
wrapped (perfbench/tracing.py) and it carries the per-layer metrics.  The
line before it is a run record: environment, inputs digest and the
workload's own figures.  Times are rescaled to a reference machine speed
sampled during the run (perfbench/clock.py); the raw ones are in the
record.  Generated inputs and, when traced, the spans are written under
.perfbench_out/.

Exit codes: 0 ran and every output was either correct or counted as a
failed op; 1 a check failed outside any op (the result line says
"correct": false); 2 bad arguments or no library sources to run.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("constant_sweep", "tau_profile", "maps_closed")


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "machine": platform.machine(),
           "git_commit": _git_commit(), "src_sha256": _src_digest()}
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    try:
        import mpmath
        env["mpmath"] = mpmath.__version__
    except ImportError:
        env["mpmath"] = None
    return env


def timings(out, import_s: float, import_w: tuple, scaled: bool) -> dict:
    """setup_s, op_ms_p50 and ops_per_s, rescaled to reference speed or raw."""
    pick = out.scaled if scaled else (lambda times, _windows, _kind=None: times)
    ops = pick(out.op_s, out.op_w)
    setup_s = (pick([import_s], [import_w], "step")[0]
               + statistics.median(pick(out.basis_s, out.basis_w, "step"))
               + sum(pick(out.solve_s, out.solve_w, "step")))
    return {"setup_s": setup_s, "op_ms_p50": 1e3 * statistics.median(ops),
            "ops_per_s": len(ops) / sum(ops)}


def end_to_end(out, import_s: float, import_w: tuple) -> dict:
    t = timings(out, import_s, import_w, scaled=True)
    return {
        "setup_s": {"value": t["setup_s"], "unit": "s"},
        "op_ms_p50": {"value": t["op_ms_p50"], "unit": "ms"},
        "ops_per_s": {"value": t["ops_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": out.peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, out) -> dict:
    """Per-layer metrics of a traced run (see README.md for the layer map)."""
    c, t = tracer.counts, tracer
    integrations = c.get("integrations", 0)
    rhs = c.get("rhs_evals", 0)
    integrate_s = t.total.get("hamiltonian_flow.integrate", 0.0)
    solves = t.calls.get("global_solutions.solve_global", 0)

    def calls(name):
        return t.calls.get(name, 0), "count"

    def detail(key):
        v = out.details.get(key, 0.0)
        return v["value"] if isinstance(v, dict) else v

    m = {
        "hamiltonian_flow.integrations": (integrations, "count"),
        "hamiltonian_flow.steps": (c.get("steps", 0), "count"),
        "hamiltonian_flow.rejected_steps": (c.get("rejected_steps", 0), "count"),
        "hamiltonian_flow.rhs_evals": (rhs, "count"),
        "hamiltonian_flow.integrate_s": (integrate_s, "s"),
        "hamiltonian_flow.us_per_rhs": (1e6 * integrate_s / rhs if rhs else 0.0, "us"),
        "hamiltonian_flow.completed_ratio":
            (c.get("completed", 0) / integrations if integrations else 0.0, "ratio"),
        "hamiltonian_flow.sample_state.calls": calls("hamiltonian_flow.sample_state"),
        "hamiltonian_flow.sample_state_us": (t.mean_us("hamiltonian_flow.sample_state"), "us"),
        "hamiltonian_flow.reg_density.calls": calls("hamiltonian_flow.reg_density"),
        "hamiltonian_flow.reg_density_us": (t.mean_us("hamiltonian_flow.reg_density"), "us"),
        "global_solutions.solve_global.calls": (solves, "count"),
        "global_solutions.solve_global.self_s":
            (t.self_time.get("global_solutions.solve_global", 0.0), "s"),
        "global_solutions.newton_iterations": (c.get("newton_iterations", 0), "count"),
        "global_solutions.integrations_per_solve":
            (integrations / solves if solves else 0.0, "count"),
        "global_solutions.failures": (t.failures.get("global_solutions.solve_global", 0), "count"),
        "global_solutions.match_residual_max": (c.get("match_residual_max", 0.0), "rel"),
        "global_solutions.make_backward_basis_s":
            (statistics.median(out.scaled(out.basis_s, out.basis_w, "step")), "s"),
        "global_solutions.reg_integral.calls": calls("global_solutions.reg_integral"),
        "global_solutions.reg_integral.self_us":
            (t.mean_us("global_solutions.reg_integral", self_only=True), "us"),
        "global_solutions.state.calls": calls("global_solutions.state"),
        "global_solutions.state.self_us":
            (t.mean_us("global_solutions.state", self_only=True), "us"),
        "tau_constant.constant_numeric.calls": calls("tau_constant.constant_numeric"),
        "tau_constant.constant_numeric.self_s":
            (t.self_time.get("tau_constant.constant_numeric", 0.0), "s"),
        "tau_constant.extrapolation_failures": (detail("extrapolation_failures"), "count"),
        "tau_constant.reported_rhs_share": (detail("reported_rhs_share"), "ratio"),
        "tau_constant.constant_fail_ratio": (detail("constant_fail_ratio"), "ratio"),
        "tau_constant.abs_diff_max": (detail("constant_abs_diff_max"), "abs"),
        "tau_constant.constant_closed.calls": calls("tau_constant.constant_closed"),
        "tau_constant.constant_closed_us": (t.mean_us("tau_constant.constant_closed"), "us"),
        "data_maps.gen_fun_F.calls": calls("data_maps.gen_fun_F"),
        "data_maps.gen_fun_F_us": (t.mean_us("data_maps.gen_fun_F"), "us"),
        "data_maps.verify_generating_function_us":
            (t.mean_us("data_maps.verify_generating_function"), "us"),
        "data_maps.verify_symplectic_us": (t.mean_us("data_maps.verify_symplectic"), "us"),
        "special_functions.psi_m2.calls": calls("special_functions.psi_m2"),
        "special_functions.psi_m2_us": (t.mean_us("special_functions.psi_m2"), "us"),
        "special_functions.log_gamma.calls": calls("special_functions.log_gamma"),
        "bench.ops": (len(out.op_s), "count"),
        "bench.op_ms_p50_traced":
            (1e3 * statistics.median(out.scaled(out.op_s, out.op_w)), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "ttstar_toda" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import workloads
    from clock import REF_NOMINAL_S, SENSITIVITY, SLOW_SAMPLE_S, Clock
    lib = workloads.Library()
    import_w = (t0, perf_counter())
    import_s = import_w[1] - t0
    if Path(lib.package.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported {lib.package.__file__}, not the sources under {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)
    clock = Clock()
    clock.start()
    try:
        out = workloads.RUNNERS[args.workload](lib, clock, args.seed, args.seconds, tracer)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()

    correct = not out.fatal
    if not out.op_s:
        correct = False
        out.fatal.append("no op ran")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_sha = hashlib.sha256(json.dumps(out.inputs, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "inputs_sha256": inputs_sha, "inputs_file": f".perfbench_out/{tag}.json",
        "import_s": import_s, "basis_s": out.basis_s, "solve_s": out.solve_s,
        "measure_s": out.measure_s,
        "raw": timings(out, import_s, import_w, scaled=False) if out.op_s else None,
        "slow_share": out.clock.slow_share(),
        "reference_s": {"nominal": REF_NOMINAL_S, "slow_above": SLOW_SAMPLE_S,
                        "sensitivity": SENSITIVITY, "kind": out.kind,
                        "samples": out.clock.samples},
        "details": out.details,
        "failures": out.failures, "fatal": out.fatal, "per_op": out.per_op,
    }
    if args.workload == "constant_sweep":
        record["inputs"] = out.inputs
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(dict(record, inputs=out.inputs), fh)
    if tracer is not None:
        tracer.write(str(OUT_DIR / f"{tag}-spans.npz"), {"workload": args.workload,
                                                        "seed": args.seed})
    metrics = {}
    if correct:
        metrics = (per_layer(tracer, out) if tracer is not None
                   else end_to_end(out, import_s, import_w))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
