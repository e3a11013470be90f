"""The benchmark's three workloads: set-up, timed loop, and output checks.

Each workload draws its inputs from `np.random.default_rng(seed)` and
passes only those inputs to the library.  One *op* is the unit a user waits
for, and its wall time is one latency sample:

- constant_sweep: one `constant_numeric(gamma, basis=shared)`.  The fixed
  gammas (five acceptance gammas, then two known failures) come first, then
  seeded draws from |gamma_i| <= 0.9, at least one, until the time is up.
  All eight always run, so a run measures ~30-60 s whatever `seconds` is;
  a longer `seconds` only adds draws.  Stepping inside shooting is ~99% of
  the time: stepper, kernel and shooting changes show here.
- tau_profile: one profile read of a global solution solved at set-up:
  log tau(x0, x2) on a seeded grid of TAU_PER_OP x2 over (x0, x_right] and
  the state on a seeded grid of STATES_PER_OP x over [x0, x_right).  No
  stepping; it reads the dense output and runs the tail quadrature.  Each
  grid is stratified (one jittered point per equal cell), so every op covers
  the whole range and costs about the same: a lone x2 below or above the
  tail switch costs 0.02 ms or ~12 ms.
- maps_closed: one sweep over n = 1..6 of the closed-form maps, each n with
  fresh seeded data.  Only special_functions and data_maps run.  A sweep,
  not a single n, is the op because op times differ 14-fold across n and a
  median over single-n ops sits between modes.

Counted failures (a typed library error, or an output that fails its check)
go into `failed`; anything else is fatal and makes the run exit non-zero.
"""

from __future__ import annotations

import importlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from clock import Clock, Stopwatch

ACCEPTANCE_GAMMAS = ((0.3, 0.1), (0.1, -0.1), (0.5, 0.2), (-0.2, 0.4), (0.25, -0.35))
KNOWN_FAILURES = ((0.0, 0.8), (0.9, -0.4))
FIXED_GAMMAS = ACCEPTANCE_GAMMAS + KNOWN_FAILURES
MIN_DRAWS = 1
DRAW_RADIUS = 0.9          # n = 3 genericity square |gamma_i| <= 0.9
BASIS_REPS = 5             # set-up repetitions behind the setup_s median
TAU_GAMMAS = 3
TAU_RADIUS = 0.5
TAU_X0 = 0.01
TAU_PER_OP = 8
STATES_PER_OP = 100
TAU_QUAD_POINTS = 3        # x2 checked by quadrature per solution: first, middle, last cell
MAPS_N = range(1, 7)
MAPS_SCALE, MAPS_MARGIN = 0.45, 5e-3   # as random_generic in the acceptance tests
MP_CLOSED_CHECKS = 3       # maps_closed: constant_closed ops checked with mpmath
PSI_SPOT_CHECKS = 4


class Library:
    """The library modules, imported once; calls go through module attributes
    so the tracer's rebinding reaches them."""

    def __init__(self):
        pkg = "ttstar_toda"
        self.package = importlib.import_module(pkg)
        for mod in ("special_functions", "data_maps", "hamiltonian_flow",
                    "global_solutions", "tau_constant"):
            setattr(self, mod, importlib.import_module(f"{pkg}.{mod}"))
        tc = self.tau_constant
        self.expected_errors = (tc.BlowupError, tc.ExtrapolationError,
                                self.global_solutions.GlobalSolveError)


@dataclass
class Outcome:
    clock: Clock
    kind: str                # clock.SENSITIVITY key of the timed ops
    attempted: int = 0
    failed: int = 0
    # wall times net of clock sampling, each with its (start, end) window
    op_s: list = field(default_factory=list)
    op_w: list = field(default_factory=list)
    measure_s: float = 0.0
    basis_s: list = field(default_factory=list)
    basis_w: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    solve_w: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    fatal: list = field(default_factory=list)
    per_op: list = field(default_factory=list)

    def scaled(self, times: list, windows: list, kind: str | None = None) -> list:
        """Rescaled times of ops (default) or of another kind of work."""
        kind = kind or self.kind
        return [self.clock.scale(t, *w, kind) for t, w in zip(times, windows)]

    def fail(self, op: int, what, reason: str) -> None:
        """Record a failed check; an op counts once however many of its checks fail."""
        if all(f["op"] != op for f in self.failures):
            self.failed += 1
        self.failures.append({"op": op, "input": what, "reason": reason[:300]})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_op(tracer, op: int) -> None:
    if tracer is not None:
        tracer.op = op


def _basis(lib: Library, out: Outcome):
    for _ in range(BASIS_REPS):
        with Stopwatch(out.clock) as sw:
            basis = lib.global_solutions.make_backward_basis()
        out.basis_s.append(sw.seconds)
        out.basis_w.append(sw.window)
    return basis


def _keep_going(i: int, t0: float, seconds: float, max_ops, min_ops: int = 1) -> bool:
    if max_ops is not None:
        return i < max_ops
    return i < min_ops or perf_counter() - t0 < seconds


def _end_measure(out: Outcome, t0: float, tracer) -> None:
    out.measure_s = perf_counter() - t0
    out.clock.stop()
    out.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()   # checks below call the library untraced


def _err(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------

def constant_sweep(lib: Library, clock: Clock, seed: int, seconds: float,
                   tracer=None, max_ops=None) -> Outcome:
    out = Outcome(clock, "step")
    basis = _basis(lib, out)
    rng = np.random.default_rng(seed)
    runs = []
    t0 = perf_counter()
    while _keep_going(len(runs), t0, seconds, max_ops, len(FIXED_GAMMAS) + MIN_DRAWS):
        i = len(runs)
        if i < len(FIXED_GAMMAS):
            gamma = FIXED_GAMMAS[i]
        else:
            gamma = tuple(float(v) for v in rng.uniform(-DRAW_RADIUS, DRAW_RADIUS, 2))
        _set_op(tracer, i + 1)
        with Stopwatch(out.clock) as sw:
            try:
                rep, err = lib.tau_constant.constant_numeric(gamma, basis=basis), None
            except lib.expected_errors as exc:
                rep, err = None, exc
        out.op_s.append(sw.seconds)
        out.op_w.append(sw.window)
        runs.append((gamma, rep, err))
    _end_measure(out, t0, tracer)

    out.attempted = len(runs)
    out.inputs = {"gammas": [list(g) for g, _, _ in runs]}
    abs_diff_accept, reported_rhs, traced_rhs = [], 0, 0
    extrapolation_failures = 0
    for i, (gamma, rep, err) in enumerate(runs):
        row = {"gamma": list(gamma), "raw_seconds": out.op_s[i],
               "seconds": out.clock.scale(out.op_s[i], *out.op_w[i], out.kind)}
        if err is not None:
            extrapolation_failures += isinstance(err, lib.tau_constant.ExtrapolationError)
            row["outcome"] = type(err).__name__
            out.fail(i + 1, list(gamma), _err(err))
        else:
            c_ref = lib.tau_constant.constant_closed(gamma)
            c_mp = checks.constant_closed_mp(gamma)
            diff = abs(rep.c_numeric - c_ref)
            row.update(abs_diff=diff, c_numeric=rep.c_numeric, c_closed=c_ref,
                       reported_rhs_evals=rep.integrator_stats["rhs_evals"])
            if not diff <= checks.CONSTANT_ABS_DIFF_MAX:
                row["outcome"] = "inaccurate"
                out.fail(i + 1, list(gamma), f"|c_numeric - c_closed| = {diff:.3e}")
            elif not abs(c_ref - c_mp) <= checks.CLOSED_FORM_ABS_MAX:
                row["outcome"] = "closed_form_mismatch"
                out.fail(i + 1, list(gamma), f"constant_closed - mpmath = {c_ref - c_mp:.3e}")
            else:
                row["outcome"] = "ok"
            if gamma in ACCEPTANCE_GAMMAS:
                abs_diff_accept.append(diff)
            if tracer is not None:
                reported_rhs += rep.integrator_stats["rhs_evals"]
                traced_rhs += tracer.op_counts.get(i + 1, {}).get("rhs_evals", 0)
        if tracer is not None:
            row.update(tracer.op_counts.get(i + 1, {}))
        out.per_op.append(row)

    out.details = {
        "constant_s_p50": {"value": statistics.median(out.scaled(out.op_s, out.op_w)),
                           "unit": "s"},
        "constant_fail_ratio": {"value": out.failed / out.attempted, "unit": "ratio"},
        # an acceptance gamma that fails is counted in `failed` instead
        "constant_abs_diff_max": {"value": max(abs_diff_accept, default=0.0),
                                  "unit": "abs"},
        "extrapolation_failures": extrapolation_failures,
    }
    if tracer is not None:
        out.details["reported_rhs_share"] = reported_rhs / traced_rhs if traced_rhs else 0.0
    return out


# ----------------------------------------------------------------------

def tau_profile(lib: Library, clock: Clock, seed: int, seconds: float,
                tracer=None, max_ops=None) -> Outcome:
    out = Outcome(clock, "tau")
    basis = _basis(lib, out)
    rng = np.random.default_rng(seed)
    gammas = [tuple(float(v) for v in rng.uniform(-TAU_RADIUS, TAU_RADIUS, 2))
              for _ in range(TAU_GAMMAS)]
    sols = []
    for k, gamma in enumerate(gammas):
        with Stopwatch(out.clock) as sw:
            try:
                sols.append((gamma, lib.global_solutions.solve_global(gamma, TAU_X0,
                                                                      basis=basis)))
            except lib.expected_errors as exc:
                out.attempted += 1   # set-up solve k counts as op -(k + 1)
                out.fail(-(k + 1), list(gamma), "set-up solve: " + _err(exc))
        out.solve_s.append(sw.seconds)
        out.solve_w.append(sw.window)
    if not sols:
        out.fatal.append("no global solution could be set up")
        return out

    grids = []     # (solution, x2s, xs) of every op, echoed as the inputs
    to_quad = {}   # solution -> (op, x2s, log taus) of its first op
    parts = []     # (tau seconds, window, state seconds, window) of every op
    t0 = perf_counter()
    while _keep_going(len(grids), t0, seconds, max_ops):
        i = len(grids)
        k = i % len(sols)
        sol = sols[k][1]
        x0, xr = sol.x0, sol.x_right
        x2s = x0 + (xr - x0) * (np.arange(1, TAU_PER_OP + 1)
                                - rng.random(TAU_PER_OP)) / TAU_PER_OP     # (x0, x_right]
        xs = x0 + (xr - x0) * (np.arange(STATES_PER_OP)
                               + rng.random(STATES_PER_OP)) / STATES_PER_OP  # [x0, x_right)
        _set_op(tracer, i + 1)
        with Stopwatch(out.clock) as sw_tau:
            taus = [sol.reg_integral(x2) - (x2 * x2 - x0 * x0) for x2 in x2s]
        with Stopwatch(out.clock) as sw_state:
            states = [sol.state(x) for x in xs]
        out.op_s.append(sw_tau.seconds + sw_state.seconds)
        out.op_w.append((sw_tau.window[0], sw_state.window[1]))
        parts.append((sw_tau.seconds, sw_tau.window, sw_state.seconds, sw_state.window))
        grids.append((k, x2s, xs))
        # checked here and then dropped, so memory does not grow with the op count
        if not checks.finite(*taus, *(v for p in states for v in p.w + p.wt)):
            out.fail(i + 1, {"solution": k}, "non-finite log tau or state")
        elif k not in to_quad:
            pick = np.linspace(0, TAU_PER_OP - 1, TAU_QUAD_POINTS).round().astype(int)
            to_quad[k] = (i + 1, x2s[pick], [taus[j] for j in pick])
    _end_measure(out, t0, tracer)

    out.attempted += len(grids)
    out.inputs = {"gammas": [list(g) for g in gammas], "x0": TAU_X0,
                  "ops": [{"solution": k, "x2": x2s.tolist(), "x": xs.tolist()}
                          for k, x2s, xs in grids]}
    hamiltonian = lib.hamiltonian_flow.hamiltonian
    quad_err_max = 0.0
    for k, (op, x2s, taus) in to_quad.items():
        sol = sols[k][1]
        for x2, tau in zip(x2s, taus):
            ref = checks.reg_integral_quad(sol, hamiltonian, x2) - (x2 * x2 - sol.x0 ** 2)
            quad_err_max = max(quad_err_max, abs(tau - ref))
            if not abs(tau - ref) <= checks.TAU_QUAD_ABS_MAX:
                out.fail(op, {"solution": k, "x2": x2},
                         f"log tau {tau!r} vs quad {ref!r}: {abs(tau - ref):.3e}")
                break
    n_ops = len(grids)
    tau_s = sum(out.clock.scale(t, *w, out.kind) for t, w, _s, _w in parts)
    state_s = sum(out.clock.scale(s, *w, out.kind) for _t, _w, s, w in parts)
    out.details = {
        "tau_evals_per_s": {"value": n_ops * TAU_PER_OP / tau_s, "unit": "1/s"},
        "state_evals_per_s": {"value": n_ops * STATES_PER_OP / state_s, "unit": "1/s"},
        "tau_quad_abs_err_max": {"value": quad_err_max, "unit": "abs"},
    }
    return out


# ----------------------------------------------------------------------

def _generic_gamma(lib: Library, rng, n: int) -> tuple:
    L = lib.data_maps.reduced_length(n)
    while True:
        g = tuple(float(v) for v in rng.uniform(-MAPS_SCALE, MAPS_SCALE, L))
        try:
            lib.data_maps.check_genericity(n, g, margin=MAPS_MARGIN)
            return g
        except lib.data_maps.GenericityError:
            continue


def _maps_one(lib: Library, n: int, gamma, rho, rho2) -> dict:
    dm = lib.data_maps
    a = dm.AsymptoticData(n, gamma, rho)
    back = dm.monodromy_to_asymptotic(dm.asymptotic_to_monodromy(a))
    rho_s = dm.global_rho(n, gamma)
    smooth = dm.asymptotic_to_monodromy(dm.AsymptoticData(n, gamma, tuple(rho_s)))
    res = {
        "round_trip": max(abs(x - y) for x, y in zip(back.gamma + back.rho, a.gamma + a.rho)),
        "smooth_log_e": max(abs(v) for v in smooth.log_e),
        "F": dm.gen_fun_F(n, rho_s, [-0.5 * g for g in gamma]),
        "gradient": dm.verify_generating_function(n, gamma, rho2, h=1e-4).max_residual,
    }
    if n % 2 == 1 and n >= 3:
        res["symplectic"] = dm.verify_symplectic(n, gamma, h=1e-4).max_asymmetry
    if n == 3:
        res["constant_closed"] = lib.tau_constant.constant_closed(gamma)
    return res


_MAPS_GATES = (("round_trip", checks.ROUND_TRIP_MAX),
               ("smooth_log_e", checks.SMOOTH_LOG_E_MAX),
               ("gradient", checks.GRADIENT_RESIDUAL_MAX),
               ("symplectic", checks.SYMPLECTIC_ASYMMETRY_MAX))


def _maps_sweeps(lib: Library, seed: int):
    """Seeded inputs of successive ops: (n, gamma, rho, rho for the gradient check)."""
    rng = np.random.default_rng(seed)
    while True:
        sweep = []
        for n in MAPS_N:
            L = lib.data_maps.reduced_length(n)
            gamma = _generic_gamma(lib, rng, n)
            sweep.append((n, gamma, tuple(float(v) for v in rng.uniform(-1.0, 1.0, L)),
                          tuple(float(v) for v in rng.uniform(-0.5, 0.5, L))))
        yield sweep


def maps_closed(lib: Library, clock: Clock, seed: int, seconds: float,
                tracer=None, max_ops=None) -> Outcome:
    out = Outcome(clock, "maps")
    _basis(lib, out)
    sweeps = _maps_sweeps(lib, seed)
    worst = {key: 0.0 for key, _ in _MAPS_GATES}
    closed = []   # (op, gamma, constant_closed) for the mpmath spot check
    t0 = perf_counter()
    while _keep_going(len(out.op_s), t0, seconds, max_ops):
        sweep = next(sweeps)
        op = len(out.op_s) + 1
        _set_op(tracer, op)
        with Stopwatch(out.clock) as sw:
            res = [_maps_one(lib, *args) for args in sweep]
        out.op_s.append(sw.seconds)
        out.op_w.append(sw.window)
        # gated here and then dropped, so memory does not grow with the op count
        bad = []
        for (n, gamma, _r, _r2), r in zip(sweep, res):
            if not checks.finite(*r.values()):
                bad.append(f"n={n}: non-finite output")
            for key, gate in _MAPS_GATES:
                if key in r:
                    worst[key] = max(worst[key], r[key])
                    if not r[key] <= gate:
                        bad.append(f"n={n}: {key} {r[key]:.3e} > {gate:g}")
            if "constant_closed" in r and len(closed) < MP_CLOSED_CHECKS:
                closed.append((op, gamma, r["constant_closed"]))
        if bad:
            out.fail(op, [list(s[1]) for s in sweep], "; ".join(bad))
    _end_measure(out, t0, tracer)

    out.attempted = len(out.op_s)
    replay = _maps_sweeps(lib, seed)
    out.inputs = {"ops": [[{"n": n, "gamma": list(g), "rho": list(r), "rho_gf": list(r2)}
                           for n, g, r, r2 in next(replay)] for _ in out.op_s]}
    for op, gamma, c in closed:
        c_mp = checks.constant_closed_mp(gamma)
        if not abs(c - c_mp) <= checks.CLOSED_FORM_ABS_MAX:
            out.fail(op, list(gamma), f"constant_closed - mpmath = {c - c_mp:.3e}")

    rng = np.random.default_rng([seed, 1])
    psi_err = 0.0
    for z in rng.uniform(0.01, 2.0, PSI_SPOT_CHECKS):
        psi_err = max(psi_err, abs(lib.special_functions.psi_m2(float(z)) - checks.psi_m2_mp(z)))
    if not psi_err <= checks.PSI_M2_ABS_MAX:
        out.fatal.append(f"psi_m2 differs from mpmath by {psi_err:.3e}")

    n_maps = len(out.op_s) * len(MAPS_N)
    out.details = {
        "maps_ops_per_s": {"value": n_maps / sum(out.scaled(out.op_s, out.op_w)),
                           "unit": "1/s"},
        "psi_m2_vs_mpmath_max": {"value": psi_err, "unit": "abs"},
        **{f"{key}_max": {"value": v, "unit": "abs"} for key, v in worst.items()},
    }
    return out


RUNNERS = {"constant_sweep": constant_sweep, "tau_profile": tau_profile,
           "maps_closed": maps_closed}
