"""Command-line front end: reproducible experiments with JSON/CSV output.

Subcommands:
  maps      asymptotic <-> monodromy data and the smooth-family rho
  solve     integrate from the small-x series seed and write a CSV trajectory
  tau       log tau over [x1, x2] along a global solution
  constant  numeric vs closed-form connection constant
  verify    residual suites: specfun, genfun, symplectic and dynamics on
            seeded draws; constant (C against its closed form, n = 3) and
            separatrix (bisected rho* against global_rho, n = 1, 2) on a
            fixed list first, then seeded draws

Exit codes: 0 success; 2 input or domain error, for solve also a small-x
series not converged above x = 1e-8; 3 blow-up: a solve run that stops
before x1, or a global solve that fails in tau or constant; 4
verification failure; an --out path that cannot be written exits 2.
All floats are serialized with 17 significant digits and a decimal
point or exponent; passing --reproducible suppresses the timestamp
field so identical flags (and verify's --seed) give byte-identical
output.  Set TTSTAR_LOG=debug for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import data_maps as dm
from . import global_solutions as gs
from . import hamiltonian_flow as hf
from . import tau_constant as tc
from .special_functions import DomainError, psi_m2, psi_m2_oracle, log_barnes_g, log_gamma

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4


def _log(msg: str) -> None:
    if os.environ.get("TTSTAR_LOG", "").lower() in ("1", "debug", "info"):
        print(f"[ttstar] {msg}", file=sys.stderr)


# ----------------------------------------------------------------------
# 17-significant-digit JSON writer (stdlib json has no float formatting hook)
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return '"%s"' % repr(value)
        text = format(value, ".17g")
        # a float stays a float for the reader: 7.0 -> "7.0", not "7"
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f'{_fmt(str(k))}: {_fmt(v)}' for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"unsupported JSON value {value!r}")


def dumps17(obj) -> str:
    return _fmt(obj) + "\n"


def _emit(doc: dict, args) -> None:
    if not getattr(args, "reproducible", False):
        doc = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **doc}
    text = dumps17(doc)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_threshold(value: float) -> float:
    """The --threshold of verify and constant, refused unless non-negative:
    against NaN or a negative value every run would fail verification."""
    if not value >= 0.0:
        raise ValueError(f"--threshold must be non-negative, got {value!r}")
    return value


def _parse_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse comma-separated reals from {text!r}") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_maps(args) -> int:
    gamma = _parse_list(args.gamma)
    # a given rho is checked against gamma before global_rho checks gamma
    given = None if args.rho is None else dm.AsymptoticData(
        n=args.n, gamma=gamma, rho=_parse_list(args.rho))
    rho_g = tuple(dm.global_rho(args.n, gamma))
    a = given or dm.AsymptoticData(n=args.n, gamma=gamma, rho=rho_g)
    md = dm.asymptotic_to_monodromy(a)
    fg, fr = dm.expand_full(a)
    fm, fe = dm.expand_full(md)
    doc = {
        "asymptotic": a.to_json_dict(),
        "monodromy": md.to_json_dict(),
        "global_rho": list(rho_g),
        "full": {"gamma": fg, "rho": fr, "m": fm, "log_e": fe},
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_solve(args) -> int:
    gamma = _parse_list(args.gamma)
    rho = tuple(dm.global_rho(args.n, gamma)) if args.rho is None else _parse_list(args.rho)
    a = dm.AsymptoticData(n=args.n, gamma=gamma, rho=rho)
    start = gs.init_from_asymptotics(a, args.x0)
    cfg = hf.IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    traj = hf.integrate(start, args.x1, cfg, args.n)
    _log(f"integrated to x={traj.x_final:.6g} ({traj.stats.n_steps} steps, "
         f"stop={traj.stop_reason})")
    out = args.out or "trajectory.csv"
    with open(out, "w") as fh:
        hf.trajectory_to_csv(traj, fh)
    if traj.stop_reason != "completed":
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_tau(args) -> int:
    gamma = _parse_list(args.gamma)
    val, shooting = tc.log_tau(gamma, args.x1, args.x2, return_shooting=True)
    _emit({"gamma": list(gamma), "x1": args.x1, "x2": args.x2, "log_tau": val,
           "shooting": shooting}, args)
    return EXIT_OK


def cmd_constant(args) -> int:
    thr = _check_threshold(args.threshold)
    rep = tc.constant_numeric(_parse_list(args.gamma), x2=args.x2)
    _emit(rep.to_json_dict(), args)
    return EXIT_OK if rep.abs_diff <= thr else EXIT_VERIFY


def _suite_specfun(rng, samples, n):
    worst = 0.0
    for z in rng.uniform(0.01, 2.0, samples):
        worst = max(worst, abs(psi_m2(z) - psi_m2_oracle(z)))
    for z in rng.uniform(0.05, 2.5, samples):
        rec = abs(log_barnes_g(1.0 + z) - (log_gamma(z) + log_barnes_g(z)))
        worst = max(worst, rec)
    return worst


def _random_generic_gamma(rng, n):
    L = dm.reduced_length(n)
    for _ in range(1000):
        g = rng.uniform(-0.45, 0.45, L)
        try:
            dm.check_genericity(n, g, margin=1e-3)
            return tuple(g)
        except dm.GenericityError:
            continue
    raise dm.GenericityError("could not draw a generic sample")


def _suite_genfun(rng, samples, n):
    worst = 0.0
    for _ in range(samples):
        g = _random_generic_gamma(rng, n)
        rho = tuple(rng.uniform(-0.5, 0.5, dm.reduced_length(n)))
        rep = dm.verify_generating_function(n, g, rho, h=1e-4)
        worst = max(worst, rep.max_residual)
    return worst


def _suite_symplectic(rng, samples, n):
    worst = 0.0
    for _ in range(samples):
        g = _random_generic_gamma(rng, n)
        rep = dm.verify_symplectic(n, g, h=1e-4)
        worst = max(worst, rep.max_asymmetry)
    return worst


def _suite_dynamics(rng, samples, n):
    worst = 0.0
    L = dm.reduced_length(n)
    h = 1e-6
    for _ in range(samples):
        x = float(rng.uniform(0.3, 4.0))
        w = rng.uniform(-0.4, 0.4, L)
        wt = rng.uniform(-1.0, 1.0, L)
        p = hf.PhasePoint(x=x, w=tuple(w), wt=tuple(wt))
        dw, dwt = hf.vector_field(p, n)
        for i in range(L):
            wp = list(w); wp[i] += h
            wm = list(w); wm[i] -= h
            hp = hf.hamiltonian(hf.PhasePoint(x=x, w=tuple(wp), wt=tuple(wt)), n)
            hm = hf.hamiltonian(hf.PhasePoint(x=x, w=tuple(wm), wt=tuple(wt)), n)
            worst = max(worst, abs(dwt[i] + (hp - hm) / (2 * h)))
        lam = float(rng.uniform(0.5, 3.0))
        hq = hf.check_quasihomogeneity(p, lam, n)
        worst = max(worst, hq / (1.0 + abs(lam * hf.hamiltonian(p, n))))
    return worst


# the gammas of the CI constant gate, also read by the fingerprint script
# and the tests; three have a(gamma) <= 0.35, near the domain floor 0.2
ACCEPTANCE_GAMMAS = ((0.3, 0.1), (0.9, -0.4), (0.0, 0.8), (-0.825, 0.075), (0.0, 0.0),
                     (-0.875, 0.4), (0.42223887, -0.69539036), (-0.88, 0.3))
# the separatrix suite's gamma0, up to the n = 1 domain floor a = 0.2
SEPARATRIX_GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _fixed_then_drawn(fixed, samples, draw):
    """The first `samples` of `fixed`, then draw() for the rest, so that a
    run of at most len(fixed) samples does not depend on the seed."""
    return [fixed[i] if i < len(fixed) else draw() for i in range(samples)]


def _suite_constant(rng, samples, n):
    if n != 3:
        raise ValueError(f"the constant suite takes n = 3, got n = {n}")
    worst = 0.0
    for g in _fixed_then_drawn(ACCEPTANCE_GAMMAS, samples,
                               lambda: tuple(rng.uniform(-0.9, 0.9, 2))):
        try:
            worst = max(worst, tc.constant_numeric(g).abs_diff)
        except (tc.BlowupError, dm.GenericityError, gs.GlobalSolveError):
            return math.inf
    return worst


def _blow_sign(n, gamma0, rho0):
    """+1 or -1 as the run from the series seed at x0 = 1e-4 blows up to
    +inf or -inf, else 0."""
    seed = gs.init_from_asymptotics(dm.AsymptoticData(n, (gamma0,), (rho0,)), 1e-4)
    traj = hf.integrate(seed, 14.0, hf.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12), n)
    if traj.stop_reason != "blowup":
        return 0
    return 1 if traj.points[-1].w[0] > 0 else -1


def _separatrix_gap(n, gamma0):
    """|rho* - global_rho| for a one-entry chain, rho* bisected between runs
    that blow up to opposite signs; inf if no bracket is found.

    The bracket is global_rho +- h, h halved from 1 until the series has
    converged above x = 1e-8 at both ends (h = 0.25 at gamma0 = 0.9), down
    to h = 2^-10.  Runs at rel_tol 1e-10 leave about 5e-12 at n = 1."""
    closed, half = dm.global_rho(n, (gamma0,))[0], 1.0
    while True:
        lo, hi = closed - half, closed + half
        try:
            s_lo, s_hi = _blow_sign(n, gamma0, lo), _blow_sign(n, gamma0, hi)
            break
        except gs.GlobalSolveError:
            if half <= 2.0 ** -10:
                return math.inf
            half *= 0.5
    if s_lo == s_hi:
        return math.inf
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        s = _blow_sign(n, gamma0, mid)
        if s == 0:
            return abs(mid - closed)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return abs(0.5 * (lo + hi) - closed)


def _suite_separatrix(rng, samples, n):
    if dm.reduced_length(n) != 1:
        raise ValueError(f"the separatrix suite takes n = 1 or 2, got n = {n}")
    worst = 0.0
    for g in _fixed_then_drawn(SEPARATRIX_GAMMAS, samples,
                               lambda: float(rng.uniform(-0.9, 0.9))):
        worst = max(worst, _separatrix_gap(n, g))
    return worst


# each suite's function of (rng, samples, n) and its default threshold; the
# worst constant over 1,129 seeded gammas is 3.4e-13
_SUITES = {
    "specfun": (_suite_specfun, 1e-10),
    "genfun": (_suite_genfun, 1e-6),
    "symplectic": (_suite_symplectic, 1e-7),
    "dynamics": (_suite_dynamics, 1e-8),
    "constant": (_suite_constant, 1e-11),
    "separatrix": (_suite_separatrix, 1e-9),
}


def cmd_verify(args) -> int:
    dm.reduced_length(args.n)   # refuses n < 1, which specfun never reads
    if args.suite not in _SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    suite, default = _SUITES[args.suite]
    thr = _check_threshold(default if args.threshold is None else args.threshold)
    worst = suite(np.random.default_rng(args.seed), args.samples, args.n)
    doc = {"suite": args.suite, "n": args.n, "samples": args.samples, "seed": args.seed,
           "max_residual": worst, "threshold": thr, "pass": bool(worst <= thr)}
    _emit(doc, args)
    return EXIT_OK if worst <= thr else EXIT_VERIFY


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ttstar", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    # --n only where the chain parameter is read (tau and constant are
    # n = 3), the tolerances only on solve (a global solve has one set),
    # --seed only on verify, the one command that draws samples
    def common(p, n=False, gamma=True):
        if n:
            p.add_argument("--n", type=int, default=3)
        if gamma:
            p.add_argument("--gamma", type=str, required=True,
                           help="comma-separated reduced list")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--reproducible", action="store_true")

    p = sub.add_parser("maps", help="data maps in one JSON document")
    common(p, n=True)
    p.add_argument("--rho", type=str, default=None)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("solve", help="integrate and write a CSV trajectory")
    common(p, n=True)
    p.add_argument("--rho", type=str, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=hf.IntegratorConfig.rel_tol)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=hf.IntegratorConfig.abs_tol)
    p.add_argument("--x0", type=float, default=1e-2)
    p.add_argument("--x1", type=float, default=8.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tau", help="log tau over [x1, x2], global solution")
    common(p)
    p.add_argument("--x1", type=float, default=1e-2)
    p.add_argument("--x2", type=float, default=6.0)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("constant", help="connection constant, numeric vs closed")
    common(p)
    p.add_argument("--x2", type=float, default=tc.DEFAULT_X2)
    p.add_argument("--threshold", type=float, default=1e-2)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("verify", help="randomized residual suites")
    common(p, n=True, gamma=False)
    p.add_argument("--suite", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, gs.GlobalSolveError, tc.BlowupError) as exc:
        # ValueError covers DomainError, GenericityError, ShapeError and
        # UnsupportedConfigError; OSError an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP if isinstance(exc, tc.BlowupError) else EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
