"""Command-line front end: reproducible experiments with JSON/CSV output.

Subcommands:
  maps      asymptotic <-> monodromy data and the smooth-family rho
  solve     integrate a trajectory and write it as CSV
  tau       log tau over [x1, x2] along a global solution
  constant  numeric vs closed-form connection constant
  verify    randomized residual suites (specfun, genfun, symplectic, dynamics)

Exit codes: 0 success, 2 input/domain error, 3 blow-up, 4 verification
failure.  All floats are serialized with 17 significant digits and a
decimal point or exponent; passing --reproducible suppresses the
timestamp field so identical flags (and verify's --seed) give
byte-identical output.  Set TTSTAR_LOG=debug for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _parse_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse comma-separated reals from {text!r}") from exc


def _cfg_from(args, default: hf.IntegratorConfig) -> hf.IntegratorConfig | None:
    """The tolerances given on the command line, a missing one taken from
    `default` (the library's default for the command), or None when none
    is given."""
    given = {k: v for k, v in (("rel_tol", args.rel_tol), ("abs_tol", args.abs_tol))
             if v is not None}
    return dataclasses.replace(default, **given) if given else None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_maps(args) -> int:
    gamma = _parse_list(args.gamma)
    rho = _parse_list(args.rho) if args.rho else tuple(dm.global_rho(args.n, gamma))
    a = dm.AsymptoticData(n=args.n, gamma=gamma, rho=rho)
    md = dm.asymptotic_to_monodromy(a)
    fg, fr = dm.expand_full(a)
    fm, fe = dm.expand_full(md)
    doc = {
        "asymptotic": a.to_json_dict(),
        "monodromy": md.to_json_dict(),
        "global_rho": list(dm.global_rho(args.n, gamma)),
        "full": {"gamma": fg, "rho": fr, "m": fm, "log_e": fe},
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_solve(args) -> int:
    gamma = _parse_list(args.gamma)
    rho = _parse_list(args.rho) if args.rho else tuple(dm.global_rho(args.n, gamma))
    a = dm.AsymptoticData(n=args.n, gamma=gamma, rho=rho)
    start = hf.init_from_asymptotics(a, args.x0)
    traj = hf.integrate(start, args.x1, _cfg_from(args, hf.IntegratorConfig()), args.n)
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
    try:
        val = tc.log_tau(gamma, args.x1, args.x2, _cfg_from(args, gs.FINAL_RUN_CONFIG))
    except tc.BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    _emit({"gamma": list(gamma), "x1": args.x1, "x2": args.x2, "log_tau": val}, args)
    return EXIT_OK


def cmd_constant(args) -> int:
    gamma = _parse_list(args.gamma)
    try:
        rep = tc.constant_numeric(gamma, _cfg_from(args, gs.FINAL_RUN_CONFIG), x2=args.x2)
    except tc.BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    _emit(rep.to_json_dict(), args)
    return EXIT_OK if rep.abs_diff <= args.threshold else EXIT_VERIFY


def _suite_specfun(rng, samples):
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


_SUITE_THRESHOLDS = {
    "specfun": 1e-10,
    "genfun": 1e-6,
    "symplectic": 1e-7,
    "dynamics": 1e-8,
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITE_THRESHOLDS:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{sorted(_SUITE_THRESHOLDS)}", file=sys.stderr)
        return EXIT_INPUT
    rng = np.random.default_rng(args.seed)
    n = args.n
    if args.suite == "specfun":
        worst = _suite_specfun(rng, args.samples)
    elif args.suite == "genfun":
        worst = _suite_genfun(rng, args.samples, n)
    elif args.suite == "symplectic":
        worst = _suite_symplectic(rng, args.samples, n)
    else:
        worst = _suite_dynamics(rng, args.samples, n if n % 2 == 1 else 3)
    thr = args.threshold if args.threshold is not None else _SUITE_THRESHOLDS[args.suite]
    doc = {"suite": args.suite, "n": n, "samples": args.samples, "seed": args.seed,
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
    # n = 3), the tolerances only where something is integrated, --seed
    # only on verify, the one command that draws samples
    def common(p, n=False, gamma=True, tols=False):
        if n:
            p.add_argument("--n", type=int, default=3)
        if gamma:
            p.add_argument("--gamma", type=str, required=True,
                           help="comma-separated reduced list")
        if tols:
            p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
            p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--reproducible", action="store_true")

    p = sub.add_parser("maps", help="data maps in one JSON document")
    common(p, n=True)
    p.add_argument("--rho", type=str, default=None)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("solve", help="integrate and write a CSV trajectory")
    common(p, n=True, tols=True)
    p.add_argument("--rho", type=str, default=None)
    p.add_argument("--x0", type=float, default=1e-2)
    p.add_argument("--x1", type=float, default=8.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tau", help="log tau over [x1, x2], global solution")
    common(p, tols=True)
    p.add_argument("--x1", type=float, default=1e-2)
    p.add_argument("--x2", type=float, default=6.0)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("constant", help="connection constant, numeric vs closed")
    common(p, tols=True)
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
    except (DomainError, dm.GenericityError, dm.ShapeError,
            hf.UnsupportedConfigError, tc.ExtrapolationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
