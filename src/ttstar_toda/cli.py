"""Command-line front end: reproducible experiments with JSON/CSV output.

Only parsing, output and exit codes live here; the verification suites,
their thresholds and the verdict rule are `ttstar_toda.verify`.

Subcommands:
  maps      asymptotic <-> monodromy data and the smooth-family rho
  solve     integrate from the small-x series seed and write a CSV trajectory
  tau       log tau over [x1, x2] along a global solution
  constant  numeric vs closed-form connection constant, within the
            constant suite's threshold unless --threshold is given
  verify    one residual suite of `verify.SUITES` (specfun, genfun,
            symplectic, dynamics, constant, separatrix) run by `verify.run`,
            whose report is printed with its verdict: the run passes when
            the largest residual is within the threshold, a NaN counting as
            inf, so it fails

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
from dataclasses import asdict

from . import data_maps as dm
from . import global_solutions as gs
from . import hamiltonian_flow as hf
from . import tau_constant as tc
from . import verify
from .special_functions import DomainError

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
    if getattr(args, "out", None) is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    _emit({"asymptotic": asdict(a), "monodromy": asdict(md), "global_rho": list(rho_g),
           "full": {"gamma": fg, "rho": fr, "m": fm, "log_e": fe}}, args)
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
    with open("trajectory.csv" if args.out is None else args.out, "w") as fh:
        hf.trajectory_to_csv(traj, fh)
    return EXIT_OK if traj.stop_reason == "completed" else EXIT_BLOWUP


def cmd_tau(args) -> int:
    gamma = _parse_list(args.gamma)
    val, shooting = tc.log_tau(gamma, args.x1, args.x2, return_shooting=True)
    _emit({"gamma": list(gamma), "x1": args.x1, "x2": args.x2, "log_tau": val,
           "shooting": shooting}, args)
    return EXIT_OK


def cmd_constant(args) -> int:
    thr = verify.checked_threshold("constant", args.threshold)
    rep = tc.constant_numeric(_parse_list(args.gamma), x2=args.x2)
    _emit(asdict(rep), args)
    return EXIT_OK if rep.abs_diff <= thr else EXIT_VERIFY


def cmd_verify(args) -> int:
    rep = verify.run(args.suite, args.n, args.samples, args.seed, args.threshold)
    _emit({**asdict(rep), "pass": rep.passed}, args)
    return EXIT_OK if rep.passed else EXIT_VERIFY


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
    def command(name, func, help, n=False, gamma=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if n:
            p.add_argument("--n", type=int, default=3)
        if gamma:
            p.add_argument("--gamma", type=str, required=True,
                           help="comma-separated reduced list")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--reproducible", action="store_true")
        return p

    p = command("maps", cmd_maps, "data maps in one JSON document", n=True)
    p.add_argument("--rho", type=str, default=None)

    p = command("solve", cmd_solve, "integrate and write a CSV trajectory", n=True)
    p.add_argument("--rho", type=str, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=hf.IntegratorConfig.rel_tol)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=hf.IntegratorConfig.abs_tol)
    p.add_argument("--x0", type=float, default=1e-2)
    p.add_argument("--x1", type=float, default=8.0)

    p = command("tau", cmd_tau, "log tau over [x1, x2], global solution")
    p.add_argument("--x1", type=float, default=1e-2)
    p.add_argument("--x2", type=float, default=6.0)

    p = command("constant", cmd_constant, "connection constant, numeric vs closed")
    p.add_argument("--x2", type=float, default=tc.DEFAULT_X2)
    p.add_argument("--threshold", type=float, default=None)

    p = command("verify", cmd_verify, "randomized residual suites", n=True, gamma=False)
    p.add_argument("--suite", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--threshold", type=float, default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
