"""Tau function along global solutions and the constant problem (n = 3).

For a global solution the tau function over [x1, x2] is log tau =
integral of H, computed here from the accumulated regularized state as
reg_integral(x2) - reg_integral(x1) - (x2^2 - x1^2); past the
forward/tail switch at 4.2, reg_integral's tail part is the closed-form
truncation(4.2) - truncation(x2), within 1.0e-21 of the Gauss-Legendre
quadrature of the matched tail it replaced, so the constant at the
default x2 = 7 keeps its bits.  The connection
constant

    C = lim_{x1 -> 0, x2 -> inf} ( log tau(x1, x2) + x2^2
                                   + (gamma0^2 + gamma1^2)/8 * log x1 )

is extracted numerically less the integral over (0, x1) of the small-x
series of H (the endcap), cut at order K <= 8: one solve gives C with x1
its start, the largest 0.08 * 2^-j whose first dropped term is below
1e-13, and its cut series gives the run over (0, x1) in closed form.
Both functions call `solve_global` once and read its result.  C is
compared against the closed form

    C = -(gamma0^2 + gamma1^2)/8 - F(rho*, m)/2
        + 4 (psi_m2(1/4) + psi_m2(1/2) + psi_m2(3/4)),

with rho* the smooth-family rho, m = -gamma/2, and F the generating
function.  The x2 truncation error of the regularized integral is
quadratic in the decaying tail, and the reported tail bound is that
quadratic term, `GlobalSolution.truncation(x2)`, summed over every mode
of the matched tail: at the acceptance gammas and (0.5, -0.5) it is
|c - C| to within 1% from x2 = 1 and 13% at x2 = 0.2, where the cubic
terms it leaves out start to show.  It does not cover the round-off
floor near 1e-13, the whole error at the default x2 = 7, where the
bound reads about 1e-21.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_maps import (GenericityError, check_genericity, gen_fun_F, global_rho,
                        reduced_length)
from .global_solutions import GlobalSolution, GlobalSolveError, solve_global
from .hamiltonian_flow import Trajectory, _links, reg_density
from .special_functions import _gauss_legendre, psi_m2

__all__ = [
    "BlowupError",
    "ConstantReport",
    "log_tau",
    "constant_numeric",
    "constant_closed",
    "classical_action",
    "DEFAULT_X2",
]

DEFAULT_X2 = 7.0
# the smallest exponent a(gamma) of the small-x corrections that
# constant_numeric accepts: the series' first dropped term O(x1^{9a}) at
# a = 0.2 falls below 1e-13 by x1 = 1.53e-7, while a = 0.1 would need x1
# near 1e-14, below the lowest shooting start 1e-8
_A_MIN = 0.2
# the grid 6.25e-4 * 2^j, j <= 7, whose largest point below x2 is where
# the solve starts its search for x1: its top, 0.08, is the largest within
# 0.1, solve_global's largest x0
_X1_MIN, _X1_MAX = 6.25e-4, 0.08


class BlowupError(RuntimeError):
    """The trajectory left the global family before reaching x2."""


class ExtrapolationError(RuntimeError):
    """Raised by nothing now that one solve gives the constant (there is
    no x1 -> 0 extrapolation left to fail); kept only because the
    benchmark's workloads (perfbench/workloads.py) name it."""


@dataclass(frozen=True)
class ConstantReport:
    """What constant_numeric found, its fields in the order of the CLI's
    JSON document."""

    gamma: tuple[float, float]
    c_numeric: float
    c_closed: float
    abs_diff: float
    x1: float
    x2_used: float
    tail_bound: float
    integrator_stats: dict
    shooting: dict  # GlobalSolution.shooting of the solve
    a: float  # min_l s_l, the smallest small-x exponent
    series_order: int  # K of the small-x series at x1
    series_error: float  # its first dropped term there


def log_tau(gamma, x1: float, x2: float, return_shooting: bool = False):
    """log tau(x1, x2) = integral of H along the global solution.

    rho is pinned to the smooth family; the value is reg_integral(x2) -
    reg_integral(x1) - (x2^2 - x1^2) on the one solve from x1, which
    starts at x1 or, where the series has not converged there, below it.
    So x1 lies in (0, 0.1] like solve_global's x0, and x2 may reach
    GlobalSolution.x_right.  With `return_shooting`, the pair (log tau,
    the solve's `GlobalSolution.shooting`).
    """
    if not (0.0 < x1 <= 0.1 and x1 < x2 <= GlobalSolution.x_right):
        raise ValueError(f"need 0 < x1 <= 0.1 and x1 < x2 <= {GlobalSolution.x_right}, "
                         f"got x1={x1}, x2={x2}")
    try:
        sol = solve_global(gamma, x1)
    except GlobalSolveError as exc:
        raise BlowupError(f"global solve failed for gamma={tuple(gamma)}: {exc}") from exc
    value = sol.reg_integral(x2) - sol.reg_integral(x1) - (x2 * x2 - x1 * x1)
    return (value, sol.shooting) if return_shooting else value


def constant_closed(gamma) -> float:
    """Closed-form connection constant of the smooth n=3 family."""
    gamma = tuple(map(float, gamma))
    rho = global_rho(3, gamma)  # checks the length and genericity of gamma
    F = gen_fun_F(3, rho, [-0.5 * g for g in gamma])
    psis = psi_m2(0.25) + psi_m2(0.5) + psi_m2(0.75)
    return -0.125 * sum(g * g for g in gamma) - 0.5 * F + 4.0 * psis


def constant_numeric(gamma, x2: float = DEFAULT_X2, basis=None) -> ConstantReport:
    """Constant by regularized quadrature from one solve where the small-x
    series has converged.

    C(x1) = reg_integral(x1 -> x2) + x1^2 + |gamma|^2/8 * log x1
    - endcap, x2 at most GlobalSolution.x_right; the endcap
    (`SmallXSeries.endcap`, at the smooth family's rho) integrates the
    series of H - q/x over (0, x1), the solve's own cut series
    (diagnostics["series"]), so C(x1) is off by about its first dropped
    term.  One `solve_global` from the top of the grid 6.25e-4 * 2^j,
    j <= 7 (0.08, or the largest point below x2) gives it all: x1 is the
    solve's start, its x0, the first point halving from there at which
    the series cut at the smooth family's rho drops a first term below
    1e-13.  A gamma with a = min_l s_l below 0.2 raises GenericityError
    before any solve.  `basis` is passed on to solve_global, which does
    not use it (the tail is closed-form); it is kept for the benchmark.
    `integrator_stats` is the work of the solve's forward runs, and
    `shooting` what its shooting did (`GlobalSolution.shooting`).
    `tail_bound` is the x2 truncation to quadratic order
    (`GlobalSolution.truncation`), which |c - C| follows to within 1% from
    x2 = 1 down to the round-off floor near 1e-13, which it never covers
    (module docstring).
    """
    check_genericity(3, gamma)
    gamma = tuple(map(float, gamma))
    if not _X1_MIN < x2 <= GlobalSolution.x_right:
        raise ValueError(f"x2 must lie in ({_X1_MIN}, {GlobalSolution.x_right}], got {x2}")
    a = float(min(2.0 + 0.5 * (_links(3)[0] @ np.array(gamma))))   # as SmallXSeries.s
    if a < _A_MIN:
        raise GenericityError(f"a(gamma) = min_l s_l = {a!r} is below a_min = {_A_MIN} "
                              f"for gamma={gamma}")
    x1 = _X1_MAX
    while x1 >= x2:
        x1 *= 0.5
    try:
        sol = solve_global(gamma, x1, basis=basis)
    except GlobalSolveError as exc:
        raise BlowupError(f"global solve failed for gamma={gamma}: {exc}") from exc
    x1, cut = sol.x0, sol.diagnostics["series"]
    c_num = (sol.reg_integral(x2) + x1 * x1 + sum(g * g for g in gamma) / 8.0 * math.log(x1)
             - cut.endcap(sol.rho_formula, x1))
    c_closed = constant_closed(gamma)
    return ConstantReport(
        gamma=gamma, c_numeric=float(c_num), c_closed=float(c_closed), a=a,
        abs_diff=abs(float(c_num) - float(c_closed)), x1=x1, x2_used=float(x2),
        tail_bound=sol.truncation(x2), integrator_stats=dict(sol.diagnostics["integrator_stats"]),
        series_order=cut.order, series_error=cut.error, shooting=sol.shooting)


def classical_action(traj: Trajectory) -> float:
    """integral (sum wt_i dw_i/dx - H) dx along an integrated trajectory.

    Uses dw_i/dx = wt_i/x, so the integrand is sum wt_i^2 / x - H,
    evaluated on the dense output with per-step Gauss panels.
    """
    L = reduced_length(traj.n)
    nodes, weights = _gauss_legendre(6)
    half = 0.5 * traj.hs[:, None]
    x = traj.xs[:-1, None] + half + half * nodes
    y = traj.sample_state(x)
    wt = y[L:2 * L]
    H = reg_density(x, y, traj.n) - 2.0 * x
    return float(np.sum(weights * half * (np.vecdot(wt, wt, axis=0) / x - H)))
