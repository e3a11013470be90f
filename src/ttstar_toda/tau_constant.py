"""Tau function along global solutions and the constant problem (n = 3).

For a global solution the tau function over [x1, x2] is log tau =
integral of H, computed here from the accumulated regularized state as
reg_integral(x2) - reg_integral(x1) - (x2^2 - x1^2).  The connection
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
function.  The x2 truncation error of the regularized integral decays
like exp(-4 sqrt 2 x2) (the integrand is quadratic in the decaying tail),
far below the reported tail bound |s1| sqrt(x2) exp(-2 sqrt 2 x2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_maps import (GenericityError, check_genericity, gen_fun_F, global_rho,
                        reduced_length)
from .global_solutions import GlobalSolution, GlobalSolveError, solve_global
from .hamiltonian_flow import Trajectory, reg_density, tail_amplitude_s1
from .special_functions import psi_m2

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
# below the stepper's underflow near 1e-14
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
    gamma: tuple[float, float]
    c_numeric: float
    c_closed: float
    abs_diff: float
    x1: float
    x2_used: float
    tail_bound: float
    a: float  # min_l s_l, the smallest small-x exponent
    integrator_stats: dict = field(default_factory=dict)
    series_order: int = 0  # K of the small-x series at x1
    series_error: float = math.inf  # its first dropped term there

    def to_json_dict(self) -> dict:
        return {
            "gamma": list(self.gamma),
            "c_numeric": self.c_numeric,
            "c_closed": self.c_closed,
            "abs_diff": self.abs_diff,
            "x1": self.x1,
            "x2_used": self.x2_used,
            "tail_bound": self.tail_bound,
            "integrator_stats": dict(self.integrator_stats),
            "a": self.a,
            "series_order": self.series_order,
            "series_error": self.series_error,
        }


def log_tau(gamma, x1: float, x2: float) -> float:
    """log tau(x1, x2) = integral of H along the global solution.

    rho is pinned to the smooth family; the value is reg_integral(x2) -
    reg_integral(x1) - (x2^2 - x1^2) on the one solve from x1, which
    starts at x1 or, where the series has not converged there, below it.
    So x1 lies in (0, 0.1] like solve_global's x0, and x2 may reach
    GlobalSolution.x_right.
    """
    if not (0.0 < x1 <= 0.1 and x1 < x2 <= GlobalSolution.x_right):
        raise ValueError(f"need 0 < x1 <= 0.1 and x1 < x2 <= {GlobalSolution.x_right}, "
                         f"got x1={x1}, x2={x2}")
    try:
        sol = solve_global(gamma, x1)
    except GlobalSolveError as exc:
        raise BlowupError(f"global solve failed for gamma={tuple(gamma)}: {exc}") from exc
    return sol.reg_integral(x2) - sol.reg_integral(x1) - (x2 * x2 - x1 * x1)


def constant_closed(gamma) -> float:
    """Closed-form connection constant of the smooth n=3 family."""
    gamma = tuple(float(g) for g in gamma)
    rho = global_rho(3, gamma)  # checks the length and genericity of gamma
    g0, g1 = gamma
    m = (-0.5 * g0, -0.5 * g1)
    F = gen_fun_F(3, rho, m)
    psis = psi_m2(0.25) + psi_m2(0.5) + psi_m2(0.75)
    return -0.125 * (g0 * g0 + g1 * g1) - 0.5 * F + 4.0 * psis


def constant_numeric(gamma, x2: float = DEFAULT_X2, basis=None) -> ConstantReport:
    """Constant by regularized quadrature from one solve where the small-x
    series has converged.

    C(x1) = reg_integral(x1 -> x2) + x1^2 + (gamma0^2 + gamma1^2)/8 * log x1
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
    `integrator_stats` is the work of the solve's forward runs.
    """
    check_genericity(3, gamma)
    g0, g1 = float(gamma[0]), float(gamma[1])
    if not _X1_MIN < x2 <= GlobalSolution.x_right:
        raise ValueError(f"x2 must lie in ({_X1_MIN}, {GlobalSolution.x_right}], got {x2}")
    # s_l = 2 + (A gamma)_l/2 over the links (4, 0), (-2, 2) and (0, -4),
    # rounded as SmallXSeries.s is
    a = 2.0 + min(2.0 * g0, g1 - g0, -2.0 * g1)
    if a < _A_MIN:
        raise GenericityError(f"a(gamma) = min_l s_l = {a!r} is below a_min = {_A_MIN} "
                              f"for gamma={(g0, g1)}")
    x1 = _X1_MAX
    while x1 >= x2:
        x1 *= 0.5
    try:
        sol = solve_global((g0, g1), x1, basis=basis)
    except GlobalSolveError as exc:
        raise BlowupError(f"global solve failed for gamma={(g0, g1)}: {exc}") from exc
    x1, cut = sol.x0, sol.diagnostics["series"]
    c_num = (sol.reg_integral(x2) + x1 * x1 + (g0 * g0 + g1 * g1) / 8.0 * math.log(x1)
             - cut.endcap(sol.rho_formula, x1))
    c_closed = constant_closed((g0, g1))
    s1 = tail_amplitude_s1((g0, g1))
    tail = abs(s1) * math.sqrt(x2) * math.exp(-GlobalSolution.tail_rate * x2)
    return ConstantReport(
        gamma=(g0, g1), c_numeric=float(c_num), c_closed=float(c_closed),
        abs_diff=abs(float(c_num) - float(c_closed)), x1=x1, x2_used=float(x2),
        tail_bound=float(tail), a=a, integrator_stats=dict(sol.diagnostics["integrator_stats"]),
        series_order=cut.order, series_error=cut.error)


_GL6 = np.polynomial.legendre.leggauss(6)


def classical_action(traj: Trajectory) -> float:
    """integral (sum wt_i dw_i/dx - H) dx along an integrated trajectory.

    Uses dw_i/dx = wt_i/x, so the integrand is sum wt_i^2 / x - H,
    evaluated on the dense output with per-step Gauss panels.
    """
    L = reduced_length(traj.n)
    nodes, weights = _GL6
    half = 0.5 * traj.hs[:, None]
    x = traj.xs[:-1, None] + half + half * nodes
    y = traj.sample_state(x)
    wt = y[L:2 * L]
    H = reg_density(x, y, traj.n) - 2.0 * x
    return float(np.sum(weights * half * (np.vecdot(wt, wt, axis=0) / x - H)))
