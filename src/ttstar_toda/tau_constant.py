"""Tau function along global solutions and the constant problem (n = 3).

For a global solution the tau function over [x1, x2] is log tau =
integral of H, computed here from the accumulated regularized state as
reg_integral - (x2^2 - x1^2).  The connection constant

    C = lim_{x1 -> 0, x2 -> inf} ( log tau(x1, x2) + x2^2
                                   + (gamma0^2 + gamma1^2)/8 * log x1 )

is extracted numerically less the integral over (0, x1) of the small-x
series of H (the endcap), cut at order K <= 8.  Where the series' first
dropped term at x1 = 6.25e-4 is below 1e-12, C comes from one solve at
the largest x1 = 6.25e-4 * 2^j <= 0.08 whose first dropped term is still
below 1e-13; elsewhere from three solves on a geometric x1 grid and a
fitted power-law extrapolation C + a x1^p.  It is compared against the
closed form

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
from .global_solutions import (_SERIES_TOL, GlobalSolution, GlobalSolveError,
                               SmallXSeries, solve_global)
from .hamiltonian_flow import Trajectory, reg_density, tail_amplitude_s1
from .special_functions import psi_m2

__all__ = [
    "BlowupError",
    "ExtrapolationError",
    "ConstantReport",
    "log_tau",
    "constant_numeric",
    "constant_closed",
    "classical_action",
    "DEFAULT_X1_GRID",
    "DEFAULT_X2",
]

DEFAULT_X1_GRID = (2.5e-3, 1.25e-3, 6.25e-4)
DEFAULT_X2 = 7.0
# the smallest exponent a(gamma) of the small-x corrections that
# constant_numeric accepts: below it the x1 sequence is too slow for the
# three-point fit (or the shooting blows up), and results land far off
_A_MIN = 0.2
_ONE_SOLVE_TOL = 1e-12  # series error at the smallest x1 for one solve
_X1_MAX = 0.08  # the one solve's largest x1: DEFAULT_X1_GRID[-1] * 2^7 <= 0.1,
# the largest x0 solve_global takes


class BlowupError(RuntimeError):
    """The trajectory left the global family before reaching x2."""


class ExtrapolationError(RuntimeError):
    """The x1 sequence is unusable for power-law extrapolation."""

    def __init__(self, message: str, x1_grid, values):
        super().__init__(f"{message}: C(x1) = {list(values)} on x1 = {list(x1_grid)}")
        self.x1_grid = tuple(x1_grid)
        self.values = tuple(values)


@dataclass(frozen=True)
class ConstantReport:
    gamma: tuple[float, float]
    c_numeric: float
    c_closed: float
    abs_diff: float
    x1_grid: tuple[float, ...]
    x2_used: float
    extrapolation_exponent: float
    tail_bound: float
    a: float  # min_l s_l, the smallest small-x exponent
    integrator_stats: dict = field(default_factory=dict)
    series_order: int = 0  # K of the small-x series at the smallest x1 used
    series_error: float = math.inf  # its first dropped term there

    def to_json_dict(self) -> dict:
        return {
            "gamma": list(self.gamma),
            "c_numeric": self.c_numeric,
            "c_closed": self.c_closed,
            "abs_diff": self.abs_diff,
            "x1_grid": list(self.x1_grid),
            "x2_used": self.x2_used,
            "extrapolation_exponent": self.extrapolation_exponent,
            "tail_bound": self.tail_bound,
            "integrator_stats": dict(self.integrator_stats),
            "a": self.a,
            "series_order": self.series_order,
            "series_error": self.series_error,
        }


def _solve(gamma, x1: float, basis=None,
           series: SmallXSeries | None = None) -> GlobalSolution:
    try:
        return solve_global(gamma, x1, basis=basis, _series=series)
    except GlobalSolveError as exc:
        raise BlowupError(f"global solve failed for gamma={tuple(gamma)}: {exc}") from exc


def log_tau(gamma, x1: float, x2: float) -> float:
    """log tau(x1, x2) = integral of H along the global solution.

    rho is pinned to the smooth family; the value is
    reg_integral - (x2^2 - x1^2).  The solve starts at x1, so x1 lies in
    (0, 0.1] like solve_global's x0, and x2 may reach
    GlobalSolution.x_right.
    """
    if not (0.0 < x1 <= 0.1 and x1 < x2 <= GlobalSolution.x_right):
        raise ValueError(f"need 0 < x1 <= 0.1 and x1 < x2 <= {GlobalSolution.x_right}, "
                         f"got x1={x1}, x2={x2}")
    check_genericity(3, gamma)
    sol = _solve(gamma, x1)
    return sol.reg_integral(x2) - (x2 * x2 - x1 * x1)


def constant_closed(gamma) -> float:
    """Closed-form connection constant of the smooth n=3 family."""
    check_genericity(3, gamma)
    g0, g1 = float(gamma[0]), float(gamma[1])
    rho = global_rho(3, (g0, g1))
    m = (-0.5 * g0, -0.5 * g1)
    F = gen_fun_F(3, rho, m)
    psis = psi_m2(0.25) + psi_m2(0.5) + psi_m2(0.75)
    return -0.125 * (g0 * g0 + g1 * g1) - 0.5 * F + 4.0 * psis


def _power_fit(x1_grid, values):
    """Fit C + a*x1^p through three geometric grid points (ratio 2)."""
    c0, c1, c2 = values
    d01, d12 = c0 - c1, c1 - c2
    if d01 == 0.0 and d12 == 0.0:
        return c2, 0.0, math.inf  # already converged
    if d01 * d12 <= 0.0:
        raise ExtrapolationError("non-monotone C(x1) sequence", x1_grid, values)
    p = math.log2(d01 / d12)
    if p <= 0.0:
        raise ExtrapolationError(f"fitted exponent p={p:.3g} not positive",
                                 x1_grid, values)
    # Aitken's form: (c0 c2 - c1^2)/(c0 - 2 c1 + c2) loses C^2 eps/(c0 - 2 c1 + c2)
    c_ext = c2 - d12 * d12 / (d01 - d12)
    a = d01 / (x1_grid[0] ** p - x1_grid[1] ** p)
    return c_ext, a, p


def constant_numeric(gamma, x2: float = DEFAULT_X2, basis=None) -> ConstantReport:
    """Constant by regularized quadrature, from one solve where the small-x
    series has converged and by x1 -> 0 extrapolation elsewhere.

    C(x1) = reg_integral(x1 -> x2) + x1^2 + (gamma0^2 + gamma1^2)/8 * log x1
    - endcap, x2 at most GlobalSolution.x_right; the endcap
    (`SmallXSeries.endcap`, at the smooth family's rho) integrates the
    series of H - q/x over (0, x1), the solve's own cut series
    (diagnostics["series"]), so C(x1) is off by about its first dropped
    term.  The series is built once and every solve shares it.  Cut at
    the smooth family's rho, where its first dropped term at the smallest
    point of DEFAULT_X1_GRID is below 1e-12, x1 doubles from there while
    that term stays below 1e-13, up to 0.08 (and below x2), and one solve
    there gives C (exponent inf): the series gives the run over smaller x
    in closed form.  Elsewhere the three points are solved and a
    three-point power-law fit gives C.  A gamma with a below 0.2 raises
    GenericityError before any solve.  A backward tail basis may be shared
    across solves; without one, they reuse solve_global's default basis.
    `integrator_stats` sums the work of every forward run of the solves.
    """
    check_genericity(3, gamma)
    g0, g1 = float(gamma[0]), float(gamma[1])
    if not DEFAULT_X1_GRID[0] < x2 <= GlobalSolution.x_right:
        raise ValueError(f"x2 must lie in ({DEFAULT_X1_GRID[0]}, "
                         f"{GlobalSolution.x_right}], got {x2}")
    a = min(2.0 + 2.0 * g0, 2.0 + (g1 - g0), 2.0 - 2.0 * g1)
    if a < _A_MIN:
        raise GenericityError(
            f"a(gamma) = min(2 + 2 gamma0, 2 + gamma1 - gamma0, 2 - 2 gamma1) "
            f"= {a:.6g} is below a_min = {_A_MIN} for gamma={(g0, g1)}")
    series, rho_f = SmallXSeries((g0, g1)), global_rho(3, (g0, g1))
    grid = DEFAULT_X1_GRID
    x1 = grid[-1]
    if series.cut(rho_f, x1).error < _ONE_SOLVE_TOL:
        while (2.0 * x1 <= _X1_MAX and 2.0 * x1 < x2
               and series.cut(rho_f, 2.0 * x1).error < _SERIES_TOL):
            x1 *= 2.0
        grid = (x1,)
    sols = [_solve((g0, g1), x1, basis, series) for x1 in grid]
    cut = sols[-1].diagnostics["series"]
    quad_coeff = (g0 * g0 + g1 * g1) / 8.0
    stats = {}
    for sol in sols:
        for key, value in sol.diagnostics["integrator_stats"].items():
            stats[key] = stats.get(key, 0) + value
    values = [sol.reg_integral(x2) + x1 * x1 + quad_coeff * math.log(x1)
              - sol.diagnostics["series"].endcap(sol.rho_formula, x1)
              for x1, sol in zip(grid, sols)]
    c_ext, p = (values[0], math.inf) if len(grid) == 1 else _power_fit(grid, values)[::2]
    c_closed = constant_closed((g0, g1))
    s1 = tail_amplitude_s1((g0, g1))
    tail = abs(s1) * math.sqrt(x2) * math.exp(-2.0 * math.sqrt(2.0) * x2)
    return ConstantReport(
        gamma=(g0, g1), c_numeric=float(c_ext), c_closed=float(c_closed),
        abs_diff=abs(float(c_ext) - float(c_closed)), x1_grid=grid,
        x2_used=float(x2), extrapolation_exponent=float(p),
        tail_bound=float(tail), a=a, integrator_stats=stats,
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
    H = reg_density(x, y, traj.n, traj.even_variant) - 2.0 * x
    return float(np.sum(weights * half * (np.vecdot(wt, wt, axis=0) / x - H)))
