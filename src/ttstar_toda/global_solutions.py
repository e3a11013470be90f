"""Accurate global (connecting-orbit) solutions of the n = 3 chain.

Globally smooth solutions decay at infinity, but the linearization around
w = 0 carries growing modes exp(+2 sqrt(2) x) and exp(+4 x), so a plain
forward integration seeded at small x0 loses the connecting orbit once
the seed truncation error is amplified to order one.  This module
recovers the orbit to near machine precision with the standard two-sided
strategy:

  1. forward shooting from a seed that carries the leading small-x terms,
     with a Newton refinement of the seed offsets in rho, driving the
     growing-mode components to zero at a probe station that is pushed
     outward as the iteration converges; the Jacobian in rho comes
     exactly from tangent-linear columns carried by the probe;
  2. a backward-integrated two-mode tail basis (rates 2 sqrt 2 and 4,
     mode vectors (1, 1) and (1, -1)) seeded far out at x = 9, which is
     numerically stable in the decreasing-x direction;
  3. a least-squares match of the forward trajectory against the basis
     on the overlap window [3.9, 4.6], yielding tail amplitudes (A, D).

The composite object evaluates states on [x0, 9], forward up to x = 4.2
and tail beyond, and accumulates the regularized integral of (H + 2x),
forward part from the augmented integrator state and tail part by
fixed-panel Gauss-Legendre quadrature of the matched tail.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .data_maps import global_rho
from .hamiltonian_flow import (IntegratorConfig, PhasePoint, Trajectory,
                               UnsupportedConfigError, _integrate_raw,
                               reg_density)

__all__ = ["GlobalSolveError", "GlobalSolution", "solve_global",
           "make_backward_basis", "fit_tail_amplitude", "FINAL_RUN_CONFIG"]

_SQ8 = 2.0 * math.sqrt(2.0)
_RATE_FAST = 4.0

# tolerances of the refined forward run that a global solution keeps: the
# library's default for solve_global, log_tau, constant_numeric and the
# `ttstar tau` / `ttstar constant` commands
FINAL_RUN_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, blowup_threshold=5.0)

# the one solve geometry: the last shooting station, the match window, the
# forward/tail switch and the right end of the tail basis.  The station and
# window keep the floats they were first written as, offsets from 4.7:
# (3.9, 4.6) as literals moves the matched amplitudes by a few ulps.
_STATION = 4.7 + 0.25
_WINDOW = (4.7 - 0.8, 4.7 - 0.1)
_X_SWITCH = 4.2
_X_RIGHT = 9.0


class GlobalSolveError(RuntimeError):
    """Shooting or matching failed to produce a usable global solution."""


def _mode_residual(y, x_p: float) -> np.ndarray:
    """Growing-mode combinations of (w, wt) = y[:4] at x_p; linear in y, so
    it maps tangent columns to Jacobian columns too."""
    w, wt = y[:2], y[2:4]
    u, v = w[0] + w[1], w[0] - w[1]
    ut, vt = wt[0] + wt[1], wt[0] - wt[1]
    r1 = ut / x_p + (_SQ8 + 0.5 / x_p) * u
    r2 = vt / x_p + (_RATE_FAST + 0.5 / x_p) * v
    return np.array([r1, r2])


def _growing_mode_residual(traj: Trajectory, x_p: float) -> np.ndarray:
    """Stable-subspace violation of (w, wt) at x_p; zero for pure decay."""
    return _mode_residual(traj.sample_state(x_p), x_p)


# the links e^{4 w0}, e^{2(w1 - w0)}, e^{-4 w1} of the n = 3 chain: their
# exponent rows over (w0, w1), and their weights in H = ... - x sum c_l e^link
_LINK_ROWS = np.array([[4.0, 0.0], [-2.0, 2.0], [0.0, -4.0]])
_LINK_WEIGHTS = np.array([0.5, 1.0, 0.5])


def link_terms(gamma, rho, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(P_l, s_l) of the leading small-x terms: on 2w = gamma log x + rho,
    x e^{link_l} = P_l / x with P_l = exp((A rho)_l / 2) x^{s_l} and
    s_l = 2 + (A gamma)_l / 2 (McCoy-Tracy-Wu, J. Math. Phys. 18 (1977))."""
    s = 2.0 + 0.5 * (_LINK_ROWS @ np.asarray(gamma, dtype=float))
    P = np.exp(0.5 * (_LINK_ROWS @ np.asarray(rho, dtype=float))) * x ** s
    return P, s


def endcap(gamma, rho, x1: float) -> float:
    """sum_l 2 c_l P_l(x1)/s_l^2: near x = 0, H - q/x ~ -(2/x) sum_l c_l P_l/s_l
    with q = |gamma|^2/8, and this is its integral over (0, x1), negated."""
    P, s = link_terms(gamma, rho, x1)
    return float(np.sum(2.0 * _LINK_WEIGHTS * P / (s * s)))


def _seed(gamma, rho, x0: float, tangents: bool = False) -> list[float]:
    """[w, wt, q] at x0 with the leading small-x terms,
    w_i = gamma_i/2 log x0 + rho_i/2 - 2 (P_{i+1}/s_{i+1}^2 - P_i/s_i^2) and
    wt_i = gamma_i/2 - 2 (P_{i+1}/s_{i+1} - P_i/s_i); with `tangents`, the
    columns d(w, wt)/d(rho_j) follow, from dP_l/d(rho_j) = P_l A_lj / 2."""
    P, s = link_terms(gamma, rho, x0)
    g, r = np.asarray(gamma, dtype=float), np.asarray(rho, dtype=float)
    dw, dwt = P / (s * s), P / s
    y = [*(0.5 * g * math.log(x0) + 0.5 * r - 2.0 * np.diff(dw)),
         *(0.5 * g - 2.0 * np.diff(dwt)), 0.0]
    if tangents:
        for j, a_j in enumerate(_LINK_ROWS.T):
            y += [*(0.5 * np.eye(2)[j] - np.diff(a_j * dw)), *-np.diff(a_j * dwt)]
    return [float(v) for v in y]


def _forward(gamma, rho, x0: float, x_end: float, cfg: IntegratorConfig,
             tally: dict, tangents: bool = False) -> Trajectory:
    """Forward run from the corrected seed; its work is added to `tally`.
    With `tangents`, the run carries d(w, wt)/d(rho) to its end node."""
    traj = _integrate_raw(3, _seed(gamma, rho, x0, tangents), x0, x_end, cfg)
    st = traj.stats
    tally["integrations"] += 1
    tally["steps"] += st.n_steps
    tally["rejected"] += st.n_rejected
    tally["rhs_evals"] += st.n_rhs_evals
    return traj


def _refine_rho(gamma, rho, x0: float, final_cfg: IntegratorConfig = FINAL_RUN_CONFIG
                ) -> tuple[np.ndarray, dict, Trajectory]:
    """Newton on the seed rho, starting from `rho`, driving the growing
    modes to zero.

    Each probe integrates from the corrected seed (`_seed`) to the station
    x_p, which advances to 3 and then to 4.95 as the residual converges
    (backing off before a blow-up).  The corrected seed misses the orbit
    by about 5 x0^(2a), a = min_l s_l, so the ladder starts at 3 when
    x0^(2a) <= 2e-8 and at 1 otherwise.  A station below 4.95 is left
    once its residual is below 1e-5: the linear decay condition at x_p is
    itself biased by more than that (at gamma (0.3, 0.1), station 1
    converged to 7e-13 still leaves 0.17 at the first probe at 3), so
    converging further buys the next station nothing.  A station that
    Newton leaves with the residual still above 1e-3 advances by 0.25 only.
    The Jacobian in rho is exact: the first probe at a station carries the
    tangent-linear flow (two columns d(w, wt)/d(rho_j), seeded with the
    seed's own derivative) and maps its end node through the same linear
    residual; it is taken again only when a Newton step fails to contract,
    every other probe is a plain run.  At 4.95 the iteration runs to
    2e-11, and a step that fails to contract ends it once the residual is
    below the accepted 1e-4: it has reached the noise floor, and a fresh
    Jacobian cannot lower it; 48 probes in all end it with an error.
    Probes from x = 3.9 on use the `final_cfg` tolerances, those inside it
    1e-10 and 1e-12, and at 4.95 the probe of lowest residual is returned
    with its rho; info["residual"] is the residual measured on it.  The
    work of every probe is summed in info["integrator_stats"].
    """
    rho = np.array(rho, dtype=float)
    # the seed has |w_i| ~ |gamma_i|/2 |log x0|: a fixed threshold stops it at once
    threshold = max(2.0, 1.0 + max(abs(v) for v in _seed(gamma, rho, x0)[:2]))
    coarse = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, blowup_threshold=threshold)
    fine = dataclasses.replace(final_cfg, blowup_threshold=threshold)
    a = float(np.min(link_terms(gamma, rho, x0)[1]))
    x_p = 3.0 if x0 ** (2.0 * a) <= 2e-8 else 1.0
    tally = {"integrations": 0, "steps": 0, "rejected": 0, "rhs_evals": 0}
    info = {"iterations": 0, "residual": math.inf, "station": x_p,
            "integrator_stats": tally}
    r_prev = math.inf
    newton_at_station = 0
    J: np.ndarray | None = None
    best: tuple[float, np.ndarray, Trajectory] | None = None

    for _ in range(48):
        info["iterations"] += 1
        final = x_p >= _STATION - 0.01
        cfg = fine if x_p >= 3.9 else coarse
        traj = _forward(gamma, rho, x0, x_p, cfg, tally, tangents=J is None)
        if traj.stop_reason != "completed":
            x_p = max(0.5, traj.x_final - 0.5)
            r_prev, newton_at_station, J = math.inf, 0, None
            continue
        r = _growing_mode_residual(traj, x_p)
        rnorm = float(np.max(np.abs(r)))
        info["residual"] = rnorm
        info["station"] = x_p
        if final and (best is None or rnorm < best[0]):
            best = (rnorm, rho, traj)
        if rnorm < (2e-11 if final else 1e-5) \
                or (newton_at_station >= 2 and rnorm > 0.25 * r_prev) \
                or newton_at_station >= 8:
            if final:
                break
            # left unconverged, the growing-mode error grows ~ exp(2 sqrt 2 dx)
            # and a full advance blows up: creep on until a station converges
            x_p = min(x_p + (2.0 if rnorm < 1e-3 else 0.25), _STATION)
            r_prev, newton_at_station, J = math.inf, 0, None
            continue
        if traj.tangent is not None:
            J = np.column_stack([_mode_residual(col, x_p) for col in traj.tangent.T])
        elif newton_at_station >= 1 and rnorm > 0.6 * r_prev:
            if final and rnorm <= 1e-4:
                break  # an exact Jacobian stalls only at the noise floor
            J = None  # re-probe this rho with tangents
            continue
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise GlobalSolveError(f"singular shooting Jacobian at x_p={x_p}") from exc
        nrm = float(np.max(np.abs(step)))
        if nrm > 0.5:
            step *= 0.5 / nrm
        rho = rho - step
        r_prev = rnorm
        newton_at_station += 1
    else:
        raise GlobalSolveError(
            f"shooting did not converge: station {info['station']}, "
            f"residual {info['residual']:.3e}")
    rnorm, rho, traj = best
    info["residual"] = rnorm
    if rnorm > 1e-4:
        raise GlobalSolveError(
            f"shooting stalled at residual {rnorm:.3e} (station {info['station']})")
    return rho, info, traj


def _mode_seed(x: float, vec, rate: float) -> np.ndarray:
    amp = x ** -0.5 * math.exp(-rate * x)
    damp = (-rate * x ** 0.5 - 0.5 * x ** -0.5) * math.exp(-rate * x)
    w = np.array(vec) * amp
    wt = np.array(vec) * damp
    return np.concatenate([w, wt, [0.0]])


def make_backward_basis() -> tuple[Trajectory, Trajectory]:
    """The two-mode backward tail basis, integrated from x = 9 down to 3.5;
    it depends on neither gamma nor x0, so solves may share one."""
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-22, blowup_threshold=5.0)
    atv = np.array([1e-22] * 4 + [1e-12])  # loose on q: unused for the basis
    bs = _integrate_raw(3, _mode_seed(_X_RIGHT, (1.0, 1.0), _SQ8),
                        _X_RIGHT, 3.5, cfg, abs_tol_vec=atv)
    bd = _integrate_raw(3, _mode_seed(_X_RIGHT, (1.0, -1.0), _RATE_FAST),
                        _X_RIGHT, 3.5, cfg, abs_tol_vec=atv)
    if bs.stop_reason != "completed" or bd.stop_reason != "completed":
        raise GlobalSolveError("backward basis integration failed")
    return bs, bd


@functools.cache
def _default_basis() -> tuple[Trajectory, Trajectory]:
    """The basis of every solve given none, built on first use."""
    return make_backward_basis()


def _match(fwd: Trajectory, bs: Trajectory, bd: Trajectory) -> tuple[float, float, float]:
    xs = np.linspace(*_WINDOW, 9)
    wgt = np.ones((4, xs.size))
    wgt[2:] = 1.0 / (3.0 * xs)
    # one row per (x, component), x-major
    t, col_s, col_d = ((traj.sample_state(xs)[:4] * wgt).T.ravel()
                       for traj in (fwd, bs, bd))
    M = np.column_stack([col_s, col_d])
    scale = float(np.max(np.abs(t)))
    if scale == 0.0:
        return 0.0, 0.0, 0.0  # identically-zero forward solution
    coef, *_ = np.linalg.lstsq(M, t, rcond=None)
    resid = float(np.max(np.abs(M @ coef - t)) / scale)
    return float(coef[0]), float(coef[1]), resid


_GL12 = np.polynomial.legendre.leggauss(12)


@dataclass
class GlobalSolution:
    """Matched composite global solution on [x0, x_right] (n = 3): the
    forward trajectory up to x_switch, the matched tail beyond."""

    x_switch = _X_SWITCH
    x_right = _X_RIGHT

    gamma: tuple[float, float]
    rho_formula: tuple[float, float]
    rho_seed: tuple[float, float]
    x0: float
    forward: Trajectory
    basis_sum: Trajectory
    basis_diff: Trajectory
    amp_sum: float
    amp_diff: float
    diagnostics: dict

    def tail_state(self, x: float) -> np.ndarray:
        return (self.amp_sum * self.basis_sum.sample_state(x)
                + self.amp_diff * self.basis_diff.sample_state(x))

    def state(self, x: float) -> PhasePoint:
        if x <= self.x_switch:
            return self.forward.sample(x)
        y = self.tail_state(x)
        return PhasePoint(x=x, w=tuple(y[:2]), wt=tuple(y[2:4]))

    def _tail_reg_integral(self, a: float, b: float) -> float:
        # fixed-panel Gauss-Legendre of H + 2x along the matched tail
        if b <= a:
            return 0.0
        nodes, weights = _GL12
        npanels = max(2, int(math.ceil((b - a) / 0.25)))
        edges = np.linspace(a, b, npanels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
        terms = weights * half * reg_density(x, self.tail_state(x), 3)
        # summed left to right, panel by panel: a pairwise sum would move
        # the constant in its last bits
        return float(np.cumsum(terms)[-1])

    def reg_integral(self, x2: float) -> float:
        """integral (H + 2x) dx from x0 to x2 along the composite orbit."""
        if not self.x0 < x2 <= self.x_right:
            raise ValueError(f"x2 must lie in ({self.x0}, {self.x_right}]")
        if x2 <= self.x_switch:
            return self.forward.reg_integral_to(x2)
        return (self.forward.reg_integral_to(self.x_switch)
                + self._tail_reg_integral(self.x_switch, x2))


def solve_global(gamma, x0: float, cfg: IntegratorConfig | None = None,
                 basis: tuple[Trajectory, Trajectory] | None = None) -> GlobalSolution:
    """Compute the global solution with asymptotic slope data `gamma` (n=3).

    The seed at x0 carries the leading small-x terms of the links in
    closed form (`link_terms`), at the smooth family's rho plus a
    Newton-refined offset that compensates the O(x0^{2a}) terms it still
    drops (a = min_l s_l); the large-x side is the matched two-mode tail.
    Genericity is checked once, by `global_rho`.  The shooting ends at
    station 4.95, the forward run is matched to the tail on [3.9, 4.6],
    and the solution switches from one to the other at 4.2.  The backward
    `basis` (`make_backward_basis`) is independent of gamma and x0:
    without one, a basis built on first use is reused.  `cfg` (None for
    FINAL_RUN_CONFIG) sets the tolerances of the shooting probes from
    x = 3.9 on, and the forward trajectory is the last-station probe of
    lowest residual, the very run diagnostics["residual"] was measured on:
    the match reacts to ulp-level changes of rho, so it is not integrated
    again.  The diagnostics sum the work of every forward run of the solve
    in "integrator_stats"; a basis is built once and not counted there.
    """
    gamma = (float(gamma[0]), float(gamma[1]))
    if not 0.0 < x0 <= 0.1:
        raise UnsupportedConfigError(f"x0 must lie in (0, 0.1], got {x0!r}")
    rho_f = tuple(global_rho(3, gamma))
    rho_seed, info, fwd = _refine_rho(gamma, rho_f, x0, cfg or FINAL_RUN_CONFIG)
    bs, bd = basis or _default_basis()
    A, D, resid = _match(fwd, bs, bd)
    return GlobalSolution(gamma=gamma, rho_formula=rho_f,
                          rho_seed=(float(rho_seed[0]), float(rho_seed[1])),
                          x0=x0, forward=fwd, basis_sum=bs, basis_diff=bd,
                          amp_sum=A, amp_diff=D,
                          diagnostics={**info, "match_residual": resid})


def fit_tail_amplitude(sol: GlobalSolution, window: tuple[float, float] = (5.0, 7.0),
                       npts: int = 41) -> float:
    """Fit w_0(x) sqrt(x) exp(2 sqrt 2 x) = a + b/x on the window; return a.

    For the decaying family the constant a estimates the tail coefficient
    -s1 * 2^(-7/4) / sqrt(pi).
    """
    xs = np.linspace(window[0], window[1], npts)
    vals = np.array([sol.state(x).w[0] * math.sqrt(x) * math.exp(_SQ8 * x)
                     for x in xs])
    M = np.vstack([np.ones_like(xs), 1.0 / xs]).T
    (a_fit, _b), *_ = np.linalg.lstsq(M, vals, rcond=None)
    return float(a_fit)
