"""Accurate global (connecting-orbit) solutions of the n = 3 chain.

Globally smooth solutions decay at infinity, but the linearization around
w = 0 carries growing modes exp(+2 sqrt(2) x) and exp(+4 x), so a plain
forward integration seeded at small x0 loses the connecting orbit once
the seed truncation error is amplified to order one.  This module
recovers the orbit to near machine precision with the standard two-sided
strategy:

  1. forward shooting from the small-x series of the chain, generated to
     order K <= 8 from the link data (`SmallXSeries`), with a Newton
     refinement of the seed offsets in rho, driving the growing-mode
     components to zero at a probe station that is pushed outward as the
     iteration converges; the Jacobian in rho comes exactly from
     tangent-linear columns carried by the probe;
  2. a backward-integrated two-mode tail basis (rates 2 sqrt 2 and 4,
     mode vectors (1, 1) and (1, -1)) seeded far out at x = 9, which is
     numerically stable in the decreasing-x direction;
  3. a least-squares match of the forward trajectory against the basis
     on the overlap window [3.9, 4.6], yielding tail amplitudes (A, D).

The composite object evaluates states on [x0, 9], forward up to x = 4.2
and tail beyond, and accumulates the regularized integral of (H + 2x),
forward part from the augmented integrator state and tail part by
fixed-panel Gauss-Legendre quadrature of the matched tail.  The series
also gives `tau_constant` the integral of H near x = 0 (the endcap).
"""

from __future__ import annotations

import copy
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
# exponent rows A over (w0, w1), their weights c in H = ... - x sum c_l e^link
# and the force matrix D = (c A)^T, D[i, l] = 2 (delta_{l,i} - delta_{l,i+1})
_LINK_ROWS = np.array([[4.0, 0.0], [-2.0, 2.0], [0.0, -4.0]])
_LINK_WEIGHTS = np.array([0.5, 1.0, 0.5])
_FORCE = (_LINK_WEIGHTS[:, None] * _LINK_ROWS).T
_L3 = np.arange(3)
# the series' highest order, and the first dropped term a lower one must reach
_K_MAX, _SERIES_TOL = 8, 1e-13


@functools.cache
def _series_tables():
    """Multi-indices k, |k| <= _K_MAX + 1, by order (n from row first[n]);
    shift[k, l]: row k - e_l, link l, of a flat (rows + 1, 3) array, its
    zero last row where k_l = 0; the pairs k = j + m, j != 0: (pk, pj, pm)
    sorted by k, those of k from pfirst[k] on, with |j| in jn."""
    N = _K_MAX + 1
    ks = np.array([(a, b, n - a - b) for n in range(N + 1)
                   for a in range(n, -1, -1) for b in range(n - a, -1, -1)])
    code = (N + 1) ** _L3
    lookup = np.zeros((N + 1) ** 3, dtype=int)
    lookup[ks @ code] = np.arange(len(ks))
    shift = 3 * np.where(ks > 0, lookup[(ks[:, None] - np.eye(3, dtype=int)) @ code],
                         len(ks)) + _L3
    pk, pj = np.nonzero(np.all(ks[None] <= ks[:, None], axis=2) & (ks.sum(1) > 0))
    pm = lookup[(ks[pk] - ks[pj]) @ code]
    first = np.searchsorted(ks.sum(1), np.arange(N + 2))
    return (ks, first, shift, pk, pj, pm, np.searchsorted(pk, np.arange(len(ks) + 1)),
            ks.sum(1)[pj, None].astype(float))


class SmallXSeries:
    """The small-x series of the chain, 1 <= |k| <= order, in the link terms
    P_l = exp((A rho)_l/2) x^{s_l}, s_l = 2 + (A gamma)_l/2 (McCoy-Tracy-Wu,
    J. Math. Phys. 18 (1977)).  On 2w = gamma log x + rho + 2 dw, in log x,
    dw_i'' = sum_l D_il P_l e^{(A dw)_l}: dw = sum_k c_k P^k order by order,
    c_k = [sum_l D_il P_l e^{(A dw)_l}]_k / (k.s)^2, e^u by the Euler
    recurrence |k| E_k = sum_{0<j<=k} |j| u_j E_{k-j}; f_k of x (H - q/x) =
    gamma/2 . dw' + |dw'|^2/2 - sum_l c_l P_l e^{(A dw)_l}, q = |gamma|^2/8.
    A solve computes them once (a constant once for all its solves), cuts
    them at its x0 and keeps the cut in its diagnostics["series"], so its
    endcap uses the seed's own K."""

    def __init__(self, gamma):
        ks, first, shift, pk, pj, pm, pfirst, jn = _series_tables()
        self.gamma = np.asarray(gamma, dtype=float)
        self.s = 2.0 + 0.5 * (_LINK_ROWS @ self.gamma)
        ks_s = ks @ self.s
        c, u, E = np.zeros((len(ks), 2)), np.zeros((len(ks), 3)), np.zeros((len(ks) + 1, 3))
        E[0] = 1.0
        for n in range(1, _K_MAX + 2):   # np.take: a fancy index costs 4x more here
            a, b = first[n], first[n + 1]
            c[a:b] = (E.take(shift[a:b]) @ _FORCE.T) / ks_s[a:b, None] ** 2
            u[a:b] = c[a:b] @ _LINK_ROWS.T
            p = slice(pfirst[a], pfirst[b])
            E[a:b] = np.add.reduceat(jn[p] * u.take(pj[p], 0) * E.take(pm[p], 0),
                                     pfirst[a:b] - pfirst[a]) / n
        dw = ks_s[:, None] * c   # the series of dw'
        two = pm > 0
        f = (dw @ (0.5 * self.gamma) - E.take(shift) @ _LINK_WEIGHTS + 0.5 * np.bincount(
            pk[two], np.sum(dw.take(pj[two], 0) * dw.take(pm[two], 0), 1), len(ks)))
        self.ks, self.ks_s, self.c, self.f = ks[1:], ks_s[1:], c[1:], f[1:]
        self.order, self.error, self._first = _K_MAX + 1, math.inf, first - 1

    def terms(self, rho, x: float) -> np.ndarray:
        """Rows (c_k, (k.s) c_k, -f_k/(k.s)) P^k at (rho, x): the terms of
        dw, dw' and the endcap."""
        P = np.exp(self.ks @ (0.5 * (_LINK_ROWS @ np.asarray(rho, dtype=float))))
        return (np.column_stack([self.c, self.ks_s[:, None] * self.c, -self.f / self.ks_s])
                * (P * x ** self.ks_s)[:, None])

    def cut(self, rho, x: float) -> SmallXSeries:
        """The series to the least order K <= _K_MAX whose first dropped term
        at (rho, x), the largest order-(K + 1) part of (dw, dw'), is below
        _SERIES_TOL, or to _K_MAX; `error` is that term."""
        by_order = np.abs(np.add.reduceat(self.terms(rho, x)[:, :4], self._first[1:-1])).max(1)
        K = next((n for n in range(1, _K_MAX) if by_order[n] < _SERIES_TOL), _K_MAX)
        out, rows = copy.copy(self), self._first[K + 1]
        out.ks, out.ks_s, out.c, out.f = (v[:rows] for v in (self.ks, self.ks_s, self.c, self.f))
        out.order, out.error = K, float(by_order[K])
        return out

    def endcap(self, rho, x1: float) -> float:
        """-sum_k f_k P^k(x1)/(k.s), the integral of H - q/x over (0, x1) negated."""
        return float(self.terms(rho, x1)[:, 4].sum())

    def seed(self, rho, x0: float, tangents: bool = False) -> list[float]:
        """[w, wt, q] at x0, w = gamma/2 log x0 + rho/2 + dw, wt = gamma/2 + dw';
        with `tangents`, d(w, wt)/d(rho_j) from dP^k/d(rho_j) = P^k (k.A_j)/2."""
        t = self.terms(rho, x0)
        g, r = self.gamma, np.asarray(rho, dtype=float)
        y = [*(0.5 * g * math.log(x0) + 0.5 * r + t[:, :2].sum(0)),
             *(0.5 * g + t[:, 2:4].sum(0)), 0.0]
        if tangents:
            cols = (0.5 * (self.ks @ _LINK_ROWS)).T @ t[:, :4]
            cols[:, :2] += 0.5 * np.eye(2)
            y += [*cols.ravel()]
        return [float(v) for v in y]


def _forward(series: SmallXSeries, rho, x0: float, x_end: float, cfg: IntegratorConfig,
             tally: dict, tangents: bool = False) -> Trajectory:
    """Forward run from the seed of `series`; its work is added to `tally`.
    With `tangents`, the run carries d(w, wt)/d(rho) to its end node."""
    traj = _integrate_raw(3, series.seed(rho, x0, tangents), x0, x_end, cfg)
    st = traj.stats
    tally["integrations"] += 1
    tally["steps"] += st.n_steps
    tally["rejected"] += st.n_rejected
    tally["rhs_evals"] += st.n_rhs_evals
    return traj


def _refine_rho(series: SmallXSeries, rho, x0: float,
                final_cfg: IntegratorConfig = FINAL_RUN_CONFIG
                ) -> tuple[np.ndarray, dict, Trajectory]:
    """Newton on the seed rho, starting from `rho`, driving the growing
    modes to zero.

    Each probe integrates from the seed of `series`, cut once at the
    starting rho and x0, to the station x_p, which advances to 3 and then
    to 4.95 as the residual converges (backing off before a blow-up).  The
    ladder starts at 3 where the series has converged at x0 (first dropped
    term below 1e-13) and at 1 otherwise.  A station below 4.95 is left
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
    work of every probe is summed in info["integrator_stats"], and the cut
    series, with its order and first dropped term, is info["series"].
    """
    rho = np.array(rho, dtype=float)
    series = series.cut(rho, x0)
    # the seed has |w_i| ~ |gamma_i|/2 |log x0|: a fixed threshold stops it at once
    threshold = max(2.0, 1.0 + max(abs(v) for v in series.seed(rho, x0)[:2]))
    coarse = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, blowup_threshold=threshold)
    fine = dataclasses.replace(final_cfg, blowup_threshold=threshold)
    x_p = 3.0 if series.error < _SERIES_TOL else 1.0
    tally = {"integrations": 0, "steps": 0, "rejected": 0, "rhs_evals": 0}
    info = {"iterations": 0, "residual": math.inf, "station": x_p,
            "integrator_stats": tally, "series": series}
    r_prev = math.inf
    newton_at_station = 0
    J: np.ndarray | None = None
    best: tuple[float, np.ndarray, Trajectory] | None = None

    for _ in range(48):
        info["iterations"] += 1
        final = x_p >= _STATION - 0.01
        cfg = fine if x_p >= 3.9 else coarse
        traj = _forward(series, rho, x0, x_p, cfg, tally, tangents=J is None)
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
                 basis: tuple[Trajectory, Trajectory] | None = None, *,
                 _series: SmallXSeries | None = None) -> GlobalSolution:
    """Compute the global solution with asymptotic slope data `gamma` (n=3).

    The seed at x0 is the small-x series (`SmallXSeries`) cut at order
    K <= 8, at the smooth family's rho plus a Newton-refined offset that
    compensates the terms it drops; the large-x side is the matched tail.
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
    diagnostics["series"] is the seed's cut series, which also gives the
    endcap at x0.  `_series` is private: a caller that already built the
    uncut `SmallXSeries` of gamma (`constant_numeric`, which chooses x1
    from it) passes it, so its coefficients are computed once per constant.
    """
    gamma = (float(gamma[0]), float(gamma[1]))
    if not 0.0 < x0 <= 0.1:
        raise UnsupportedConfigError(f"x0 must lie in (0, 0.1], got {x0!r}")
    rho_f = tuple(global_rho(3, gamma))
    series = SmallXSeries(gamma) if _series is None else _series
    rho_seed, info, fwd = _refine_rho(series, rho_f, x0, cfg or FINAL_RUN_CONFIG)
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
