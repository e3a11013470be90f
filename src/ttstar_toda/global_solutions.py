"""The small-x seed of the chain, and accurate global (connecting-orbit)
solutions of the n = 3 chain.

The seed of every n is the small-x series of the chain (`SmallXSeries`),
generated from the link data of `_links(n)` to order 9 (lower beyond six
links) and cut at the least order K whose first dropped term is below
1e-13; `init_from_asymptotics` gives it for small-x data (gamma, rho) at
the largest x0 2^-j where it has converged.

Globally smooth solutions decay at infinity, but the linearization around
w = 0 carries growing modes exp(+2 sqrt(2) x) and exp(+4 x) at n = 3, so a
plain forward integration seeded at small x0 loses the connecting orbit
once the seed truncation error is amplified to order one.  This module
recovers the n = 3 orbit to near machine precision with the standard
two-sided strategy:

  1. forward shooting from the series seed, started at the largest
     x0 2^-j where the series has converged, with a Newton refinement of
     the seed offsets in rho, driving the growing-mode components to zero
     at the station x = 4.95; the Jacobian in rho comes exactly from
     tangent-linear columns carried by the probe, and every solve takes
     its Newton step along them up to x = 3 instead of by a second
     probe, then relaunches a plain run from there: one tangent probe
     and one relaunch;
  2. the tail in closed form: beyond x ~ 3.9 the orbit is the chain
     linearised at w = 0, which x (x w')' = (r x)^2 w solves exactly mode
     by mode, K0(r x) v decaying and I0(r x) v growing, with rates r = 2
     sqrt 2 and 4 and vectors v = (1, 1) and (1, -1) (`_modes`; K and I by
     fixed quadratures, no scipy), and so is the integral of (H + 2x)
     along it, to quadratic order in the amplitudes
     (`GlobalSolution.truncation`);
  3. a least-squares match of the forward trajectory on the overlap window
     [3.9, 4.6] against the two decaying and the two growing modes, which
     keeps the decaying amplitudes `amps` (one per mode) and drops the
     growing content the integrator's error leaves in the run.

The composite object starts where the shooting does (its x0, the start
of step 1) and evaluates states on [x0, 9], forward up to x = 4.2 and
sum_k amps_k K0(r_k x) v_k beyond; it accumulates the regularized
integral of (H + 2x) from x0, forward part from the augmented integrator
state and tail part in closed form, as the difference of the integrals
beyond x_switch and beyond x2 (`GlobalSolution.truncation`), at most
1.0e-21 from the fixed-panel Gauss-Legendre quadrature of the matched
tail it replaced.  Its cut series
(diagnostics["series"]) also gives `tau_constant` the integral of H over
(0, x0) (the endcap).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data_maps import AsymptoticData, check_genericity, global_rho
# reg_density is not called here: it is kept because the benchmark
# (perfbench/tracing.py) rebinds the name, as make_backward_basis is kept
from .hamiltonian_flow import (IntegratorConfig, PhasePoint, Trajectory,
                               UnsupportedConfigError, _components_first, _integrate_raw,
                               _links, reg_density)
from .special_functions import _bessel

__all__ = ["GlobalSolveError", "GlobalSolution", "init_from_asymptotics", "solve_global",
           "make_backward_basis"]

# the chain linearised at w = 0, n = 3: rates r_k and vectors v_k (rows),
# K0(r_k x) v_k decaying and I0(r_k x) v_k growing; the one definition of
# the tail's modes, which the shooting, the tail, the match and the
# truncation all read.  2 sqrt 2 is kept as written: 4 sin(pi/4) differs
# in the last bit.
_RATES = np.array([2.0 * math.sqrt(2.0), 4.0])
_VECTORS = np.array([[1.0, 1.0], [1.0, -1.0]])
_RATES.flags.writeable = _VECTORS.flags.writeable = False
_L = len(_RATES)

# the one solve geometry: the shooting station, the match window, the
# forward/tail switch and the right end of the composite orbit.  The station
# and window keep the floats they were first written as, offsets from 4.7:
# (3.9, 4.6) as literals moves the matched amplitudes by a few ulps.
_STATION = 4.7 + 0.25
_WINDOW = (4.7 - 0.8, 4.7 - 0.1)
_X_SWITCH = 4.2
_X_RIGHT = 9.0
# the largest match residual a solve accepts
_MATCH_TOL = 1e-5


class GlobalSolveError(RuntimeError):
    """Shooting or matching failed to produce a usable global solution."""


def _mode_residual(y, x_p: float) -> np.ndarray:
    """Growing-mode content of (w, wt) = y[:2L] at x_p, one entry per mode
    k: (v_k . wt)/x_p + (r_k + 1/(2 x_p)) (v_k . w), small for the decaying
    K0(r_k x) v_k and of the mode's size for the growing I0(r_k x) v_k.
    Linear in y, so it maps tangent columns to Jacobian columns too."""
    w, wt = y[:_L], y[_L:2 * _L]
    return (_VECTORS @ wt) / x_p + (_RATES + 0.5 / x_p) * (_VECTORS @ w)


# the first dropped term a cut series must reach
_SERIES_TOL = 1e-13
# the series' top order: the largest order <= 9 whose multi-indices number
# at most 5005, the count at order 9 over 6 links (n <= 10); 3 links (n = 3)
# keep order 9 and their tables
_TOP_ORDER, _MAX_ROWS = 9, 5005
# the largest Newton step the shooting takes along the probe's tangent
# columns: the term the shift drops grows with the step squared, and the
# steps of 1,248 seeded solves were at most 1.55e-12
_LINEAR_STEP = 1e-11
# where a linear prediction hands over to a plain run: the dropped term
# grows like exp(8x) along the growing modes
_X_RELAUNCH = 3.0
# the lowest shooting start: a(gamma) = 0.2 starts from 0.08 2^-19 = 1.53e-7
_X_START_MIN = 1e-8


@functools.cache
def _series_tables(n_links: int):
    """Multi-indices k over n_links links, |k| <= N (the top order), by
    order (order d from row first[d]), then k descending; shift[k, l]: row
    k - e_l, link l, of a flat (rows + 1, n_links) array, its zero last row
    where k_l = 0; the pairs k = j + m, j != 0: (pk, pj, pm) sorted by k,
    those of k from pfirst[k] on, with |j| in jn.  A multi-index is
    enumerated as the sorted tuple of its links, one entry per unit, which
    combinations_with_replacement gives in the order above."""
    N = max(d for d in range(1, _TOP_ORDER + 1) if math.comb(d + n_links, n_links) <= _MAX_ROWS)
    combos = [c for d in range(N + 1)
              for c in itertools.combinations_with_replacement(range(n_links), d)]
    row = {c: i for i, c in enumerate(combos)}
    ks = np.array([[c.count(l) for l in range(n_links)] for c in combos])
    first = np.searchsorted(ks.sum(1), np.arange(N + 2))
    # every j != 0 with every m of |m| <= N - |j|, a prefix of the rows
    pairs = np.array([(row[tuple(sorted(cj + cm))], j, row[cm]) for j, cj in enumerate(combos)
                      if cj for cm in combos[:first[N + 1 - len(cj)]]]).T
    pk, pj, pm = pairs[:, np.lexsort(pairs[1::-1])]
    # row k - e_l is the m of the pair j = e_l, row l + 1
    shift = np.full(ks.shape, len(ks))
    unit = pj <= n_links
    shift[pk[unit], pj[unit] - 1] = pm[unit]
    return (ks, first, n_links * shift + np.arange(n_links), pk, pj, pm,
            np.searchsorted(pk, np.arange(len(ks) + 1)), ks.sum(1)[pj, None].astype(float))


class SmallXSeries:
    """The small-x series of chain n, 1 <= |k| <= order, in the link terms
    P_l = exp((A rho)_l/2) x^{s_l}, s_l = 2 + (A gamma)_l/2, with the link
    rows A and weights c of `_links(n)` (McCoy-Tracy-Wu, J. Math. Phys. 18
    (1977); at n = 1 the sinh-Gordon case of Tracy, CMP 142 (1991)).  On
    2w = gamma log x + rho + 2 dw, in log x, dw_i'' = sum_l D_il P_l
    e^{(A dw)_l} with the force matrix D = (c A)^T: dw = sum_k c_k P^k
    order by order, c_k = [sum_l D_il P_l e^{(A dw)_l}]_k / (k.s)^2, e^u by
    the Euler recurrence |k| E_k = sum_{0<j<=k} |j| u_j E_{k-j}; f_k of
    x (H - q/x) = gamma/2 . dw' + |dw'|^2/2 - sum_l c_l P_l e^{(A dw)_l},
    q = |gamma|^2/8.  The order is 9 up to 6 links (n <= 10) and lower
    beyond (`_series_tables`).  A solve computes them once, cuts them at
    its start and keeps the cut in its diagnostics["series"], so the
    endcap a constant reads from it uses the seed's own K."""

    def __init__(self, n: int, gamma):
        self.n = n
        self.rows, self.weights = _links(n)
        m, L = self.rows.shape
        ks, first, shift, pk, pj, pm, pfirst, jn = _series_tables(m)
        force = (self.weights[:, None] * self.rows).T
        self.gamma = np.asarray(gamma, dtype=float)
        self.s = 2.0 + 0.5 * (self.rows @ self.gamma)
        ks_s = ks @ self.s
        c, u, E = np.zeros((len(ks), L)), np.zeros((len(ks), m)), np.zeros((len(ks) + 1, m))
        E[0] = 1.0
        for d in range(1, len(first) - 1):   # np.take: a fancy index costs 4x more here
            a, b = first[d], first[d + 1]
            c[a:b] = (E.take(shift[a:b]) @ force.T) / ks_s[a:b, None] ** 2
            u[a:b] = c[a:b] @ self.rows.T
            p = slice(pfirst[a], pfirst[b])
            E[a:b] = np.add.reduceat(jn[p] * u.take(pj[p], 0) * E.take(pm[p], 0),
                                     pfirst[a:b] - pfirst[a]) / d
        dw = ks_s[:, None] * c   # the series of dw'
        two = pm > 0
        f = (dw @ (0.5 * self.gamma) - E.take(shift) @ self.weights + 0.5 * np.bincount(
            pk[two], np.sum(dw.take(pj[two], 0) * dw.take(pm[two], 0), 1), len(ks)))
        self.ks, self.ks_s, self.c, self.f = ks[1:], ks_s[1:], c[1:], f[1:]
        self.order, self.error, self._first = len(first) - 2, math.inf, first - 1

    def terms(self, rho, x: float) -> np.ndarray:
        """Rows (c_k, (k.s) c_k, -f_k/(k.s)) P^k at (rho, x): the terms of
        dw, dw' and the endcap."""
        P = np.exp(self.ks @ (0.5 * (self.rows @ np.asarray(rho, dtype=float))))
        return (np.column_stack([self.c, self.ks_s[:, None] * self.c, -self.f / self.ks_s])
                * (P * x ** self.ks_s)[:, None])

    def cut(self, rho, x: float) -> SmallXSeries:
        """The series to the least order K below its top order whose first
        dropped term at (rho, x), the largest order-(K + 1) part of (dw,
        dw'), is below _SERIES_TOL, or to one below the top order; `error`
        is that term."""
        by_order = np.abs(np.add.reduceat(self.terms(rho, x)[:, :-1], self._first[1:-1])).max(1)
        top = len(by_order) - 1
        K = next((d for d in range(1, top) if by_order[d] < _SERIES_TOL), top)
        out, rows = copy.copy(self), self._first[K + 1]
        out.ks, out.ks_s, out.c, out.f = (v[:rows] for v in (self.ks, self.ks_s, self.c, self.f))
        out.order, out.error = K, float(by_order[K])
        return out

    def endcap(self, rho, x1: float) -> float:
        """-sum_k f_k P^k(x1)/(k.s), the integral of H - q/x over (0, x1) negated."""
        return float(self.terms(rho, x1)[:, -1].sum())

    def seed(self, rho, x0: float, tangents: bool = False) -> list[float]:
        """[w, wt, q] at x0, w = gamma/2 log x0 + rho/2 + dw, wt = gamma/2 + dw';
        with `tangents`, the columns d(w, wt, q)/d(rho_j) from dP^k/d(rho_j)
        = P^k (k.A_j)/2, with dq = 0: q starts at 0 whatever rho."""
        t = self.terms(rho, x0)
        g, r, L = self.gamma, np.asarray(rho, dtype=float), len(self.gamma)
        y = [*(0.5 * g * math.log(x0) + 0.5 * r + t[:, :L].sum(0)),
             *(0.5 * g + t[:, L:-1].sum(0)), 0.0]
        if tangents:
            cols = np.zeros((L, 2 * L + 1))
            cols[:, :-1] = (0.5 * (self.ks @ self.rows)).T @ t[:, :-1]
            cols[:, :L] += 0.5 * np.eye(L)
            y += [*cols.ravel()]
        return [float(v) for v in y]


def _converged_start(series: SmallXSeries, rho, x0: float) -> tuple[float, SmallXSeries]:
    """The largest x0 2^-j (j >= 0) at which the series cut at rho drops a
    first term below _SERIES_TOL, with that cut.  An x0 outside (0, 0.1]
    raises UnsupportedConfigError; below _X_START_MIN the GlobalSolveError
    names a(gamma) and the term (a NaN term never converges)."""
    if not 0.0 < x0 <= 0.1:
        raise UnsupportedConfigError(f"x0 must lie in (0, 0.1], got {x0!r}")
    x = x0
    while not (cut := series.cut(rho, x)).error < _SERIES_TOL:
        x *= 0.5
        if x < _X_START_MIN:
            raise GlobalSolveError(
                f"the small-x series has not converged above x = {_X_START_MIN:g}: "
                f"first dropped term {cut.error:.3e} at a(gamma) = {float(min(series.s))!r}, "
                f"gamma = {tuple(series.gamma.tolist())}")
    return x, cut


def init_from_asymptotics(a: AsymptoticData, x0: float) -> PhasePoint:
    """The seed of chain a.n from its small-x data a = (gamma, rho): (w, wt)
    of `SmallXSeries(a.n, a.gamma)` at rho, cut where it has converged, at
    the start `_converged_start` gives from x0 in (0, 0.1] (PhasePoint.x:
    the largest x0 2^-j where the first dropped term is below 1e-13, x0
    itself where the series has converged there).  A series not converged
    above 1e-8 raises GlobalSolveError naming a(gamma), and an x0 outside
    (0, 0.1] UnsupportedConfigError; `AsymptoticData` has refused a
    non-finite rho."""
    check_genericity(a.n, a.gamma)
    x, cut = _converged_start(SmallXSeries(a.n, a.gamma), a.rho, x0)
    return PhasePoint.from_state(x, cut.seed(a.rho, x))


def _refine_rho(series: SmallXSeries, rho, x0: float) -> tuple[np.ndarray, dict, Trajectory]:
    """One Newton step on the seed rho, starting from `rho`, driving the
    growing modes to zero at the station 4.95.

    The probe integrates from the seed of `series`, cut once at rho, at
    the start `_converged_start` gives: the largest x0 2^-j where the
    series' first dropped term is below 1e-13, so the seed misses the
    orbit by less than that (info["x_start"]).  It carries the
    tangent-linear flow (two columns d(w, wt, q)/d(rho_j), seeded with
    the seed's own derivative), which maps its end node through the same
    linear residual to the exact Jacobian in rho.  A Newton step of
    _LINEAR_STEP = 1e-11 or more (max norm), which none of 1,248 seeded
    solves took, raises GlobalSolveError naming it, as does a probe that
    blows up, by the integrator's rule against its own seed
    (`_integrate_raw`).

    Every solve then ends by one rule, and no probe is run from rho -
    step.  The kept orbit is the probe shifted by -step along its columns
    up to its last node at or below _X_RELAUNCH = 3, and a plain run from
    there to the station: the columns grow like exp(4x), and the
    second-order term the shift drops reaches 5e-12 in the regularized
    integral at 4.2, 1e-15 at 3.  The trivial orbit takes it too, with a
    step of 0.  info["residual"] is measured on the kept orbit (9.6e-15
    to 1.0e-9 over 1,129 seeded solves, 0 on the trivial orbit) and
    info["probe_residual"] on the probe; a kept residual above 1e-4
    raises GlobalSolveError.  Every run is at rel_tol 1e-12 and abs_tol
    1e-14, and the kept orbit is returned with its rho.
    info["integrator_stats"] is read off the kept orbit's
    `IntegrationStats`, which count the work of both runs, and the cut
    series, with its order and first dropped term, is info["series"];
    info["iterations"] counts the probes, one.
    """
    rho = np.array(rho, dtype=float)
    start, series = _converged_start(series, rho, x0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    probe = _integrate_raw(series.n, series.seed(rho, start, tangents=True), start, _STATION, cfg)
    if probe.stop_reason != "completed":
        raise GlobalSolveError(f"shooting probe from x = {start:.6g} stopped "
                               f"({probe.stop_reason}) at x = {probe.x_final:.6g}")
    r = _mode_residual(probe.sample_state(_STATION), _STATION)
    J = np.column_stack([_mode_residual(col, _STATION) for col in probe.tangent_ys[:, :, -1]])
    try:
        step = np.linalg.solve(J, r)
    except np.linalg.LinAlgError as exc:
        raise GlobalSolveError("singular shooting Jacobian") from exc
    nrm, probe_residual = float(np.max(np.abs(step))), float(np.max(np.abs(r)))
    if not nrm < _LINEAR_STEP:
        raise GlobalSolveError(f"Newton step {nrm:.3e} off the shooting probe is above "
                               f"{_LINEAR_STEP:g} (probe residual {probe_residual:.3e})")
    head = probe.shifted(-step)
    k = int(np.searchsorted(head.xs, _X_RELAUNCH, side="right")) - 1
    traj = head.joined(_integrate_raw(head.n, head.ys[:, k], float(head.xs[k]), _STATION, cfg))
    residual = float(np.max(np.abs(_mode_residual(traj.sample_state(_STATION), _STATION))))
    if residual > 1e-4:
        raise GlobalSolveError(f"shooting residual {residual:.3e} on the kept orbit above 1e-4")
    st = traj.stats
    stats = {"integrations": st.n_integrations, "steps": st.n_steps, "rejected": st.n_rejected,
             "rhs_evals": st.n_rhs_evals, "tangent_rhs_evals": st.n_tangent_rhs}
    return rho - step, {"iterations": 1, "station": _STATION, "x_start": start,
                        "residual": residual, "probe_residual": probe_residual,
                        "integrator_stats": stats, "series": series}, traj


def _modes(x, amps, growing: bool = False) -> np.ndarray:
    """[w, wt] of sum_k amps_k v_k K0(r_k x), components on axis 0 as in
    `Trajectory.sample_state` (by the same `_components_first`), with wt =
    x dw/dx = -sum_k amps_k v_k r_k x K1(r_k x); with `growing`, I0 and
    +r_k x I1.  `amps` broadcasts against the modes on its last axis: amps
    = eye(2) at x[..., None] gives the modes one by one, on a last axis."""
    z = _RATES * np.asarray(x, dtype=float)[..., None]
    b, amps = _bessel(z, growing), np.asarray(amps, dtype=float)
    w = (amps * b[..., 0]) @ _VECTORS
    wt = (amps * (z if growing else -z) * b[..., 1]) @ _VECTORS
    return _components_first(np.concatenate([w, wt], axis=-1))


def make_backward_basis() -> tuple[np.ndarray, np.ndarray]:
    """The tail's mode table (rates, vectors), which `_modes` reads.  The
    tail is closed-form, so nothing is integrated; the name and the
    `basis=` parameters that take its value are kept only because the
    benchmark (perfbench/workloads.py) calls and passes them."""
    return _RATES, _VECTORS


def _match(fwd: Trajectory) -> tuple[tuple[float, ...], float]:
    """The decaying amplitudes of the forward run on the window [3.9,
    4.6], one per mode, and the fit's residual relative to the run's
    largest entry.

    The fit is least squares against the two decaying and the two growing
    modes (Beyn's projection of the unstable part, IMA J. Numer. Anal. 10,
    1990), each column scaled to unit max: the column sizes span 1e11.
    The growing amplitudes, the integrator's error amplified along the
    run, are dropped."""
    xs = np.linspace(*_WINDOW, 9)
    wgt = np.ones((2 * _L, xs.size))
    wgt[_L:] = 1.0 / (3.0 * xs)
    # one row per (x, component), x-major
    t = (fwd.sample_state(xs)[:2 * _L] * wgt).T.ravel()
    scale = float(np.max(np.abs(t)))
    if scale == 0.0:
        return (0.0,) * _L, 0.0  # identically-zero forward solution
    M = np.hstack([(_modes(xs[:, None], np.eye(_L), growing) * wgt[..., None])
                   .transpose(1, 0, 2).reshape(-1, _L) for growing in (False, True)])
    col = np.max(np.abs(M), axis=0)
    M /= col
    coef, *_ = np.linalg.lstsq(M, t, rcond=None)
    resid = float(np.max(np.abs(M @ coef - t)) / scale)
    return tuple((coef[:_L] / col[:_L]).tolist()), resid


@dataclass
class GlobalSolution:
    """Matched composite global solution on [x0, x_right] (n = 3): the
    forward trajectory from its start x0 up to x_switch, the matched tail
    sum_k amps_k K0(r_k x) v_k beyond."""

    x_switch = _X_SWITCH
    x_right = _X_RIGHT

    gamma: tuple[float, ...]
    rho_formula: tuple[float, ...]
    rho_seed: tuple[float, ...]
    x0: float
    forward: Trajectory
    amps: tuple[float, ...]
    diagnostics: dict

    def tail_state(self, x) -> np.ndarray:
        """[w, wt] of the matched tail at x in [x0, x_right], a scalar or an
        array."""
        self._check_range("x", x)
        return _modes(x, self.amps)

    def _check_range(self, name: str, x) -> None:
        # an array by its extremes: one NaN entry makes them NaN, which fails
        lo, hi = (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)
        if not (self.x0 <= lo and hi <= self.x_right):
            raise ValueError(f"{name} must lie in [{self.x0}, {self.x_right}]")

    def state(self, x: float) -> PhasePoint:
        """The composite orbit's phase point at x in [x0, x_right]."""
        self._check_range("x", x)
        if x <= self.x_switch:
            return self.forward.sample(x)
        return PhasePoint.from_state(x, _modes(x, self.amps))

    @property
    def shooting(self) -> dict:
        """What the shooting did: its probes ("iterations", one), its
        start, the growing-mode residual at the station measured on the
        kept orbit ("residual") and on the probe's run ("probe_residual"),
        the match residual, and the max norm of the Newton correction
        rho_seed - rho_formula."""
        d = self.diagnostics
        return {**{k: d[k] for k in ("iterations", "x_start", "residual", "probe_residual",
                                      "match_residual")},
                "correction": max(abs(a - b) for a, b in zip(self.rho_seed, self.rho_formula))}

    @functools.cached_property
    def _at_switch(self) -> tuple[float, float]:
        # reg_integral and truncation at x_switch, which every read past it adds
        return self.forward.reg_integral_to(self.x_switch), self.truncation(self.x_switch)

    def reg_integral(self, x2: float) -> float:
        """integral (H + 2x) dx from x0, the orbit's start, to x2 along the
        composite orbit; 0.0 at x0.  Up to x_switch it is the forward
        run's; past it, that value at x_switch plus the tail's part in
        closed form, truncation(x_switch) - truncation(x2), about 1e-14.
        It and 12-node Gauss-Legendre quadrature of H + 2x on panels of at
        most 0.25 over [x_switch, x2] differ by at most 1.0e-21 over 150
        x2 on three solutions (the cubic terms the truncation leaves out),
        below one ulp of reg_integral: all 450 reads keep their bits."""
        self._check_range("x2", x2)
        if x2 <= self.x_switch:
            return self.forward.reg_integral_to(x2)
        head, at_switch = self._at_switch
        return head + (at_switch - self.truncation(x2))

    def truncation(self, x2: float) -> float:
        """integral (H + 2x) dx from x2 to infinity along the matched tail,
        to quadratic order: sum_k amps_k^2 |v_k|^2/2 (z K0(z) K1(z) - z^2
        (K1(z)^2 - K0(z)^2)) at z = r_k x2.  The modes are orthogonal, so
        no cross terms enter.  Its differences give reg_integral past
        x_switch; one read is one 2-point `_bessel` call."""
        self._check_range("x2", x2)
        z = _RATES * x2
        k0, k1 = _bessel(z).T
        return float(np.sum(np.square(self.amps) * np.sum(_VECTORS * _VECTORS, 1) / 2
                            * (z * k0 * k1 - z * z * (k1 * k1 - k0 * k0))))


def solve_global(gamma, x0: float, basis=None) -> GlobalSolution:
    """Compute the global solution with asymptotic slope data `gamma` (n=3).

    The seed is the small-x series (`SmallXSeries`) cut at order K <= 8,
    at the smooth family's rho plus a Newton-refined offset that
    compensates the terms it drops; the large-x side is the matched tail.
    The shooting starts at the largest x0 2^-j where the series' first
    dropped term is below 1e-13, at x0 itself where it has converged
    there; a series not converged above 1e-8 raises GlobalSolveError
    naming a(gamma), and an x0 outside (0, 0.1] UnsupportedConfigError
    (`_converged_start`), as does a start where the vector field is not
    finite (a subnormal x0, `_integrate_raw`).  That start is the solution's x0 (also
    diagnostics["x_start"]), from which reg_integral is measured.
    Genericity and the length of gamma are checked once, by `global_rho`.
    The shooting ends at station 4.95, the forward run is matched to the
    tail on [3.9, 4.6], and the solution switches from one to the other
    at 4.2; a match residual above 1e-5 (diagnostics["match_residual"])
    raises GlobalSolveError.  The tail is closed-form, so `basis` is
    unused: it is kept for the benchmark (`make_backward_basis`).
    A solve has one tolerance set: its runs are at rel_tol 1e-12 and
    abs_tol 1e-14 (`_refine_rho`), and the forward trajectory is the
    orbit the shooting kept, the one diagnostics["residual"] was measured
    on: the tangent probe shifted by the Newton step up to x = 3 and a
    plain run beyond (diagnostics["probe_residual"] is the probe's own).
    The match reacts to ulp-level changes of rho, so the kept orbit is
    not integrated again.  diagnostics["integrator_stats"] is read off the
    kept orbit's `IntegrationStats`, the work of both runs: integrations,
    steps, rejected steps, RHS calls and, of those, the ones that carried
    tangent columns ("tangent_rhs_evals"); `shooting` sums up the
    shooting.
    diagnostics["series"] is the seed's cut series, with its order and
    first dropped term, which also gives the endcap over (0, x0).
    """
    gamma = tuple(float(g) for g in gamma)
    rho_f = tuple(global_rho(3, gamma))
    rho_seed, info, fwd = _refine_rho(SmallXSeries(3, gamma), rho_f, x0)
    amps, resid = _match(fwd)
    if resid > _MATCH_TOL:
        raise GlobalSolveError(f"tail match residual {resid:.3e} above {_MATCH_TOL:g}")
    return GlobalSolution(gamma=gamma, rho_formula=rho_f, rho_seed=tuple(rho_seed.tolist()),
                          x0=info["x_start"], forward=fwd, amps=amps,
                          diagnostics={**info, "match_residual": resid})
