"""Radial Hamiltonian dynamics of the anti-symmetric periodic Toda chain.

State is the reduced pair (w, w_tilde) with w_tilde_i = x dw_i/dx on the
half-line x > 0.  For odd n the Hamiltonian is

    H(w, wt; x) = (1/2x) sum wt_i^2
                  - x sum_{i=1..K} exp(2(w_i - w_{i-1}))
                  - (x/2) (exp(-4 w_K) + exp(4 w_0)),      K = (n-1)/2,

with equations of motion dw_i/dx = wt_i/x and
dwt_i/dx = -2x (exp(2(w_{i+1}-w_i)) - exp(2(w_i-w_{i-1}))) under the
anti-symmetric closures w_{-1} = -w_0, w_{K+1} = -w_K.  An even-n variant
(middle entry frozen at 0, boundary term -x exp(-2 w_K)) is available
behind an explicit flag; it is validated against the closure form of the
equations of motion rather than taken from a stated formula.

The chain's energy and force are written once, in `_make_rhs`, the vector
field of the augmented state [w, wt, q] with q' = H + 2x; the stepper,
`hamiltonian`, `vector_field` and `reg_density` evaluate it.  It takes one
state as a sequence of floats (math.expm1, a list back) or a batch as an
array (dim, ...) with the components on axis 0 (np.expm1, an array back).

`integrate` is an embedded Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic dense-output interpolant (Hairer,
Norsett and Wanner, Solving ODEs I, sections II.5-II.6).  It steps on
plain Python floats: stages, update and error norm are loops over the
components, since numpy calls on 5-vectors cost more than the arithmetic.
Accepted states and stages go into flat array('d') buffers, and the
dense-output coefficients of a whole trajectory come from one product at
its end.  Through the q channel trajectories accumulate the regularized
integral of H against the trivial background -2x as they go.  Blow-up
(sup-norm of w beyond a threshold, or step underflow) flags and returns
the partial trajectory instead of raising.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .data_maps import AsymptoticData, check_genericity, reduced_length

__all__ = [
    "UnsupportedConfigError",
    "PhasePoint",
    "IntegratorConfig",
    "IntegrationStats",
    "Trajectory",
    "hamiltonian",
    "reg_density",
    "vector_field",
    "init_from_asymptotics",
    "integrate",
    "tail_amplitude_s1",
    "check_quasihomogeneity",
    "trajectory_to_csv",
]


class UnsupportedConfigError(ValueError):
    """Configuration outside the supported parameter range."""


@dataclass(frozen=True)
class PhasePoint:
    """Reduced phase-space point at radius x (> 0)."""

    x: float
    w: tuple[float, ...]
    wt: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))
        object.__setattr__(self, "wt", tuple(float(v) for v in self.wt))
        if not self.x > 0.0:
            raise UnsupportedConfigError(f"x must be positive, got {self.x!r}")
        if len(self.w) != len(self.wt):
            raise UnsupportedConfigError("w and wt must have equal length")


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12
    blowup_threshold: float = 5.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise UnsupportedConfigError("tolerances must be positive")


@dataclass
class IntegrationStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0


def _check_n(n: int, L: int, even_variant: bool) -> None:
    if n % 2 == 0 and not even_variant:
        raise UnsupportedConfigError(
            f"n={n} is even; pass even_variant=True to enable the derived extension")
    if L != reduced_length(n):
        raise UnsupportedConfigError(
            f"state length {L} does not match reduced length {reduced_length(n)} for n={n}")


def _make_rhs(n: int, even_variant: bool):
    """Vector field of [w, wt, q] with q' = H + 2x, and the reduced length L.

    `f(x, y)` takes one state as a sequence of floats and returns a list of
    floats (math.expm1), or a batch as an array (dim, ...) with x
    broadcasting against y[0] and returns an array (np.expm1); the input
    type chooses.  Link exponentials enter only through expm1 of the
    2(w_{i+1} - w_i) differences, so both the force terms and the
    regularized density H + 2x stay relatively accurate down to vanishing
    amplitudes (the trivial-background cancellation is done in closed
    form).  The body is plain loops over the L + 1 links: the stepper
    calls it six times per step, and a comprehension is one more call.

    Components past the 2L + 1 of the state are tangent columns [dw, dwt]
    (2L each) of the tangent-linear flow, and f returns their linearised
    derivatives after the state's: with T_i = E_i + 1 the exponential of
    link i, dE_i = T_i times the derivative of the link's exponent.
    """
    L = reduced_length(n)
    odd = n % 2 == 1
    # -x(L-1) - x + 2x from the link constants against the +2x term
    q_const = 2.0 - float(L) if odd else 1.5 - float(L)
    # the last link closes on w_L = -w_{L-1} (odd n) or on the frozen
    # middle entry 0 (even n), whose boundary term has twice the weight
    last, last_weight = (-4.0, 1.0) if odd else (-2.0, 2.0)
    inner = range(1, L)
    comps = range(L)
    dim = 2 * L + 1

    def f(x, y):
        batch = isinstance(y, np.ndarray)
        expm1 = np.expm1 if batch else math.expm1
        try:
            E = [expm1(4.0 * y[0])]                # E_i = T_i - 1; link 0: w_0 - (-w_0)
            for i in inner:
                E.append(expm1(2.0 * (y[i] - y[i - 1])))
            E.append(expm1(last * y[L - 1]))
        except OverflowError:
            # a wild trial state: return the infinities np.expm1 gives, so
            # that the stepper rejects the step as it rejects any non-finite one
            return f(x, np.array(y)).tolist()
        out = []
        ww = 0.0
        for i in comps:
            wt = y[L + i]
            out.append(wt / x)
            ww = ww + wt * wt
        m2x = -2.0 * x
        for i in comps:
            out.append(m2x * (E[i + 1] - E[i]))
        e_inner = 0.0
        for i in inner:
            e_inner = e_inner + E[i]
        out.append(ww / (2.0 * x) - x * e_inner + q_const * x
                   - 0.5 * x * (last_weight * E[L] + E[0]))
        if len(y) > dim:
            for c in range(dim, len(y), 2 * L):   # tangent column [dw, dwt] at c
                dE = [4.0 * (E[0] + 1.0) * y[c]]
                for i in inner:
                    dE.append(2.0 * (E[i] + 1.0) * (y[c + i] - y[c + i - 1]))
                dE.append(last * (E[L] + 1.0) * y[c + L - 1])
                for i in comps:
                    out.append(y[c + L + i] / x)
                for i in comps:
                    out.append(m2x * (dE[i + 1] - dE[i]))
        return np.array(out) if batch else out

    return f, L


def _rhs_at(p: PhasePoint, n: int, even_variant: bool) -> list[float]:
    _check_n(n, len(p.w), even_variant)
    f, _L = _make_rhs(n, even_variant)
    return f(p.x, p.w + p.wt)


def hamiltonian(p: PhasePoint, n: int, even_variant: bool = False) -> float:
    """Energy H(w, wt; x) of the reduced chain: the kernel's H + 2x, less 2x."""
    return _rhs_at(p, n, even_variant)[-1] - 2.0 * p.x


def vector_field(p: PhasePoint, n: int, even_variant: bool = False):
    """(dw/dx, dwt/dx) of the Hamiltonian system."""
    L = len(p.w)
    d = _rhs_at(p, n, even_variant)
    return tuple(d[:L]), tuple(d[L:2 * L])


def reg_density(x, y: np.ndarray, n: int, even_variant: bool = False):
    """H + 2x at state(s) y = [w, wt, ...] (components on axis 0), evaluated
    without trivial-background cancellation."""
    f, L = _make_rhs(n, even_variant)
    return f(x, y)[2 * L]


def init_from_asymptotics(a: AsymptoticData, x0: float) -> PhasePoint:
    """Leading-order seed w_i = (gamma_i/2) log x0 + rho_i/2, wt_i = gamma_i/2.

    The dropped O(x0^eps) correction biases downstream quantities by a
    power of x0; the tau-side extrapolation in x0 absorbs it.
    """
    check_genericity(a.n, a.gamma)
    if not 0.0 < x0 <= 0.1:
        raise UnsupportedConfigError(f"x0 must lie in (0, 0.1], got {x0!r}")
    lx = math.log(x0)
    w = tuple(0.5 * g * lx + 0.5 * r for g, r in zip(a.gamma, a.rho))
    wt = tuple(0.5 * g for g in a.gamma)
    return PhasePoint(x=x0, w=w, wt=wt)


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) with PI control and quartic dense output
# ----------------------------------------------------------------------

# quartic dense-output coefficients (Shampine's interpolant for this pair)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class Trajectory:
    """Accepted integration samples, their dense output and the accumulated
    regularized integral.

    `xs` (N,) are the accepted abscissae, `ys` (dim, N) the states [w, wt, q]
    there, and step k runs from xs[k] by hs[k] with quartic dense-output
    coefficients Q[k] (dim, 4).  `reg_integral` is integral (H + 2x) dx over
    the covered range.  Phase points are materialized lazily from `ys`.
    A run that carried tangent columns keeps them at its end node only:
    `tangent` (2L, ncols), else None.
    """

    def __init__(self, n: int, xs: np.ndarray, ys: np.ndarray, hs: np.ndarray,
                 Q: np.ndarray, stats: IntegrationStats, stop_reason: str,
                 even_variant: bool = False, tangent: np.ndarray | None = None):
        self.n = n
        self.xs = xs
        self.ys = ys
        self.hs = hs
        self.Q = Q
        self.stats = stats
        self.stop_reason = stop_reason  # "completed" | "blowup" | "step_underflow"
        self.even_variant = even_variant
        self.tangent = tangent
        self.reg_integral = float(ys[-1, -1]) - float(ys[-1, 0])
        # sign * xs increases in either direction of integration
        self._sign = math.copysign(1.0, xs[-1] - xs[0])
        self._key = self._sign * xs
        self._points: list[PhasePoint] | None = None

    @property
    def points(self) -> list[PhasePoint]:
        if self._points is None:
            L = reduced_length(self.n)
            self._points = [PhasePoint(x=x, w=tuple(y[:L]), wt=tuple(y[L:2 * L]))
                            for x, y in zip(self.xs.tolist(), self.ys.T)]
        return self._points

    @property
    def x_final(self) -> float:
        return float(self.xs[-1])

    def sample_state(self, x) -> np.ndarray:
        """Dense-output state [w, wt, q] at covered x, a scalar or an array;
        the components are on axis 0 of the result."""
        if not len(self.hs):
            raise ValueError("trajectory carries no dense output")
        xa = np.asarray(x, dtype=float)
        lo, hi = sorted((float(self.xs[0]), float(self.xs[-1])))
        if not np.all((lo <= xa) & (xa <= hi)):
            raise ValueError(f"x={x!r} outside covered range [{lo}, {hi}]")
        k = np.clip(np.searchsorted(self._key, self._sign * xa), 1, len(self.hs)) - 1
        h = self.hs[k]
        th = (xa - self.xs[k]) / h
        # th**3 and th**4 by the C library's pow, one float at a time: numpy's
        # SIMD pow can differ from it in the last bit, and the shooting reacts
        # to single-ulp changes of a scalar lookup
        P = np.array([[t, t * t, t ** 3, t ** 4] for t in th.ravel().tolist()])
        Qp = (self.Q[k] @ P.reshape(th.shape + (4, 1)))[..., 0]
        return self.ys[:, k] + h * np.moveaxis(Qp, -1, 0)

    def sample(self, x: float) -> PhasePoint:
        L = reduced_length(self.n)
        y = self.sample_state(x)
        return PhasePoint(x=x, w=tuple(y[:L]), wt=tuple(y[L:2 * L]))

    def reg_integral_to(self, x: float) -> float:
        """integral (H + 2x) dx from the start point up to x."""
        return float(self.sample_state(x)[-1])


def _rms(v, sc) -> float:
    acc = 0.0
    for a, b in zip(v, sc):
        r = a / b
        acc += r * r
    return math.sqrt(acc / len(sc))


def _initial_step(f, x0, y0, f0, direction, rel_tol, abs_tol):
    sc = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = [a + direction * h0 * b for a, b in zip(y0, f0)]
    f1 = f(x0 + direction * h0, y1)
    if not h0 > 0.0:
        # the derivative dwarfs the state; f1 is made all the same, since
        # the stepper counts two calls here, and it then flags an underflow
        return 0.0
    d2 = _rms([a - b for a, b in zip(f1, f0)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _integrate_raw(n: int, y0, x0: float, x_end: float,
                   cfg: IntegratorConfig, even_variant: bool = False,
                   abs_tol_vec=None) -> Trajectory:
    """Core stepper on plain floats; direction inferred from x_end - x0.

    `y0` is any sequence of floats: the state [w, wt, q], optionally
    followed by tangent columns (see `_make_rhs`).  Step control (error
    norm, initial step, blow-up) and the dense output cover the state
    only; the tangent columns ride along and are kept at the end node.
    `abs_tol_vec`, if given, replaces cfg.abs_tol component by component.
    """
    # the tableau as float locals: rows of A (c_s = row sums), the
    # 5th-order weights B (= row 7 of A: FSAL) and the error weights B - B*
    c2, c3, c4, c5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                              22 / 525, -1 / 40)

    f, L = _make_rhs(n, even_variant)
    y = [float(v) for v in y0]
    dim = 2 * L + 1
    tangent = len(y) > dim
    comps = range(len(y))
    state = range(dim)
    atol = [cfg.abs_tol] * dim if abs_tol_vec is None else [float(v) for v in abs_tol_vec]
    rtol = cfg.rel_tol
    threshold = cfg.blowup_threshold
    direction = 1.0 if x_end > x0 else -1.0
    x = float(x0)
    stats = IntegrationStats()
    k1 = f(x, y)
    h = _initial_step(f, x, y[:dim], k1[:dim], direction, rtol, cfg.abs_tol)
    n_rhs = 2
    h = min(h, abs(x_end - x0))

    xs, ys, hs, ks = array("d", [x]), array("d", y[:dim]), array("d"), array("d")
    err_prev = 1e-4
    stop = "completed"
    y2, y3, y4, y5, y6, y7 = ([0.0] * len(y) for _ in range(6))

    while (x_end - x) * direction > 0.0:
        h = min(h, abs(x_end - x))
        if h < 1e-14 * max(1.0, abs(x)):
            stop = "step_underflow"
            break
        hd = direction * h
        for i in comps:
            y2[i] = y[i] + hd * (a21 * k1[i])
        k2 = f(x + c2 * hd, y2)
        for i in comps:
            y3[i] = y[i] + hd * (a31 * k1[i] + a32 * k2[i])
        k3 = f(x + c3 * hd, y3)
        for i in comps:
            y4[i] = y[i] + hd * (a41 * k1[i] + a42 * k2[i] + a43 * k3[i])
        k4 = f(x + c4 * hd, y4)
        for i in comps:
            y5[i] = y[i] + hd * (a51 * k1[i] + a52 * k2[i] + a53 * k3[i]
                                 + a54 * k4[i])
        k5 = f(x + c5 * hd, y5)
        for i in comps:
            y6[i] = y[i] + hd * (a61 * k1[i] + a62 * k2[i] + a63 * k3[i]
                                 + a64 * k4[i] + a65 * k5[i])
        k6 = f(x + hd, y6)
        for i in comps:
            y7[i] = y[i] + hd * (b1 * k1[i] + b3 * k3[i] + b4 * k4[i]
                                 + b5 * k5[i] + b6 * k6[i])
        k7 = f(x + hd, y7)
        n_rhs += 6
        acc = 0.0
        for i in state:
            e = hd * (e1 * k1[i] + e3 * k3[i] + e4 * k4[i] + e5 * k5[i]
                      + e6 * k6[i] + e7 * k7[i])
            a, b = abs(y[i]), abs(y7[i])
            r = e / (atol[i] + rtol * (a if a > b else b))
            acc += r * r
        err = math.sqrt(acc / dim)
        if err <= 1.0:
            for k in (k1, k2, k3, k4, k5, k6, k7):
                ks.extend(k[:dim] if tangent else k)
            x = x + hd
            y, y7 = y7, y
            k1 = k7  # FSAL
            xs.append(x)
            ys.extend(y[:dim] if tangent else y)
            hs.append(hd)
            stats.n_steps += 1
            if max(map(abs, y[:L])) > threshold:
                stop = "blowup"
                break
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h = h * min(5.0, max(0.2, fac))
        else:
            stats.n_rejected += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** -0.2))
    stats.n_rhs_evals = n_rhs

    # K (N, 7, dim) against the (7, 4) interpolant weights: Q (N, dim, 4)
    K = np.frombuffer(ks).reshape(-1, 7, dim)
    return Trajectory(n=n, xs=np.frombuffer(xs), ys=np.frombuffer(ys).reshape(-1, dim).T,
                      hs=np.frombuffer(hs), Q=np.matmul(K.transpose(0, 2, 1), _DP_P),
                      stats=stats, stop_reason=stop, even_variant=even_variant,
                      tangent=np.array(y[dim:]).reshape(-1, 2 * L).T if tangent else None)


def integrate(start: PhasePoint, x_end: float, cfg: IntegratorConfig | None,
              n: int, even_variant: bool = False) -> Trajectory:
    """Integrate forward from `start` to x_end (adaptive 5(4) pair).

    On blow-up or step underflow the partial trajectory is returned with
    the stopping reason flagged; this is a legitimate outcome, not an
    error.
    """
    cfg = cfg or IntegratorConfig()
    L = len(start.w)
    _check_n(n, L, even_variant)
    if not x_end > start.x:
        raise UnsupportedConfigError("x_end must exceed start.x")
    y0 = np.concatenate([start.w, start.wt, [0.0]])
    return _integrate_raw(n, y0, start.x, x_end, cfg, even_variant)


# ----------------------------------------------------------------------
# Large-x tail amplitude and scaling identity
# ----------------------------------------------------------------------

def tail_amplitude_s1(gamma, n: int = 3) -> float:
    """Leading tail coefficient s1 for the n=3 chain:
    w_i(x) ~ -s1 * 2^(-7/4) (pi x)^(-1/2) exp(-2 sqrt(2) x)."""
    if n != 3:
        raise UnsupportedConfigError("tail amplitude is implemented for n=3 only")
    g0, g1 = float(gamma[0]), float(gamma[1])
    return (-2.0 * math.cos(math.pi / 4.0 * (g0 + 1.0))
            - 2.0 * math.cos(math.pi / 4.0 * (g1 + 3.0)))


def check_quasihomogeneity(p: PhasePoint, lam: float, n: int,
                           even_variant: bool = False) -> float:
    """|H(w, lam*wt; lam*x) - lam*H(w, wt; x)|, which vanishes identically."""
    if lam <= 0.0:
        raise UnsupportedConfigError("lambda must be positive")
    scaled = PhasePoint(x=lam * p.x, w=p.w, wt=tuple(lam * v for v in p.wt))
    return abs(hamiltonian(scaled, n, even_variant)
               - lam * hamiltonian(p, n, even_variant))


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write `x,w0..wK,wt0..wtK,H,reg_integral` rows, one per accepted step."""
    L = reduced_length(traj.n)
    header = (["x"] + [f"w{i}" for i in range(L)] + [f"wt{i}" for i in range(L)]
              + ["H", "reg_integral"])
    fh.write(",".join(header) + "\n")
    H = reg_density(traj.xs, traj.ys, traj.n, traj.even_variant) - 2.0 * traj.xs
    rows = np.vstack([traj.xs, traj.ys[:2 * L], H, traj.ys[-1]]).T
    for row in rows.tolist():
        fh.write(",".join(f"{v + 0.0:.17g}" for v in row) + "\n")
    if traj.stop_reason != "completed":
        fh.write(f"# stopped: {traj.stop_reason} at x={traj.x_final:.17g}\n")
