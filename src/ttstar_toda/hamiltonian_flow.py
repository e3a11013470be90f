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

`integrate` is the Dormand-Prince 8(5,3) pair DOP853 with PI step-size
control and its degree-7 dense output (Hairer, Norsett and Wanner, Solving
ODEs I, section II.10).  It steps on plain Python floats: the 12 stages,
update and error norm are loops over the components, since numpy calls on
5-vectors cost more than the arithmetic.  Accepted states and their 13
stages go into flat array('d') buffers; at the end of a run the three
extra dense-output stages of all steps take three batch calls of the
kernel, and the power-basis coefficients of the whole trajectory one
product.  Through the q channel trajectories accumulate the regularized
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
    calls it 12 times per step, and a comprehension is one more call.

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

    It drops the O(x0^{s_l}) terms of the links.  Global solutions shoot
    from the small-x series carried to order K, which lives in
    `global_solutions` (`SmallXSeries`); this one is the plain leading
    order, for `ttstar solve` and callers of `integrate`.
    """
    check_genericity(a.n, a.gamma)
    if not 0.0 < x0 <= 0.1:
        raise UnsupportedConfigError(f"x0 must lie in (0, 0.1], got {x0!r}")
    lx = math.log(x0)
    w = tuple(0.5 * g * lx + 0.5 * r for g, r in zip(a.gamma, a.rho))
    wt = tuple(0.5 * g for g in a.gamma)
    return PhasePoint(x=x0, w=w, wt=wt)


# ----------------------------------------------------------------------
# DOP853 with PI control and degree-7 dense output
# ----------------------------------------------------------------------

# The Dormand-Prince 8(5,3) pair and its dense output (Hairer, Norsett and
# Wanner, Solving ODEs I, section II.10, and their code dop853).  Row s of
# _A holds a_{s,0..s-1}, zeros written out; rows 0-11 are the 12 stages of
# a step, row 12 the 8th-order weights b (the update, and the stage at
# c = 1 that FSAL hands to the next step), rows 13-15 the three extra
# stages of the dense output.  _C[s] is the row sum of _A[s].
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0,
      1.0,
      0.1,
      0.2,
      0.777777777777777777777777777778)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
     -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138),
)
# error estimators over stages 0-11: the 5th-order one, and the 3rd-order
# one as b less _BHH at stages 0, 8 and 11
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
        0.220588235294117647058823529412e-1)
# dense output: the last four of the interpolant's seven terms are h times
# these combinations of the 16 stages
_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)


def _dense_maps() -> tuple[np.ndarray, np.ndarray]:
    """Stage weights (16, 7) of the interpolant's terms F_j / h, and the
    integer map (7, 7) of the terms to the coefficients of th, ..., th^7.

    dop853 writes the interpolant as y0 + th (F0 + (1-th) (F1 + th (F2 +
    (1-th) (F3 + th (F4 + (1-th) (F5 + th F6)))))) with F0 = h sum b k,
    F1 = h k0 - F0, F2 = 2 F0 - h (k0 + k12) and F3..F6 = h D k; term j
    carries th^(j//2 + 1) (1 - th)^((j + 1)//2).  The terms are formed
    first: in them the large D entries cancel to small values, while one
    composed map would carry their rounding into every power.
    """
    b = np.zeros(16)
    b[:12] = _A[12]
    e0, e12 = np.eye(16)[0], np.eye(16)[12]
    F = np.vstack([b, e0 - b, 2.0 * b - e0 - e12, np.array(_D)])
    poly = np.polynomial.polynomial
    T = np.zeros((7, 8))
    for j in range(7):
        coef = poly.polymul(poly.polypow([0.0, 1.0], j // 2 + 1),
                            poly.polypow([1.0, -1.0], (j + 1) // 2))
        T[j, :len(coef)] = coef
    return F.T, T[:, 1:]


_DENSE_F, _DENSE_T = _dense_maps()


class Trajectory:
    """Accepted integration samples, their dense output and the accumulated
    regularized integral.

    `xs` (N,) are the accepted abscissae, `ys` (dim, N) the states [w, wt, q]
    there, and step k runs from xs[k] by hs[k] with the degree-7 dense
    output y = ys[:, k] + hs[k] sum_p Q[k, :, p-1] th^p, th in [0, 1]:
    Q (N-1, dim, 7) holds the power-basis coefficients of th, ..., th^7.
    `reg_integral` is integral (H + 2x) dx over the covered range.  Phase
    points are materialized lazily from `ys`.
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
        # th, ..., th^7 by a running product, not pow: products are rounded
        # the same on every CPU, and the shooting reacts to single-ulp
        # changes of a scalar lookup
        P = np.multiply.accumulate(np.repeat(th[..., None], 7, axis=-1), axis=-1)
        Qp = (self.Q[k] @ P[..., None])[..., 0]
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
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
    # the tableau as float locals, in dop853's names (stages 1..12, k1 the
    # FSAL stage); the _ entries of A, b and er vanish
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C[1:11]
    ((a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54), (a61, _, _, a64, a65),
     (a71, _, _, a74, a75, a76), (a81, _, _, a84, a85, a86, a87),
     (a91, _, _, a94, a95, a96, a97, a98),
     (a101, _, _, a104, a105, a106, a107, a108, a109),
     (a111, _, _, a114, a115, a116, a117, a118, a119, a1110),
     (a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211),
     (b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12)) = _A[1:13]
    er1, _, _, _, _, er6, er7, er8, er9, er10, er11, er12 = _E5
    bhh1, bhh2, bhh3 = _BHH

    f, L = _make_rhs(n, even_variant)
    y = [float(v) for v in y0]
    dim = 2 * L + 1
    tangent = len(y) > dim
    comps = range(len(y))
    atol = [cfg.abs_tol] * dim if abs_tol_vec is None else [float(v) for v in abs_tol_vec]
    rtol = cfg.rel_tol
    threshold = cfg.blowup_threshold
    direction = 1.0 if x_end > x0 else -1.0
    x = float(x0)
    stats = IntegrationStats()
    k1 = f(x, y)
    h = _initial_step(f, x, y[:dim], k1[:dim], direction, rtol, cfg.abs_tol)
    n_rhs = 2
    # near x = 0 the seed's w ~ (gamma/2) log x varies on the scale of x
    # itself: a first step past about 0.2 x0 is rejected at rel_tol 1e-10,
    # past 0.13 x0 at 1e-12, and _initial_step proposes up to 1.5 x0
    h = min(h, 0.15 * abs(x0), abs(x_end - x0))

    xs, ys, hs, ks = array("d", [x]), array("d", y[:dim]), array("d"), array("d")
    err_prev = 1e-4
    stop = "completed"
    yt, yn = [0.0] * len(y), [0.0] * len(y)   # stage argument, new state

    while (x_end - x) * direction > 0.0:
        h = min(h, abs(x_end - x))
        if h < 1e-14 * max(1.0, abs(x)):
            stop = "step_underflow"
            break
        hd = direction * h
        for i in comps:
            yt[i] = y[i] + hd * (a21 * k1[i])
        k2 = f(x + c2 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a31 * k1[i] + a32 * k2[i])
        k3 = f(x + c3 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a41 * k1[i] + a43 * k3[i])
        k4 = f(x + c4 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a51 * k1[i] + a53 * k3[i] + a54 * k4[i])
        k5 = f(x + c5 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a61 * k1[i] + a64 * k4[i] + a65 * k5[i])
        k6 = f(x + c6 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a71 * k1[i] + a74 * k4[i] + a75 * k5[i] + a76 * k6[i])
        k7 = f(x + c7 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a81 * k1[i] + a84 * k4[i] + a85 * k5[i] + a86 * k6[i]
                                 + a87 * k7[i])
        k8 = f(x + c8 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a91 * k1[i] + a94 * k4[i] + a95 * k5[i] + a96 * k6[i]
                                 + a97 * k7[i] + a98 * k8[i])
        k9 = f(x + c9 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a101 * k1[i] + a104 * k4[i] + a105 * k5[i] + a106 * k6[i]
                                 + a107 * k7[i] + a108 * k8[i] + a109 * k9[i])
        k10 = f(x + c10 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a111 * k1[i] + a114 * k4[i] + a115 * k5[i] + a116 * k6[i]
                                 + a117 * k7[i] + a118 * k8[i] + a119 * k9[i]
                                 + a1110 * k10[i])
        k11 = f(x + c11 * hd, yt)
        for i in comps:
            yt[i] = y[i] + hd * (a121 * k1[i] + a124 * k4[i] + a125 * k5[i] + a126 * k6[i]
                                 + a127 * k7[i] + a128 * k8[i] + a129 * k9[i]
                                 + a1210 * k10[i] + a1211 * k11[i])
        k12 = f(x + hd, yt)
        n_rhs += 11
        # Hairer's error norm: the 5th-order estimate, damped where the
        # 3rd-order one is much larger, over the state only
        e3 = e5 = 0.0
        for i in comps:
            d = (b1 * k1[i] + b6 * k6[i] + b7 * k7[i] + b8 * k8[i] + b9 * k9[i]
                 + b10 * k10[i] + b11 * k11[i] + b12 * k12[i])
            yn[i] = y[i] + hd * d
            if i < dim:
                u, v = abs(y[i]), abs(yn[i])
                sc = atol[i] + rtol * (u if u > v else v)
                r = (d - bhh1 * k1[i] - bhh2 * k9[i] - bhh3 * k12[i]) / sc
                e3 += r * r
                r = (er1 * k1[i] + er6 * k6[i] + er7 * k7[i] + er8 * k8[i] + er9 * k9[i]
                     + er10 * k10[i] + er11 * k11[i] + er12 * k12[i]) / sc
                e5 += r * r
        # e5 != 0 lets a NaN through to the rejection below
        err = h * e5 / math.sqrt(dim * (e5 + 0.01 * e3)) if e5 != 0.0 else 0.0
        if err <= 1.0:
            k13 = f(x + hd, yn)  # FSAL: the next step's k1
            n_rhs += 1
            for k in (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
                ks.extend(k[:dim] if tangent else k)
            x = x + hd
            y, yn = yn, y
            k1 = k13
            xs.append(x)
            ys.extend(y[:dim] if tangent else y)
            hs.append(hd)
            stats.n_steps += 1
            if max(map(abs, y[:L])) > threshold:
                stop = "blowup"
                break
            fac = 0.9 * err ** -0.0875 * err_prev ** 0.05 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h = h * min(5.0, max(0.2, fac))
        else:
            stats.n_rejected += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** -0.125))

    # the three extra stages of the dense output, for all steps at once
    x_old, h_old = np.frombuffer(xs)[:-1], np.frombuffer(hs)
    y_old = np.frombuffer(ys).reshape(-1, dim)[:-1]
    K = np.empty((len(h_old), 16, dim))
    K[:, :13] = np.frombuffer(ks).reshape(-1, 13, dim)
    for s in (13, 14, 15):
        dy = np.matmul(np.array(_A[s]), K[:, :s])
        K[:, s] = f(x_old + _C[s] * h_old, (y_old + h_old[:, None] * dy).T).T
    stats.n_rhs_evals = n_rhs + 3
    return Trajectory(n=n, xs=np.frombuffer(xs), ys=np.frombuffer(ys).reshape(-1, dim).T,
                      hs=h_old, Q=K.transpose(0, 2, 1) @ _DENSE_F @ _DENSE_T,
                      stats=stats, stop_reason=stop, even_variant=even_variant,
                      tangent=np.array(y[dim:]).reshape(-1, 2 * L).T if tangent else None)


def integrate(start: PhasePoint, x_end: float, cfg: IntegratorConfig | None,
              n: int, even_variant: bool = False) -> Trajectory:
    """Integrate forward from `start` to x_end (adaptive DOP853).

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
