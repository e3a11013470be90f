"""Radial Hamiltonian dynamics of the anti-symmetric periodic Toda chain.

State is the reduced pair (w, w_tilde) with w_tilde_i = x dw_i/dx on the
half-line x > 0, L = K + 1 entries w_0..w_K of the full anti-symmetric
periodic chain v (`data_maps.expand_reduced`: v_{n-i} = -v_i, and for
even n a forced middle entry 0).  The Hamiltonian is

    H(w, wt; x) = (1/2x) sum wt_i^2 - (x/2) sum_{i=0..n} exp(2(v_{i+1} - v_i)),

v_{n+1} = v_0, which for odd n, K = (n-1)/2, reads

    H = (1/2x) sum wt_i^2 - x sum_{i=1..K} exp(2(w_i - w_{i-1}))
        - (x/2) (exp(-4 w_K) + exp(4 w_0)),

and for even n, K = n/2 - 1, has the last link -x exp(-2 w_K) instead of
-(x/2) exp(-4 w_K).  The equations of motion are dw_i/dx = wt_i/x and
dwt_i/dx = -2x (exp(2(w_{i+1}-w_i)) - exp(2(w_i-w_{i-1}))) under the
closures w_{-1} = -w_0 and w_{K+1} = -w_K (odd n) or 0 (even n).  The L + 1
links, their exponents and weights, are written once, in `_links`.

The chain's energy and force are written once, in `_make_rhs`, the vector
field of the augmented state [w, wt, q] with q' = H + 2x; the stepper,
`hamiltonian`, `vector_field` and `reg_density` evaluate it.  Its code is
generated from `_links(n)` once per n and input length, straight through
the links and tangent columns without loops, and each caller holds the
body for the length it passes.  It takes one state as a
sequence of floats (math.expm1, a list back) or a batch as an array
(dim, ...) with the components on axis 0 (np.expm1, an array back).

`integrate` is the Dormand-Prince 8(5,3) pair DOP853 with PI step-size
control and its degree-7 dense output (Hairer, Norsett and Wanner, Solving
ODEs I, section II.10).  It steps on plain Python floats, since numpy
calls on 5-vectors cost more than the arithmetic.  The stepping loop is
straight-line source generated once per state size (`_make_stepper`):
the 12 stages, update and error norm are written out per component on
locals, in the order of loops over the components, so they give the
same bits; a stage argument's q entries are 0.0, since the kernel reads
none.  On a shooting probe at gamma = (0.3, 0.1) from x0 = 0.01 to 4.95
a step takes 20.5 us, 43 us with two tangent columns and their dense
output (kernel calls and dense output included; x86-64, Python 3.11,
fastest of 40 interleaved runs).  Accepted states and the 9 of their 13
stages that the dense output reads go into flat array('d') buffers,
appended by array.fromlist; at the end of a run the three extra
dense-output stages of all steps take three batch calls of the kernel,
and the power-basis coefficients of the whole trajectory one product.
Tangent columns [dw, dwt, dq] ride the state's steps without entering
its error control, and get their own nodes and coefficients, so that
`Trajectory.shifted` moves a run along them to first order.
Through the q channel trajectories accumulate the regularized integral
of H against the trivial background -2x as they go.  Blow-up flags and
returns the partial trajectory instead of raising: a step underflow
(a *proposed* step at or below 1e-10 x, where the orbit varies on a
scale ten orders below x itself: a singularity, which a run whose w
stays under its threshold would otherwise crawl into over tens of
thousands of steps), or an accepted state whose sup-norm of w exceeds the
run's threshold max(5, 1 + max_i |w_i(x0)|), which `_integrate_raw`
sets for every run.  It follows the start because the small-x seed has
|w_i| ~ |gamma_i|/2 |log x0|, above 5 near the domain floor a(gamma) =
0.2.

A run starts from any PhasePoint; the seed of the chain from its small-x
data (gamma, rho), for every n, is the series of
`global_solutions.init_from_asymptotics`.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .data_maps import expand_reduced, reduced_length

__all__ = [
    "UnsupportedConfigError",
    "PhasePoint",
    "IntegratorConfig",
    "IntegrationStats",
    "Trajectory",
    "hamiltonian",
    "reg_density",
    "vector_field",
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
        if not 0.0 < self.x < math.inf:
            raise UnsupportedConfigError(f"x must be positive and finite, got {self.x!r}")
        if len(self.w) != len(self.wt):
            raise UnsupportedConfigError("w and wt must have equal length")
        if not all(map(math.isfinite, self.w + self.wt)):
            raise UnsupportedConfigError(f"w and wt must be finite, got {self.w}, {self.wt}")

    @classmethod
    def from_state(cls, x: float, y) -> PhasePoint:
        """The point at x of a state row y = [w, wt] or [w, wt, q], a
        sequence of floats or a 1-D array.  An array is converted with one
        `tolist()`, so `__post_init__` reads Python floats (the same values)
        rather than one numpy scalar per entry."""
        if isinstance(y, np.ndarray):
            y = y.tolist()
        L = len(y) // 2
        return cls(x=x, w=y[:L], wt=y[L:2 * L])


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 < value < math.inf:
                raise UnsupportedConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class IntegrationStats:
    """The work of a run: one integration, its accepted and rejected steps
    and its RHS calls.  `Trajectory.joined` sums every field, so a joined
    orbit counts the runs it is made of, and `Trajectory.shifted` keeps
    them; a global solve reports its kept orbit's."""

    n_integrations: int = 1
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0
    n_tangent_rhs: int = 0   # those of the n_rhs_evals that carried tangent columns


def _check_n(n: int, L: int) -> None:
    if L != reduced_length(n):
        raise UnsupportedConfigError(
            f"state length {L} does not match reduced length {reduced_length(n)} for n={n}")


@functools.cache
def _links(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The L + 1 links of the chain: exponent rows A (L + 1, L) over w and
    weights c, H = (1/2x) sum wt_i^2 - x sum_l c_l exp((A w)_l).

    Link l is 2 (w_l - w_{l-1}) under the closures of w_{-1} and w_L:
    4 w_0 (w_{-1} = -w_0), 2 (w_l - w_{l-1}) inside, and last -4 w_{L-1}
    (odd n, w_L = -w_{L-1}) or -2 w_{L-1} (even n, the forced middle entry
    w_L = 0).  Its weight is half the number of the n + 1 gaps
    2 (v_{i+1} - v_i) of the full periodic chain that it stands for: 1/2
    for link 0 and for the last link of odd n, 1 for the others.
    """
    L = reduced_length(n)
    # every link 2 (w_l - w_{l-1}), then the closures of w_{-1} and w_L
    A = 2.0 * (np.eye(L + 1, L) - np.eye(L + 1, L, -1))
    A[0, 0], A[L, L - 1] = 4.0, (-4.0 if n % 2 else -2.0)
    c = np.array([0.5] + [1.0] * (L - 1) + [0.5 if n % 2 else 1.0])
    A.flags.writeable = c.flags.writeable = False
    return A, c


@functools.cache
def _make_rhs(n: int, size: int):
    """Vector field of [w, wt, q] with q' = H + 2x for inputs of `size`
    components, and the reduced length L.

    `f(x, y)` takes one state as a sequence of floats and returns a list of
    floats (math.expm1), or a batch as an array (size, ...) with x
    broadcasting against y[0] and returns an array (np.expm1); the input
    type chooses.  Link exponentials enter only through expm1 of the link
    exponents, so both the force terms and the regularized density H + 2x
    stay relatively accurate down to vanishing amplitudes (the
    trivial-background cancellation is done in closed form).

    Components past the 2L + 1 of the state are tangent columns [dw, dwt,
    dq] (2L + 1 each, the state's layout) of the tangent-linear flow, and
    f returns their linearised derivatives after the state's: with E_l + 1
    the exponential of link l, dE_l = k_l (E_l + 1) times the column's
    u_l, and dq' = d(H + 2x) = (wt . dwt)/x - x sum_l c_l dE_l.  A
    column's own dq enters nothing, nor does the state's q, so the stepper
    passes 0.0 there.  The input may also be the bare [w, wt] (2L
    components, no q), as `hamiltonian` and `vector_field` pass it
    through `_rhs_at`; any other size raises UnsupportedConfigError.

    f is straight-line code over the L + 1 links of `_links(n)`, written
    out as source and compiled once per chain and size (2L, 2L + 1, or
    (2L + 1)(1 + m) with m tangent columns): it unpacks the whole of y
    into locals, writes every column's block out and returns one list
    literal, and callers hold it directly, one body per size they pass.
    The stepper calls it 12 times per step, and loops over the links and
    columns took three to four times as long (n = 3, x86-64, Python 3.11,
    fastest of 40 interleaved runs: 1.7 against 0.62 us a call, 4.8
    against 1.16 us with two tangent columns).  Link l has exponent k_l
    u_l, read off its row of A: u_l is w_0 or w_{L-1} on a row with one
    entry k_l, and w_l - w_{l-1} on a row (..., -k_l, k_l, ...); E_l =
    expm1(k_l u_l).  The density groups the weights as x (E_1 + ... +
    E_{L-1}) and c_0 x (c_L/c_0 E_L + E_0), with q_const x = (2 - sum c) x
    against the +2x term, and its sums start from 0.0; dq' sums c_l dE_l
    as dE_1 + ... + dE_{L-1} + c_0 (c_L/c_0 dE_L + dE_0).  Sums run in
    link order, as in the plain loops over the links (`eom_loops` in the
    tests), which f matches bit for bit.
    """
    A, c = _links(n)
    L, c = len(A) - 1, c.tolist()
    dim = 2 * L + 1
    if size != 2 * L and (size < dim or size % dim):
        raise UnsupportedConfigError(
            f"the n={n} kernel takes {2 * L} or a multiple of {dim} components, got {size}")
    q_const = 2.0 - sum(c)
    nonzero = [np.flatnonzero(row).tolist() for row in A]
    k = [float(row[j[-1]]) for row, j in zip(A, nonzero)]

    def u(v):   # the link exponents' arguments, over variables v0, v1, ...
        return [f"{v}{j[0]}" if len(j) == 1 else f"({v}{j[1]} - {v}{j[0]})"
                for j in nonzero]

    def names(*prefixes):
        return [f"{p}{i}" for p in prefixes for i in range(L)]

    def force(v):   # -2x (dE_{i+1} - dE_i), i < L
        return [f"m2x * ({v}{i + 1} - {v}{i})" for i in range(L)]

    def rates(wt, e, q):   # [w, wt, q]' from momenta wt and links e
        return [f"{wt}{i} / x" for i in range(L)] + force(e) + [q]

    def d_density(dt, dE):   # x sum_l c_l dE_l along a column, the inner links first
        dww = " + ".join(f"wt{i} * {dt}{i}" for i in range(L))
        ends = f"{c[0]!r} * ({'' if c[L] == c[0] else f'{c[L] / c[0]!r} * '}{dE}{L} + {dE}0)"
        return f"({dww}) / x - x * ({' + '.join([f'{dE}{i}' for i in range(1, L)] + [ends])})"

    ww = " + ".join(["0.0"] + [f"wt{i} * wt{i}" for i in range(L)])
    e_inner = " + ".join(["0.0"] + [f"E{i}" for i in range(1, L)])
    density = (f"({ww}) / (2.0 * x) - x * ({e_inner}) + {q_const!r} * x"
               f" - {c[0]!r} * x * ({c[L] / c[0]!r} * E{L} + E0)")

    # [w, wt] (2L, no q), or the state [w, wt, q] and size / dim - 1
    # columns [dw, dwt, dq]
    cols = [f"c{j}_" for j in range(max(size // dim - 1, 0))]
    unpack = names("w", "wt") + ["_"] * (size > 2 * L)
    for p in cols:   # a q entry is read by nothing, the dq of a column neither
        unpack += names(f"d{p}", f"dt{p}") + ["_"]
    out = rates("wt", "E", density)
    for p in cols:
        out += rates(f"dt{p}", f"dE{p}", d_density(f"dt{p}", f"dE{p}"))
    src = [
        "def f(x, y):",
        "    batch = isinstance(y, ndarray)",
        "    expm1 = np_expm1 if batch else math_expm1",
        f"    {', '.join(unpack)}, = y",
        "    try:",
        *(f"        E{i} = expm1({k[i]!r} * {a})" for i, a in enumerate(u("w"))),
        "    except OverflowError:",
        "        # a wild trial state: return the infinities np.expm1 gives, so",
        "        # that the stepper rejects the step as it rejects any non-finite",
        "        # one, without numpy's warnings for an outcome that is expected",
        "        with errstate(over='ignore', invalid='ignore'):",
        "            return f(x, array(y)).tolist()",
        "    m2x = -2.0 * x",
        *(f"    T{i} = {k[i]!r} * (E{i} + 1.0)" for i in range(L + 1) if cols),
        *(f"    dE{p}{i} = T{i} * {a}" for p in cols for i, a in enumerate(u(f"d{p}"))),
        f"    out = [{', '.join(out)}]",
        "    return array(out) if batch else out",
    ]
    scope = {"ndarray": np.ndarray, "np_expm1": np.expm1, "math_expm1": math.expm1,
             "array": np.array, "errstate": np.errstate}
    exec(compile("\n".join(src), f"<chain kernel n={n} size={size}>", "exec"), scope)
    return scope["f"], L


def _rhs_at(p: PhasePoint, n: int) -> list[float]:
    _check_n(n, len(p.w))
    f, _L = _make_rhs(n, 2 * len(p.w))
    return f(p.x, p.w + p.wt)


def hamiltonian(p: PhasePoint, n: int) -> float:
    """Energy H(w, wt; x) of the reduced chain: the kernel's H + 2x, less 2x."""
    return _rhs_at(p, n)[-1] - 2.0 * p.x


def vector_field(p: PhasePoint, n: int):
    """(dw/dx, dwt/dx) of the Hamiltonian system."""
    L = len(p.w)
    d = _rhs_at(p, n)
    return tuple(d[:L]), tuple(d[L:2 * L])


def reg_density(x, y: np.ndarray, n: int):
    """H + 2x at state(s) y = [w, wt, ...] (components on axis 0), evaluated
    without trivial-background cancellation."""
    f, L = _make_rhs(n, len(y))
    return f(x, y)[2 * L]


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
    # th^a (1 - th)^m = sum_i (-1)^i C(m, i) th^(a + i)
    T = np.zeros((7, 8))
    for j in range(7):
        a, m = j // 2 + 1, (j + 1) // 2
        T[j, a:a + m + 1] = [(-1) ** i * math.comb(m, i) for i in range(m + 1)]
    return F.T, T[:, 1:]


_DENSE_F, _DENSE_T = _dense_maps()
# the stages of a step that its dense output reads, directly or through the
# three extra stages: b, _D and rows 13-15 of _A weigh stages 1-4 by zero
_KEPT = tuple(s for s in range(13)
              if _DENSE_F[s].any() or any(_A[t][s] for t in (13, 14, 15)))


def _components_first(a: np.ndarray) -> np.ndarray:
    """The view np.moveaxis(a, -1, 0), without that function's argument
    handling, which takes longer than a scalar state read's arithmetic."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


class Trajectory:
    """Accepted integration samples, their dense output and the accumulated
    regularized integral.

    `xs` (N,) are the accepted abscissae, `ys` (dim, N) the states [w, wt, q]
    there, and step k runs from xs[k] by hs[k] with the degree-7 dense
    output y = ys[:, k] + hs[k] sum_p Q[k, :, p-1] th^p, th in [0, 1]:
    Q (N-1, dim, 7) holds the power-basis coefficients of th, ..., th^7.
    `reg_integral` is integral (H + 2x) dx over the covered range.
    A run that carried tangent columns [dw, dwt, dq] keeps them on the same
    steps: `tangent_ys` (ncols, dim, N) at the nodes and `tangent_Q`
    (ncols, N-1, dim, 7) their coefficients; a plain run has None for both.
    """

    def __init__(self, n: int, xs: np.ndarray, ys: np.ndarray, hs: np.ndarray,
                 Q: np.ndarray, stats: IntegrationStats, stop_reason: str,
                 tangent_ys: np.ndarray | None = None, tangent_Q: np.ndarray | None = None):
        self.n = n
        self.xs = xs
        self.ys = ys
        self.hs = hs
        self.Q = Q
        self.stats = stats
        self.stop_reason = stop_reason  # "completed" | "blowup" | "step_underflow"
        self.tangent_ys = tangent_ys
        self.tangent_Q = tangent_Q
        self.reg_integral = float(ys[-1, -1]) - float(ys[-1, 0])

    def shifted(self, delta) -> Trajectory:
        """The plain trajectory ys + sum_j delta_j Y_j, Q + sum_j delta_j Q_j
        over the tangent columns j, on the same steps and with the same
        stats: to first order in delta, the run from the seed moved by
        delta along the columns' parameters."""
        ys, Q = self.ys, self.Q
        for d, Y, QY in zip(delta, self.tangent_ys, self.tangent_Q):
            ys, Q = ys + d * Y, Q + d * QY
        return Trajectory(self.n, self.xs, ys, self.hs, Q, self.stats, self.stop_reason)

    def joined(self, tail: Trajectory) -> Trajectory:
        """This run up to its node where the plain run `tail` starts, then
        `tail`, with the work of both in the stats."""
        k = int(np.searchsorted(self.xs, tail.xs[0]))
        stats = IntegrationStats(**{f: v + getattr(tail.stats, f)
                                    for f, v in vars(self.stats).items()})
        return Trajectory(self.n, np.concatenate([self.xs[:k + 1], tail.xs[1:]]),
                          np.hstack([self.ys[:, :k + 1], tail.ys[:, 1:]]),
                          np.concatenate([self.hs[:k], tail.hs]),
                          np.concatenate([self.Q[:k], tail.Q]), stats, tail.stop_reason)

    @property
    def x_final(self) -> float:
        return float(self.xs[-1])

    def sample_state(self, x) -> np.ndarray:
        """Dense-output state [w, wt, q] at covered x, a scalar or an array;
        the components are on axis 0 of the result.

        One path serves a scalar and an array x.  It calls ndarray methods
        and ufuncs (`.all()`, `np.minimum`/`np.maximum`,
        `_components_first`), not `np.all`, `np.clip` or `np.moveaxis`,
        whose Python-level wrappers cost more than a scalar read's
        arithmetic; the float operations are those of the wrappers."""
        if not len(self.hs):
            raise ValueError("trajectory carries no dense output")
        xa = np.asarray(x, dtype=float)
        lo, hi = float(self.xs[0]), float(self.xs[-1])
        if not ((lo <= xa) & (xa <= hi)).all():
            raise ValueError(f"x={x!r} outside covered range [{lo}, {hi}]")
        k = np.minimum(np.maximum(np.searchsorted(self.xs, xa), 1), len(self.hs)) - 1
        h = self.hs[k]
        th = (xa - self.xs[k]) / h
        # th, ..., th^7 by a running product, not pow: products are rounded
        # the same on every CPU, and the shooting reacts to single-ulp
        # changes of a scalar lookup
        P = np.multiply.accumulate(np.repeat(th[..., None], 7, axis=-1), axis=-1)
        Qp = (self.Q[k] @ P[..., None])[..., 0]
        return self.ys[:, k] + h * _components_first(Qp)

    def sample(self, x: float) -> PhasePoint:
        return PhasePoint.from_state(x, self.sample_state(x))

    def reg_integral_to(self, x: float) -> float:
        """integral (H + 2x) dx from the start point up to x."""
        return float(self.sample_state(x)[-1])


def _rms(v, sc) -> float:
    acc = 0.0
    for a, b in zip(v, sc):
        r = a / b
        acc += r * r
    return math.sqrt(acc / len(sc))


def _initial_step(f, x0, y0, f0, rel_tol, abs_tol):
    sc = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = [a + h0 * b for a, b in zip(y0, f0)]
    f1 = f(x0 + h0, y1)
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


@functools.cache
def _make_stepper(dim: int, size: int):
    """The DOP853 stepping loop for states of `size` components, the first
    `dim` of them the state [w, wt, q] and the rest tangent columns.

    `run(f, x, x_end, h, y, k1, atol, rtol, threshold, xs, ys, hs, ks)`
    steps forward from x with the first trial step h until x_end, a
    blow-up or a step underflow: a *proposed* step h at or below 1e-10
    |x|, tested before h is clamped to x_end - x, so that a short last
    interval is stepped, not flagged; "at or" stops a run at a subnormal
    x, where 1e-10 |x| underflows to 0 and rejected steps shrink h to 0.  It appends the
    accepted abscissae, steps, states and the stages `_KEPT` of their 13
    (all `size` components, tangent columns included) to the array('d')
    buffers xs, hs, ys and ks, and returns (x, y, n_steps, n_rejected,
    stop) at its end.  The kernel f, the body of `_make_rhs` for `size`
    components, is an argument, looked up per integration, never kept
    here.

    The loop is straight-line source, written once per (dim, size) and
    compiled: the state, the stages and the new state are locals, each
    stage's argument is one list literal with 0.0 in its q entries (the
    state's q and each column's dq, which the kernel never reads), the
    error norm and blow-up test are written out per component, and the
    buffers grow by array.fromlist of a list.  It keeps the float
    operations of loops over the components in their order (`dop853_loops`
    in the tests), so it matches them bit for bit: no product h * a_ij is
    formed, and every sum runs over the stages in tableau order.
    """
    L = (dim - 1) // 2
    comps = range(size)

    def terms(weights):   # the nonzero weights, with their stages 1, 2, ...
        return [(w, s + 1) for s, w in enumerate(weights) if w != 0.0]

    def comb(ws, i):
        return " + ".join(f"{w!r} * k{s}_{i}" for w, s in ws)

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in comps)

    lines = [
        "def run(f, x, x_end, h, y, k1, atol, rtol, threshold, xs, ys, hs, ks):",
        f"    {names('y')}, = y",
        f"    {names('k1_')}, = k1",
        "    n_steps = n_rejected = 0",
        "    err_prev = 1e-4",
        "    stop = 'completed'",
        "    while x < x_end:",
        "        if h <= 1e-10 * abs(x):",
        "            stop = 'step_underflow'",
        "            break",
        "        h = min(h, x_end - x)",
    ]
    for s in range(2, 13):   # stage s from row s - 1 of _A, at node _C[s - 1]
        ws = terms(_A[s - 1])
        node = "x + h" if s == 12 else f"x + {_C[s - 1]!r} * h"
        arg = ", ".join("0.0" if i % dim == dim - 1 else f"y{i} + h * ({comb(ws, i)})"
                        for i in comps)
        lines.append(f"        {names(f'k{s}_')}, = f({node}, [{arg}])")
    # Hairer's error norm: the 5th-order estimate, damped where the
    # 3rd-order one is much larger, over the state only
    b, e5 = terms(_A[12]), terms(_E5)
    bhh1, bhh2, bhh3 = _BHH
    lines.append("        e3 = e5 = 0.0")
    for i in comps:
        lines += [f"        d = {comb(b, i)}",
                  f"        z{i} = y{i} + h * d"]
        if i < dim:
            lines += [
                f"        u, v = abs(y{i}), abs(z{i})",
                "        sc = atol + rtol * (u if u > v else v)",
                f"        r = (d - {bhh1!r} * k1_{i} - {bhh2!r} * k9_{i} - {bhh3!r} * k12_{i}) / sc",
                "        e3 += r * r",
                f"        r = ({comb(e5, i)}) / sc",
                "        e5 += r * r",
            ]
    blowup = " or ".join(f"abs(y{i}) > threshold" for i in range(L))
    lines += [
        "        # e5 != 0 lets a NaN through to the rejection below",
        f"        err = h * e5 / sqrt({dim} * (e5 + 0.01 * e3)) if e5 != 0.0 else 0.0",
        "        if err <= 1.0:",
        # FSAL: stage 13 is the next step's k1
        f"            {names('k13_')}, = f(x + h, [{names('z')}])",
        "            ks.fromlist([{}])".format(
            ", ".join(names(f"k{s + 1}_") for s in _KEPT)),
        "            x = x + h",
        f"            {names('y')}, = {names('z')},",
        f"            {names('k1_')}, = {names('k13_')},",
        "            xs.append(x)",
        f"            ys.fromlist([{names('y')}])",
        "            hs.append(h)",
        "            n_steps += 1",
        f"            if {blowup}:",
        "                stop = 'blowup'",
        "                break",
        "            fac = 0.9 * err ** -0.0875 * err_prev ** 0.05 if err > 0 else 5.0",
        "            err_prev = max(err, 1e-10)",
        "            h = h * min(5.0, max(0.2, fac))",
        "        else:",
        "            n_rejected += 1",
        "            h = h * min(1.0, max(0.2, 0.9 * err ** -0.125))",
        f"    return x, [{names('y')}], n_steps, n_rejected, stop",
    ]
    scope = {"sqrt": math.sqrt}
    exec(compile("\n".join(lines), f"<dop853 loop dim={dim} size={size}>", "exec"), scope)
    return scope["run"]


# the least blow-up threshold of a run, on the sup-norm of w
_BLOWUP_FLOOR = 5.0


def _blowup_errstate(stop_reason: str) -> np.errstate:
    """Silence numpy's overflow and invalid-value warnings over a run that
    blew up, whose last state may be finite but wild; otherwise change
    nothing."""
    if stop_reason == "blowup":
        return np.errstate(over="ignore", invalid="ignore")
    return np.errstate()


def _integrate_raw(n: int, y0, x0: float, x_end: float,
                   cfg: IntegratorConfig) -> Trajectory:
    """DOP853 forward from x0 > 0 to x_end > x0 on plain floats.

    `y0` is any sequence of floats: the state [w, wt, q], optionally
    followed by tangent columns [dw, dwt, dq] (see `_make_rhs`).  Step
    control (error norm, initial step, blow-up) covers the state only, so
    the state's steps and dense output are those of a plain run bit for
    bit; the tangent columns ride along on the same steps, with their own
    nodes and dense-output coefficients.  The steps run in the generated
    loop of `_make_stepper` with the body of `_make_rhs` for len(y0)
    components, looked up here on every call; the initial step takes the
    body for the state alone.  The run blows up where the sup-norm of w
    exceeds max(_BLOWUP_FLOOR, 1 + max_i |w_i(x0)|), read off the state's
    w at x0, never off tangent columns, and stops on a step underflow, a
    proposed step at or below 1e-10 x.  A start where the vector field (its
    first kernel call) is not finite raises UnsupportedConfigError before
    any step.
    """
    y = [float(v) for v in y0]
    size = len(y)
    f, L = _make_rhs(n, size)
    dim = 2 * L + 1
    tangent = size > dim
    f_state = _make_rhs(n, dim)[0] if tangent else f
    threshold = max(_BLOWUP_FLOOR, 1.0 + max(map(abs, y[:L])))
    x = float(x0)
    k1 = f(x, y)
    if not all(map(math.isfinite, k1)):
        # at a subnormal x0, wt/x overflows: no step could be accepted
        raise UnsupportedConfigError(f"the vector field is not finite at the start x0 = {x0!r}")
    h = _initial_step(f_state, x, y[:dim], k1[:dim], cfg.rel_tol, cfg.abs_tol)
    # near x = 0 the seed's w ~ (gamma/2) log x varies on the scale of x
    # itself: a first step past about 0.2 x0 is rejected at rel_tol 1e-10,
    # past 0.13 x0 at 1e-12, and _initial_step proposes up to 1.5 x0;
    # the loop clamps it to x_end - x0
    h = min(h, 0.15 * x0)

    xs, ys, hs, ks = array("d", [x]), array("d", y), array("d"), array("d")
    x, y, n_steps, n_rejected, stop = _make_stepper(dim, size)(
        f, x, x_end, h, y, k1, cfg.abs_tol, cfg.rel_tol, threshold,
        xs, ys, hs, ks)
    # 11 stages per attempt, the FSAL stage per accepted step and the three
    # dense-output calls, all with the tangent columns, and k1 (with them)
    # and the initial step's trial call (without)
    n_with = 1 + 12 * n_steps + 11 * n_rejected + 3
    stats = IntegrationStats(n_steps=n_steps, n_rejected=n_rejected,
                             n_rhs_evals=n_with + 1,
                             n_tangent_rhs=n_with if tangent else 0)

    # the three extra stages of the dense output, for all steps at once:
    # the state's arguments are formed as in a plain run and the columns'
    # apart, and one kernel call takes both.  The last step of a blow-up
    # may reach a state where they overflow, as the kernel's fallback for
    # trial states does, and its dense output is then not finite
    x_old, h_old = np.frombuffer(xs)[:-1], np.frombuffer(hs)
    nodes = np.frombuffer(ys).reshape(-1, size)
    parts = (slice(0, dim), slice(dim, size)) if tangent else (slice(0, dim),)
    Ks = [np.zeros((len(h_old), 16, p.stop - p.start)) for p in parts]
    for p, K in zip(parts, Ks):
        K[:, _KEPT] = np.frombuffer(ks).reshape(-1, len(_KEPT), size)[..., p]
    with _blowup_errstate(stop):
        for s in (13, 14, 15):
            args = [(nodes[:-1, p] + h_old[:, None] * np.matmul(np.array(_A[s]), K[:, :s])).T
                    for p, K in zip(parts, Ks)]
            out = f(x_old + _C[s] * h_old, np.vstack(args) if tangent else args[0]).T
            for p, K in zip(parts, Ks):
                K[:, s] = out[:, p]
        Q, *QT = (K.transpose(0, 2, 1) @ _DENSE_F @ _DENSE_T for K in Ks)
    tangent_ys = tangent_Q = None
    if tangent:
        ncols = size // dim - 1
        tangent_ys = nodes[:, dim:].reshape(-1, ncols, dim).transpose(1, 2, 0)
        tangent_Q = QT[0].reshape(len(h_old), ncols, dim, 7).transpose(1, 0, 2, 3)
    return Trajectory(n=n, xs=np.frombuffer(xs), ys=nodes[:, :dim].T, hs=h_old, Q=Q,
                      stats=stats, stop_reason=stop,
                      tangent_ys=tangent_ys, tangent_Q=tangent_Q)


def integrate(start: PhasePoint, x_end: float, cfg: IntegratorConfig | None,
              n: int) -> Trajectory:
    """Integrate forward from `start` to x_end (adaptive DOP853).

    On blow-up or step underflow the partial trajectory is returned with
    the stopping reason flagged; this is a legitimate outcome, not an
    error.  A start where the vector field is not finite (a subnormal x,
    where wt/x overflows) raises UnsupportedConfigError.
    """
    cfg = cfg or IntegratorConfig()
    L = len(start.w)
    _check_n(n, L)
    if not x_end > start.x:
        raise UnsupportedConfigError("x_end must exceed start.x")
    if not x_end < math.inf:
        # the steps would grow to inf and be rejected forever
        raise UnsupportedConfigError(f"x_end must be finite, got {x_end!r}")
    y0 = np.concatenate([start.w, start.wt, [0.0]])
    return _integrate_raw(n, y0, start.x, x_end, cfg)


# ----------------------------------------------------------------------
# Large-x tail amplitude and scaling identity
# ----------------------------------------------------------------------

def tail_amplitude_s1(gamma) -> float:
    """Leading tail coefficient s1 for the n=3 chain:
    w_i(x) ~ -s1 * 2^(-7/4) (pi x)^(-1/2) exp(-2 sqrt(2) x).

    Raises ShapeError unless gamma has the two entries of n = 3."""
    g0, g1 = expand_reduced(3, gamma)[:2]
    return (-2.0 * math.cos(math.pi / 4.0 * (g0 + 1.0))
            - 2.0 * math.cos(math.pi / 4.0 * (g1 + 3.0)))


def check_quasihomogeneity(p: PhasePoint, lam: float, n: int) -> float:
    """|H(w, lam*wt; lam*x) - lam*H(w, wt; x)|, which vanishes identically."""
    if not 0.0 < lam < math.inf:
        raise UnsupportedConfigError(f"lambda must be positive and finite, got {lam!r}")
    scaled = PhasePoint(x=lam * p.x, w=p.w, wt=tuple(lam * v for v in p.wt))
    return abs(hamiltonian(scaled, n) - lam * hamiltonian(p, n))


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write `x,w0..wK,wt0..wtK,H,reg_integral` rows, one per accepted step."""
    L = reduced_length(traj.n)
    header = (["x"] + [f"w{i}" for i in range(L)] + [f"wt{i}" for i in range(L)]
              + ["H", "reg_integral"])
    fh.write(",".join(header) + "\n")
    with _blowup_errstate(traj.stop_reason):
        # a blown-up last row may read H = -inf, and the trailer marks it
        H = reg_density(traj.xs, traj.ys, traj.n) - 2.0 * traj.xs
    rows = np.vstack([traj.xs, traj.ys[:2 * L], H, traj.ys[-1]]).T
    for row in rows.tolist():
        fh.write(",".join(f"{v + 0.0:.17g}" for v in row) + "\n")
    if traj.stop_reason != "completed":
        fh.write(f"# stopped: {traj.stop_reason} at x={traj.x_final:.17g}\n")
