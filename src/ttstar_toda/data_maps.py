"""Explicit maps between asymptotic data and monodromy-type data.

The radial Toda-type chain studied here is periodic with period n+1 and
anti-symmetric (v_i + v_{n-i} = 0), so a solution germ near x = 0 is
described by the reduced lists gamma, rho of length floor((n-1)/2) + 1.
Monodromy-side coordinates (m_i, log e_i) are reached through closed-form
Gamma-function products:

    X_k(v_0..v_n) = prod_{j=1..n} Gamma((v_k - v_{k+j} + 2j) / (2(n+1)))

    m_i     = -gamma_i / 2
    log e_i = rho_i + gamma_i log(n+1) + log X_{n-i}(-gamma) - log X_i(-gamma)

where the products are evaluated on the negated (equivalently reversed)
full extension of gamma.  So at fixed gamma the map is a translation in
rho, log e = rho + gamma log(n+1) + R(gamma), with R_i = log X_{n-i} -
log X_i (`_log_ratios`), and the symplectic statement below concerns R
alone.  Solutions smooth on all of 0 < x < infinity are exactly those
with log e_i = 0, which pins rho as a function of gamma (`global_rho`).

The maps and `global_rho` read R(gamma) from `_chart`, which checks
genericity and evaluates R once per (n, gamma) and keeps it in a
functools.lru_cache of special_functions._CACHE_SIZE entries: the round
trip, the smooth family and the gradient check at one gamma, or the two
global_rho reads of a connection constant, share one evaluation, with
the same bits.  `verify_symplectic` evaluates R uncached, since its
perturbed gammas do not repeat.

The chart change (rho, m) -> (log e, m) is generated by

    F(rho, m) = -sum rho_i m_i + log(n+1) sum m_i^2
                + (n+1)/2 sum_{k=0..n} sum_{j=1..n}
                      psi_m2((m_{k-j} - m_k + j) / (n+1))

through m_i = -dF/drho_i and log e_i = -dF/dm_i, and the induced map of
charts preserves the pairing  -1/2 sum dgamma_i ^ drho_i
= sum dm_i ^ dlog e_i.  `verify_generating_function` and
`verify_symplectic` check both facts by central differences.  F reads
psi_m2 through its own functools.lru_cache, so the gradient check's 2L
evaluations of F at nearby m evaluate each argument they share once.

F's double sum and R(gamma) are straight-line code (`_f_body`,
`_r_body`), written out as source and compiled once per n on first use,
never at import, for n as a plain int (operator.index), so an np.int64 n
shares the int's body and the source holds only Python literals.  Each
body unpacks the reduced list into locals of the full extension (a
literal 0.0 in the middle for even n), writes every
argument (m_{k-j} - m_k + j)/(n+1) or (v_k - v_{k+j} + 2j)/(2(n+1)) out
as its own local, tests them all for positivity with one min, and sums
the terms left to right from 0.0, (k, j) in the order of the plain loops
over k and j (`log_x_k`, and F's loop in the tests).  Float addition does
not associate, so that order is what keeps every value the loops' bits.
A nonpositive argument sends the body back over the terms in loop order
(`_refuse`), which raises the loops' GenericityError naming the first
bad (k, j), or the special function's own error where the loops met
that first.  The loops took more than half of a sweep of the data maps
over n = 1..6, most of whose psi_m2 and log_gamma calls are cache hits.
The caller passes psi_m2 or log_gamma as the module global read at call
time, so a rebound name (a tracer, a test's patch) sees every call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .special_functions import _CACHE_SIZE, log_gamma, psi_m2

__all__ = [
    "GenericityError",
    "ShapeError",
    "AsymptoticData",
    "MonodromyData",
    "reduced_length",
    "expand_reduced",
    "expand_full",
    "check_genericity",
    "log_x_k",
    "asymptotic_to_monodromy",
    "monodromy_to_asymptotic",
    "global_rho",
    "gen_fun_F",
    "verify_generating_function",
    "verify_symplectic",
    "GradientCheckReport",
    "SymplecticCheckReport",
]

DEFAULT_MARGIN = 1e-9


class GenericityError(ValueError):
    """A consecutive gap of the full data leaves the open interval (-2, 2)."""


class ShapeError(ValueError):
    """Reduced list has the wrong length for the given n."""


def reduced_length(n: int) -> int:
    """Number of independent entries for chain parameter n, an integer
    (operator.index: an int or np.int64, not 3.0) of at least 1."""
    try:
        k = operator.index(n)
    except TypeError:
        k = 0
    if k < 1:
        raise ShapeError(f"n must be a positive integer, got {n!r}")
    return (k - 1) // 2 + 1


def _reduced(n: int, values) -> list[float]:
    """`values` as floats, of length reduced_length(n) (else ShapeError)."""
    values = [float(v) for v in values]
    if len(values) != reduced_length(n):
        raise ShapeError(
            f"reduced list for n={n} must have length {reduced_length(n)}, "
            f"got {len(values)}")
    return values


def expand_reduced(n: int, values) -> list[float]:
    """Full anti-symmetric periodic extension of a reduced list.

    Odd n:  (v_0..v_k, -v_k..-v_0); even n inserts a forced 0 in the
    middle.  The result has length n+1 and satisfies v_i + v_{n-i} = 0.
    """
    values = _reduced(n, values)
    mirror = [-v for v in reversed(values)]
    if n % 2 == 1:
        return values + mirror
    return values + [0.0] + mirror


def _gaps(full: list[float]) -> list[float]:
    # n+1 consecutive gaps of the periodic extension, wrap included
    return [full[(i + 1) % len(full)] - full[i] for i in range(len(full))]


def check_genericity(n: int, gamma, margin: float = DEFAULT_MARGIN) -> None:
    """Raise GenericityError unless all full gaps lie in (-2+margin, 2-margin)."""
    full = expand_reduced(n, gamma)
    for i, g in enumerate(_gaps(full)):
        if not (-2.0 + margin < g < 2.0 - margin):
            raise GenericityError(
                f"gap gamma_{(i + 1) % (n + 1)} - gamma_{i} = {g:.6g} "
                f"violates (-2, 2) with margin {margin:g}")


def _check_record(record, *names: str) -> None:
    """Set the reduced fields `names` of a chart record to float tuples,
    each of length reduced_length(n) (else ShapeError) with finite entries
    (else ValueError)."""
    L = reduced_length(record.n)
    for name in names:
        v = tuple(map(float, getattr(record, name)))
        if len(v) != L:
            raise ShapeError(f"{' and '.join(names)} must have length {L} for n={record.n}")
        _check_finite(name, v)
        object.__setattr__(record, name, v)


def _check_finite(name: str, v) -> None:
    """ValueError unless every entry of the float sequence `v` is finite."""
    # a finite sum has finite terms: only one that overflows needs each entry read
    if not (math.isfinite(sum(v)) or all(map(math.isfinite, v))):
        raise ValueError(f"{name} must be finite, got {tuple(v)}")


@dataclass(frozen=True)
class AsymptoticData:
    """Reduced coordinates (gamma_i, rho_i) of the x -> 0 expansion
    2 w_i = gamma_i log x + rho_i + o(1)."""

    n: int
    gamma: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        _check_record(self, "gamma", "rho")


@dataclass(frozen=True)
class MonodromyData:
    """Reduced eigenvalue-type data (m_i, log e_i) on the monodromy side."""

    n: int
    m: tuple[float, ...]
    log_e: tuple[float, ...]

    def __post_init__(self):
        _check_record(self, "m", "log_e")


def expand_full(data):
    """Full anti-symmetric extensions of both fields of a data object.

    Returns (full_gamma, full_rho) for AsymptoticData and (full_m,
    full_log_e) for MonodromyData.
    """
    if isinstance(data, AsymptoticData):
        fields = data.gamma, data.rho
    elif isinstance(data, MonodromyData):
        fields = data.m, data.log_e
    else:
        raise TypeError(f"expected AsymptoticData or MonodromyData, got {type(data)!r}")
    return tuple(expand_reduced(data.n, v) for v in fields)


# ----------------------------------------------------------------------
# Gamma products
# ----------------------------------------------------------------------

def log_x_k(k: int, full_values, n: int) -> float:
    """log X_k = sum_{j=1..n} log Gamma((v_k - v_{k+j} + 2j) / (2(n+1)))."""
    reduced_length(n)   # ShapeError unless n is a positive integer
    N = n + 1
    full_values = list(full_values)
    if len(full_values) != N:
        raise ShapeError(f"full list must have length {N}, got {len(full_values)}")
    v_k, two_N = full_values[k % N], 2.0 * N
    acc = 0.0
    for j in range(1, n + 1):
        arg = (v_k - full_values[(k + j) % N] + 2.0 * j) / two_N
        if arg <= 0.0:
            raise GenericityError(_X_MESSAGE.format(a=arg, k=k, j=j))
        acc += log_gamma(arg)
    return acc


_X_MESSAGE = "nonpositive Gamma argument {a:.6g} in X_k at (k={k}, j={j})"
_F_MESSAGE = ("nonpositive psi_m2 argument {a:.6g} at (k={k}, j={j}); "
              "full m gaps must lie in (-1, 1)")


def _refuse(message: str, order, args, fn) -> None:
    """The loops' pass over the terms, (k, j) in `order` with arguments
    `args`, up to the first nonpositive argument, where it raises
    GenericityError naming that (k, j), unless fn raises first."""
    for (k, j), a in zip(order, args):
        if a <= 0.0:
            raise GenericityError(message.format(a=a, k=k, j=j))
        fn(a)


def _compile(n: int, negate: bool, groups, arg, combine, message: str):
    """body(values, fn) for reduced `values`: the full extension of values
    (of their negation if `negate`) as locals e0..en, the argument
    arg(e, k, j) of each (k, j) of `groups` as a local, and `combine` of
    the group sums 0.0 + fn(..) + ..., term by term in group order."""
    L = reduced_length(n)
    first = [n - i for i in range(L)] if negate else list(range(L))
    order = [kj for group in groups for kj in group]
    name = "a{}_{}".format
    args = ", ".join(name(*kj) for kj in order)

    def e(i):
        return "0.0" if 2 * i == n else f"e{i}"

    sums = [f"(0.0{''.join(f' + fn({name(*kj)})' for kj in group)})" for group in groups]
    src = [
        "def body(values, fn):",
        f"    {''.join(f'e{i}, ' for i in first)}= values",
        *(f"    e{n - i} = -e{i}" for i in first),
        *(f"    {name(*kj)} = {arg(e, *kj)}" for kj in order),
        f"    if not min({args}) > 0.0:",
        f"        _refuse(MESSAGE, ORDER, ({args}), fn)",
        f"    return {combine(sums)}",
    ]
    scope = {"_refuse": _refuse, "MESSAGE": message, "ORDER": tuple(order)}
    exec(compile("\n".join(src), f"<data_maps body n={n} negate={negate}>", "exec"), scope)
    return scope["body"]


@functools.cache
def _f_body(n: int):
    """F's sum_{k=0..n} sum_{j=1..n} fn((m_{k-j} - m_k + j) / (n+1)) over the
    full extension of reduced m, as body(m, fn)."""
    N = n + 1
    return _compile(n, False, [[(k, j) for k in range(N) for j in range(1, N)]],
                    lambda e, k, j: f"({e((k - j) % N)} - {e(k)} + {j}) / {N}",
                    lambda sums: sums[0], _F_MESSAGE)


@functools.cache
def _r_body(n: int):
    """R(gamma) = [log X_{n-i} - log X_i, i < L] on the negated full
    extension of reduced gamma, as body(gamma, fn) with fn = log_gamma."""
    N = n + 1
    return _compile(n, True, [[(k, j) for j in range(1, N)]
                              for i in range(reduced_length(n)) for k in (n - i, i)],
                    lambda e, k, j: f"({e(k)} - {e((k + j) % N)} + {2.0 * j!r}) / {2.0 * N!r}",
                    lambda sums: f"[{', '.join(map(' - '.join, zip(sums[::2], sums[1::2])))}]",
                    _X_MESSAGE)


def _log_ratios(n: int, gamma_reduced) -> list[float]:
    """log X_{n-i} - log X_i, i < L, on the negated full extension of gamma."""
    gamma = _reduced(n, gamma_reduced)   # ShapeError unless n is a positive integer
    return _r_body(operator.index(n))(gamma, log_gamma)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _chart(n: int, gamma: tuple[float, ...], lg) -> tuple[float, ...]:
    """The shift R(gamma) = `_log_ratios` of a generic gamma, after
    `check_genericity`, cached per (n, gamma, lg).  Callers pass gamma as
    tuple(map(float, gamma)), so a list, a tuple, np.float64 entries, 0.0
    and -0.0 share an entry (R reads -0.0 as 0.0 bit for bit), and lg as
    the log_gamma this module calls, which only keys the entry: a rebound
    log_gamma (a tracer, a test's patch) sees every evaluation of R made
    while it is bound.  An error is raised on every call, never stored.
    `_chart.__wrapped__` is the uncached evaluation."""
    check_genericity(n, gamma)
    return tuple(_log_ratios(n, gamma))


# ----------------------------------------------------------------------
# Data maps
# ----------------------------------------------------------------------

def asymptotic_to_monodromy(a: AsymptoticData) -> MonodromyData:
    """Closed-form monodromy data of a local solution germ."""
    ln_np1 = math.log(a.n + 1)
    m = [-0.5 * g for g in a.gamma]
    log_e = [r + g * ln_np1 + x
             for r, g, x in zip(a.rho, a.gamma, _chart(a.n, a.gamma, log_gamma))]
    return MonodromyData(n=a.n, m=tuple(m), log_e=tuple(log_e))


def monodromy_to_asymptotic(md: MonodromyData) -> AsymptoticData:
    """Exact inverse of `asymptotic_to_monodromy`."""
    gamma = tuple(-2.0 * v for v in md.m)
    ln_np1 = math.log(md.n + 1)
    rho = [e - g * ln_np1 - x
           for e, g, x in zip(md.log_e, gamma, _chart(md.n, gamma, log_gamma))]
    return AsymptoticData(n=md.n, gamma=gamma, rho=tuple(rho))


def global_rho(n: int, gamma) -> list[float]:
    """The unique rho with log e_i = 0: the globally smooth solutions."""
    reduced_length(n)   # checks n before _chart hashes it and log(n + 1)
    gamma = tuple(map(float, gamma))
    shift = _chart(n, gamma, log_gamma)
    ln_np1 = math.log(n + 1)
    return [-g * ln_np1 - x for g, x in zip(gamma, shift)]


# ----------------------------------------------------------------------
# Generating function
# ----------------------------------------------------------------------

def gen_fun_F(n: int, rho, m) -> float:
    """Generating function F(rho, m) of the (rho, m) -> (log e, m) change.

    The double sum runs over the full periodic anti-symmetric extension of
    m; every psi_m2 argument is positive exactly when the full m gaps lie
    in (-1, 1), the image of genericity under m = -gamma/2.  A non-finite
    entry of rho or m raises ValueError.  The extension repeats psi_m2
    arguments (8 distinct of 12 at n = 3), which psi_m2's own cache
    evaluates once; the sum adds one term per (k, j) in order.
    """
    rho, m = [float(v) for v in rho], [float(v) for v in m]
    _check_finite("rho", rho)
    _check_finite("m", m)
    L = reduced_length(n)
    if len(rho) != L or len(m) != L:
        raise ShapeError(f"rho and m must have length {L} for n={n}")
    N = n + 1
    acc = -sum(rho[i] * m[i] for i in range(L))
    acc += math.log(N) * sum(v * v for v in m)
    return acc + 0.5 * N * _f_body(operator.index(n))(m, psi_m2)


@dataclass(frozen=True)
class GradientCheckReport:
    n: int
    h: float
    residuals: tuple[float, ...]
    max_residual: float


@dataclass(frozen=True)
class SymplecticCheckReport:
    n: int
    h: float
    matrix: tuple[tuple[float, ...], ...]
    max_asymmetry: float


def _max_or_nan(values: list[float]) -> float:
    """The largest of the non-negative `values`, or NaN if one is NaN, which
    max() drops unless it comes first; their sum is NaN exactly then."""
    return math.nan if math.isnan(sum(values)) else max(values)


def _check_step(n: int, gamma, h: float) -> list[float]:
    """gamma as floats, once h is a central-difference step the checks can
    take there: 0 < h < inf, and genericity with margin 4h, since a step of
    h in m_i or gamma_i moves full gamma gaps by up to 4h.  Either failing
    is a parameter error (ValueError)."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    gamma = [float(v) for v in gamma]
    try:
        check_genericity(n, gamma, margin=4.0 * h + DEFAULT_MARGIN)
    except GenericityError as exc:
        raise ValueError(f"step h={h:g} too large for genericity margin: {exc}") from exc
    return gamma


def verify_generating_function(n: int, gamma, rho=None,
                               h: float = 1e-4) -> GradientCheckReport:
    """Central-difference check that dF/dm_i reproduces -log e_i, with the
    step h of `_check_step`."""
    L = reduced_length(n)
    gamma = _check_step(n, gamma, h)
    rho = [0.0] * L if rho is None else [float(v) for v in rho]
    m = [-0.5 * g for g in gamma]
    log_e = asymptotic_to_monodromy(AsymptoticData(n, tuple(gamma), tuple(rho))).log_e
    residuals = []
    for i in range(L):
        mp = list(m); mp[i] += h
        mm = list(m); mm[i] -= h
        dF = (gen_fun_F(n, rho, mp) - gen_fun_F(n, rho, mm)) / (2.0 * h)
        residuals.append(abs(dF + log_e[i]))
    return GradientCheckReport(n=n, h=h, residuals=tuple(residuals),
                               max_residual=_max_or_nan(residuals))


def verify_symplectic(n: int, gamma, h: float = 1e-4) -> SymplecticCheckReport:
    """Symmetry check of A_ij = d/dgamma_j [log X_{n-i} - log X_i](full gamma).

    Symmetry of A is equivalent to preservation of the pairing
    -1/2 sum dgamma ^ drho = sum dm ^ dlog e under the chart change.  The
    step h is checked by `_check_step`.
    """
    L = reduced_length(n)
    gamma = _check_step(n, gamma, h)

    def g(gm):   # the ratios on the full extension of gm itself
        return _log_ratios(n, [-v for v in gm])

    # column j from one evaluation of the vector g at each of gamma +- h e_j
    cols = []
    for j in range(L):
        gp = list(gamma); gp[j] += h
        gm_ = list(gamma); gm_[j] -= h
        cols.append([(p - m) / (2.0 * h) for p, m in zip(g(gp), g(gm_))])
    A = [list(row) for row in zip(*cols)]
    asym = _max_or_nan([abs(A[i][j] - A[j][i]) for i in range(L) for j in range(L)])
    return SymplecticCheckReport(n=n, h=h,
                                 matrix=tuple(tuple(row) for row in A),
                                 max_asymmetry=asym)
