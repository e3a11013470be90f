"""Double-precision special functions on the positive real axis.

Provides log Gamma, log of the Barnes G-function, and the iterated
log-Gamma integral

    psi_m2(z) = integral_0^z log Gamma(t) dt
              = z(1-z)/2 + (z/2) log 2pi + z log Gamma(z) - log G(1+z)
              = z(1-z)/2 + (z/2) log 2pi + (z-1) log Gamma(z) - log G(z),

the last form sharing its one log Gamma with G(1+z) = Gamma(z) G(z);
together with an independent oracle for the integral definition, and the
Bessel functions K_0, K_1, I_0, I_1 that the tail of global_solutions reads.

psi_m2_oracle shares only log_gamma with psi_m2: one fixed graded
Gauss-Legendre rule, whose panels each lie at least their own length from
the pole of log Gamma at 0, so that it converges geometrically (Trefethen,
SIAM Rev. 50 (2008)); at most 6 panels, 90 log Gamma calls, cover (0, 3].

log_gamma and psi_m2 are functools.lru_cache'd on their argument, so a
repeated argument is evaluated once and returns the same bits: one sweep
of the data maps and their checks over n = 1..6, which reads the Gamma
products R(gamma) once per (n, gamma) from data_maps' own cache, repeats
48% of its 536 log Gamma and 70% of its 703 psi_m2 arguments (the 2L
evaluations of F in the gradient check share most of theirs).  The key
is the argument as given (2 and 2.0, 0.3 and np.float64(0.3) share an
entry; "0.3" has its own, holding the same float bits); an unhashable
argument, such as a 0-d np.ndarray, raises TypeError.  A call that raises DomainError is never
stored.  Each cache holds _CACHE_SIZE entries, well above one sweep's few
hundred arguments (few repeat across sweeps).  psi_m2 and log_barnes_g
call the module-level log_gamma and so share its cache.  The caches sit
on the functions themselves, below the names callers import
(data_maps.log_gamma, tau_constant.psi_m2), so a wrapper on such a name
sees every call, however warm the cache; `f.__wrapped__` is the uncached
evaluation.  The values are pure functions of z; the caches are the only
state.

log G(1+y) on |y| <= 1/2 is its Taylor series with coefficients
zeta(k-1), split as zeta(k-1) = 1 + 2^(1-k) + r(k-1): the first two parts
are summed in closed form through log1p, and the remainder, whose
coefficients fall like 3^(1-k), by Horner over 24 import-time terms.
The recursion shifts other arguments into that disk.

Both sums run without a Python loop, in the float operations and order of
the plain loops over their coefficients, so they give the loops' bits with
less interpreter work (log_gamma 1.4 -> 0.8 us a call on Python 3.11,
x86-64).  log Gamma is the Lanczos sum (Lanczos, SIAM J.
Numer. Anal. B 1 (1964); g = 7, 9 coefficients) written out term by term,
with z < 1/2 shifted up by one inline; the Horner sum of the series tail
is generated as one expression from `_SERIES_TAIL` at import.  The loop
versions stay in tests/test_special_functions.py (`log_gamma_loops`,
`log_barnes_g_series_loops`), which checks them against log_gamma,
log_barnes_g and psi_m2 by float.hex.

Accuracy budgets (enforced by the test suite):
  log_gamma     relative error <= 1e-13 on (0, 50]
  log_barnes_g  within 1e-14 max(1, |ref|) of mpmath on (0, 4], and the
                Barnes recursion G(1+z) = Gamma(z) G(z) to <= 1e-12
  psi_m2        within 1e-14 max(1, |ref|) of mpmath on (0, 3], and
                agrees with psi_m2_oracle to <= 1e-10 on (0, 2]
  psi_m2_oracle within 1e-14 of mpmath on (0, 3] (worst 1.8e-15 over
                207 z, the panel edges among them)
  _bessel       K_0, K_1 relative error <= 2e-15 against mpmath on
                [1e-3, 40], I_0, I_1 on [0.25, 19]; I_1 loses relative
                accuracy below z = 0.2 (3e-10 at 1e-6), where nothing
                reads it
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "log_gamma",
    "log_barnes_g",
    "psi_m2",
    "psi_m2_oracle",
]

LN_2PI = 1.8378770664093454835606594728112353  # log(2*pi)
EULER_GAMMA = float(np.euler_gamma)


class DomainError(ValueError):
    """Argument outside the supported positive-real domain."""


# ----------------------------------------------------------------------
# log Gamma: Lanczos approximation (g = 7, 9 coefficients)
# ----------------------------------------------------------------------

_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8 = _LANCZOS_C
_HALF_LN_2PI = 0.5 * LN_2PI


# Entries each cache holds: one maps sweep needs about 280 arguments.
_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CACHE_SIZE)
def log_gamma(z: float) -> float:
    """log Gamma(z) for finite real z > 0."""
    z = float(z)
    if not 0.0 < z < math.inf:
        raise DomainError(f"log_gamma requires finite z > 0, got {z!r}")
    shift = 0.0
    if z < 0.5:
        # downward recursion avoids the reflection formula entirely
        shift = math.log(z)
        z += 1.0
    zm1 = z - 1.0
    acc = (_C0 + _C1 / (zm1 + 1.0) + _C2 / (zm1 + 2.0) + _C3 / (zm1 + 3.0)
           + _C4 / (zm1 + 4.0) + _C5 / (zm1 + 5.0) + _C6 / (zm1 + 6.0)
           + _C7 / (zm1 + 7.0) + _C8 / (zm1 + 8.0))
    t = z + 7.0 - 0.5  # with g = 7; z + 6.5 rounds differently
    return _HALF_LN_2PI + (z - 0.5) * math.log(t) - t + math.log(acc) - shift


# ----------------------------------------------------------------------
# zeta(s) at integer s >= 2, via Euler-Maclaurin (import-time table)
# ----------------------------------------------------------------------

# B_2, B_4, ..., B_12
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


# terms summed directly before the Euler-Maclaurin tail
_ZETA_TERMS = 64


def _zeta_int(s: int) -> float:
    head = sum(k ** (-float(s)) for k in range(1, _ZETA_TERMS))
    nf = float(_ZETA_TERMS)
    tail = nf ** (1.0 - s) / (s - 1.0) + 0.5 * nf ** (-float(s))
    fac = float(s)
    power = nf ** (-float(s) - 1.0)
    for j, b2j in enumerate(_BERNOULLI, start=1):
        tail += b2j / math.factorial(2 * j) * fac * power
        fac *= (s + 2 * j - 1) * (s + 2 * j)
        power /= nf * nf
    return head + tail


# log G(1+y) = y/2 log 2pi - (y + (1 + euler_gamma) y^2)/2
#              + sum_{k>=3} (-1)^(k-1) zeta(k-1) y^k / k   (|y| < 1)
# with zeta(k-1) = 1 + 2^(1-k) + r(k-1).  The parts 1 and 2^(1-k) sum to
# log1p(y) - y + y^2/2 and 2 (log1p(y/2) - y/2 + y^2/8); these are the
# coefficients of y and y^2 collected from all three.
_SERIES_Y1 = 0.5 * LN_2PI - 2.5
_SERIES_Y2 = 0.25 - 0.5 * EULER_GAMMA
# the coefficients of r(k-1): y^26 .. y^3, highest first for Horner.  The
# first omitted term is below 1e-21 at |y| = 1/2.
_SERIES_TAIL = tuple((-1.0) ** (k - 1) * (_zeta_int(k - 1) - 1.0 - 2.0 ** (1 - k)) / k
                     for k in range(26, 2, -1))


# ----------------------------------------------------------------------
# Barnes G
# ----------------------------------------------------------------------

def _make_series():
    """log G(1+y) for |y| <= 0.5, from the split zeta series above.

    Written out as one expression over `_SERIES_TAIL` and compiled once:
    the Horner sum ((c_0 y + c_1) y + ...) y + c_23 is the loop
    `tail = tail * y + c` from tail = 0.0, operation for operation after
    its first step, which gives c_0 exactly for finite y.
    """
    tail = repr(_SERIES_TAIL[0])
    for c in _SERIES_TAIL[1:]:
        tail = f"({tail} * y + {c!r})"
    src = (f"def _log_barnes_g_series(y):\n"
           f"    return (y * ({_SERIES_Y1!r} + {_SERIES_Y2!r} * y) + log1p(y)"
           f" + 2.0 * log1p(0.5 * y) + {tail} * y * y * y)\n")
    scope = {"log1p": math.log1p}
    exec(compile(src, "<log G(1+y) series>", "exec"), scope)
    return scope["_log_barnes_g_series"]


_log_barnes_g_series = _make_series()


def log_barnes_g(z: float) -> float:
    """log G(z) for 0 < z <= 4, G the Barnes G-function.

    Evaluated from the Taylor series of log G(1+y) on |y| <= 1/2 and the
    recursion G(1+z) = Gamma(z) G(z) to shift into that disk.
    """
    z = float(z)
    if not 0.0 < z <= 4.0:
        raise DomainError(f"log_barnes_g requires 0 < z <= 4, got {z!r}")
    if z < 0.5:
        # G(z) = G(1+z) / Gamma(z)
        return _log_barnes_g_series(z) - log_gamma(z)
    acc = 0.0
    while z > 1.5:
        z -= 1.0
        acc += log_gamma(z)
    return acc + _log_barnes_g_series(z - 1.0)


# ----------------------------------------------------------------------
# psi^(-2): closed form and quadrature oracle
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=_CACHE_SIZE)
def psi_m2(z: float) -> float:
    """integral_0^z log Gamma, closed form via log Gamma and Barnes G."""
    z = float(z)
    if not 0.0 < z <= 3.0:
        raise DomainError(f"psi_m2 requires 0 < z <= 3, got {z!r}")
    head = 0.5 * z * (1.0 - z) + 0.5 * z * LN_2PI
    if z < 0.5:
        return head + z * log_gamma(z) - _log_barnes_g_series(z)
    # log G(1+z) = log Gamma(z) + log G(z) shares the one log Gamma
    return head + (z - 1.0) * log_gamma(z) - log_barnes_g(z)


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1],
    built on first use, so that importing the package loads no
    numpy.polynomial and makes no LAPACK call (leggauss's eigvalsh)."""
    nodes, weights = np.polynomial.legendre.leggauss(k)
    nodes.flags.writeable = weights.flags.writeable = False   # shared by every call
    return nodes, weights


def psi_m2_oracle(z: float) -> float:
    """integral_0^z log Gamma(t) dt by a fixed graded Gauss-Legendre rule.

    The integrable -log t behaviour at 0 is removed exactly:
    log Gamma(t) = -log t + log Gamma(1+t), and integral_0^a (-log t) dt
    = a (1 - log a), with a = min(z, 0.1).  integral_0^a log Gamma(1+t)
    is one 15-node Gauss-Legendre panel, and integral_a^z log Gamma(t)
    one such panel on each [c, min(2c, z)], c = a, 2a, 4a, ...: each
    panel lies at least its own length from the pole of log Gamma at 0,
    so the rule converges geometrically on every one.
    """
    z = float(z)
    if not 0.0 < z <= 3.0:
        raise DomainError(f"psi_m2_oracle requires 0 < z <= 3, got {z!r}")
    nodes, weights = (r.tolist() for r in _gauss_legendre(15))

    def panel(f, lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        return half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))

    a = c = min(z, 0.1)
    total = a * (1.0 - math.log(a)) + panel(lambda t: log_gamma(1.0 + t), 0.0, a)
    while c < z:
        total += panel(log_gamma, c, min(2.0 * c, z))
        c *= 2.0
    return total


# ----------------------------------------------------------------------
# Bessel K and I of order 0 and 1, for the tail of global_solutions
# ----------------------------------------------------------------------

# K_nu and I_nu (nu = 0, 1) by trapezoid and midpoint rules: e^z K_nu(z) =
# int_0^inf e^{-z (cosh t - 1)} cosh(nu t) dt by the trapezoid rule, h = 1/8,
# and e^{-z} I_nu(z) = (1/pi) int_0^pi e^{z (cos t - 1)} cos(nu t) dt by the
# 24-node midpoint rule; nodes are the exponents over z, and a weight column
# per nu.  K takes 24 nodes where every z of a call is at least 4, and below
# that the count that puts the first dropped node's exponent z (cosh t - 1)
# beyond 36 at the call's smallest z (90 at z = 1e-3): the dropped terms are
# then below 1e-15 relative.  global_solutions' tail reads K up to z = 4
# x_right = 36, its match I on the window (3.9, 4.6), z from 2 sqrt 2 * 3.9
# = 11 to 4 * 4.6 = 18.4, and truncation(x2) K down to z = r_k x2.
@functools.lru_cache(maxsize=64)
def _k_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(count) / 8.0
    nodes, weights = 1.0 - np.cosh(t), (np.column_stack([np.ones(count), np.cosh(t)])
                                        * np.r_[0.0625, np.full(count - 1, 0.125)][:, None])
    nodes.flags.writeable = weights.flags.writeable = False   # shared by every call
    return nodes, weights


_IT = (np.arange(24) + 0.5) * (math.pi / 24.0)
_I_RULE = (np.cos(_IT) - 1.0, np.column_stack([np.ones(24), np.cos(_IT)]) / 24.0)


def _bessel(z, growing: bool = False) -> np.ndarray:
    """K_0(z), K_1(z) on a new last axis, or I_0(z), I_1(z) with `growing`:
    one exp over (..., nodes) and one product."""
    z = np.asarray(z, dtype=float)[..., None]
    if growing:
        nodes, weights = _I_RULE
    else:
        # a NaN z keeps 24 nodes, and z <= 0, where K is not finite, 1e-300's
        z_min = float(z.min(initial=4.0))
        nodes, weights = _k_rule(24 if not z_min < 4.0 else math.ceil(
            8.0 * math.acosh(1.0 + 36.0 / max(z_min, 1e-300))))
    return np.exp(z if growing else -z) * (np.exp(z * nodes) @ weights)
