"""Double-precision special functions on the positive real axis.

Provides log Gamma, log of the Barnes G-function, and the iterated
log-Gamma integral

    psi_m2(z) = integral_0^z log Gamma(t) dt
              = z(1-z)/2 + (z/2) log 2pi + z log Gamma(z) - log G(1+z)
              = z(1-z)/2 + (z/2) log 2pi + (z-1) log Gamma(z) - log G(z),

the last form sharing its one log Gamma with G(1+z) = Gamma(z) G(z);
together with an independent adaptive-quadrature oracle for the integral
definition.  Everything is pure and stateless.

log G(1+y) on |y| <= 1/2 is its Taylor series with coefficients
zeta(k-1), split as zeta(k-1) = 1 + 2^(1-k) + r(k-1): the first two parts
are summed in closed form through log1p, and the remainder, whose
coefficients fall like 3^(1-k), by Horner over 24 import-time terms.
The recursion shifts other arguments into that disk.

Accuracy budgets (enforced by the test suite):
  log_gamma     relative error <= 1e-13 on (0, 50]
  log_barnes_g  within 1e-14 max(1, |ref|) of mpmath on (0, 4], and the
                Barnes recursion G(1+z) = Gamma(z) G(z) to <= 1e-12
  psi_m2        within 1e-14 max(1, |ref|) of mpmath on (0, 3], and
                agrees with psi_m2_oracle to <= 1e-10 on (0, 2]
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "QuadratureError",
    "log_gamma",
    "log_barnes_g",
    "psi_m2",
    "psi_m2_oracle",
]

LN_2PI = 1.8378770664093454835606594728112353  # log(2*pi)
EULER_GAMMA = float(np.euler_gamma)


class DomainError(ValueError):
    """Argument outside the supported positive-real domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best estimate and the achieved error bound so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message: str, estimate: float, achieved_tol: float):
        super().__init__(f"{message} (estimate={estimate!r}, achieved_tol={achieved_tol:g})")
        self.estimate = estimate
        self.achieved_tol = achieved_tol


# ----------------------------------------------------------------------
# log Gamma: Lanczos approximation (g = 7, 9 coefficients)
# ----------------------------------------------------------------------

_LANCZOS_G = 7.0
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


def _log_gamma_lanczos(z: float) -> float:
    # valid for z >= 0.5
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z - 1.0 + i)
    t = z + _LANCZOS_G - 0.5
    return 0.5 * LN_2PI + (z - 0.5) * math.log(t) - t + math.log(acc)


def log_gamma(z: float) -> float:
    """log Gamma(z) for real z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z!r}")
    if z < 0.5:
        # downward recursion avoids the reflection formula entirely
        return _log_gamma_lanczos(z + 1.0) - math.log(z)
    return _log_gamma_lanczos(z)


# ----------------------------------------------------------------------
# zeta(s) at integer s >= 2, via Euler-Maclaurin (import-time table)
# ----------------------------------------------------------------------

# B_2, B_4, ..., B_12
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def _zeta_int(s: int, nterms: int = 64) -> float:
    head = sum(k ** (-float(s)) for k in range(1, nterms))
    nf = float(nterms)
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

def _log_barnes_g_series(y: float) -> float:
    """log G(1+y) for |y| <= 0.5, from the split zeta series above."""
    tail = 0.0
    for c in _SERIES_TAIL:
        tail = tail * y + c
    return (y * (_SERIES_Y1 + _SERIES_Y2 * y) + math.log1p(y) + 2.0 * math.log1p(0.5 * y)
            + tail * y * y * y)


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


_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, a: float, b: float):
    """(estimate, error_estimate) on one panel from a G7/G15 pair."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x7, w7 = _GL7
    x15, w15 = _GL15
    f15 = sum(w * f(mid + half * x) for x, w in zip(x15, w15)) * half
    f7 = sum(w * f(mid + half * x) for x, w in zip(x7, w7)) * half
    return f15, abs(f15 - f7)


def _adaptive_gl(f, a: float, b: float, tol: float, max_depth: int = 40):
    """Adaptive bisection Gauss-Legendre; returns (value, achieved_bound)."""
    stack = [(a, b, tol, 0)]
    total = 0.0
    achieved = 0.0
    while stack:
        a0, b0, t0, depth = stack.pop()
        est, err = _gl_panel(f, a0, b0)
        if err <= t0 or depth >= max_depth:
            total += est
            achieved += err
            if err > t0 and depth >= max_depth:
                raise QuadratureError("quadrature did not converge", total, achieved)
        else:
            mid = 0.5 * (a0 + b0)
            stack.append((a0, mid, 0.5 * t0, depth + 1))
            stack.append((mid, b0, 0.5 * t0, depth + 1))
    return total, achieved


def psi_m2_oracle(z: float, tol: float = 1e-12) -> float:
    """integral_0^z log Gamma(t) dt by adaptive quadrature.

    The integrable -log t behaviour at 0 is removed exactly:
    log Gamma(t) = -log t + log Gamma(1+t), and integral_0^a (-log t) dt
    = a (1 - log a).  The smooth remainder is integrated by adaptive
    Gauss-Legendre.
    """
    z = float(z)
    if not 0.0 < z <= 3.0:
        raise DomainError(f"psi_m2_oracle requires 0 < z <= 3, got {z!r}")
    a = min(z, 0.1)
    total = a * (1.0 - math.log(a))
    val, _ = _adaptive_gl(lambda t: log_gamma(1.0 + t), 0.0, a, 0.25 * tol)
    total += val
    if z > a:
        val, _ = _adaptive_gl(log_gamma, a, z, 0.75 * tol)
        total += val
    return total
