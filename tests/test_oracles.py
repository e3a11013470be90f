"""Special functions, the tail's Bessel functions, the closed-form constant
and the small-x series against mpmath.

mpmath shares no code with the library: Barnes G, log Gamma, the
quadrature and the ODE solver below are its own.  It serves the tests only, and the module
is skipped where it is not installed.
"""

import numpy as np
import pytest

from ttstar_toda.data_maps import global_rho
from ttstar_toda.global_solutions import _RATES, _VECTORS, SmallXSeries, _bessel
from ttstar_toda.special_functions import _SERIES_TAIL, log_barnes_g, psi_m2, psi_m2_oracle
from ttstar_toda.tau_constant import constant_closed

mp = pytest.importorskip("mpmath")

# (0, 3], finer towards the log singularities of both functions at 0
Z_GRID = [1e-3, 0.01, 0.05, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0,
          *np.linspace(0.1, 2.9, 15).tolist()]
# log_barnes_g switches between the series and one, two or three
# recursion steps at 0.5, 1.5, 2.5 and 3.5; psi_m2 switches at 0.5
EDGES = [z + d for z in (0.5, 1.5, 2.5, 3.5) for d in (-1e-9, 1e-9)]
BARNES_GRID = Z_GRID + EDGES + [1e-6, 3.9, 4.0]
PSI_GRID = Z_GRID + [0.5 - 1e-9, 0.5 + 1e-9, 0.49, 0.51, 1e-6]


def _psi_m2_mp(z):
    """integral_0^z log Gamma(t) dt by tanh-sinh quadrature."""
    return mp.quad(mp.loggamma, [0, z])


@pytest.mark.parametrize("z", BARNES_GRID)
def test_log_barnes_g(z):
    with mp.workdps(30):
        ref = mp.log(mp.barnesg(mp.mpf(z)))
        assert abs(log_barnes_g(z) - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("z", PSI_GRID)
def test_psi_m2(z):
    with mp.workdps(30):
        ref = _psi_m2_mp(mp.mpf(z))
        assert abs(psi_m2(z) - ref) <= 1e-14 * max(1.0, abs(ref))


# 50 seeded z in (0, 3], z = 1e-6, the oracle's panel edges 0.1 * 2^j
# and the end of its domain
ORACLE_GRID = [*(3.0 - np.random.default_rng(11).uniform(0.0, 3.0, 50)).tolist(),
               1e-6, *(0.1 * 2.0 ** j for j in range(5)), 3.0]


@pytest.mark.parametrize("z", ORACLE_GRID)
def test_psi_m2_oracle(z):
    # the fixed graded rule against mpmath's own quadrature; worst 1.8e-15
    with mp.workdps(30):
        assert abs(psi_m2_oracle(z) - _psi_m2_mp(mp.mpf(z))) <= 1e-14


@pytest.mark.parametrize("growing, lo, hi", [(False, 1e-3, 40.0), (True, 0.25, 19.0)],
                         ids=["K", "I"])
def test_tail_bessel_functions(growing, lo, hi):
    # K_0, K_1 (or I_0, I_1) by the tail's rules, on the ranges the tail
    # (z up to 36), truncation(x2) (K down to z = r_k x2) and the match (I
    # from 11 to 18.4) read, and I below them to 0.25, where I_1's sum
    # still keeps its relative accuracy; K's node count follows a call's
    # smallest z, so each z is also read alone, as the scalar state reads
    # take it
    z = np.geomspace(lo, hi, 121)
    fn = mp.besseli if growing else mp.besselk
    with mp.workdps(30):
        ref = np.array([[float(fn(nu, mp.mpf(v))) for nu in (0, 1)] for v in z])
    for got in (_bessel(z, growing), np.array([_bessel(v, growing) for v in z])):
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-15


def test_truncation_below_the_tail(sol_031):
    # truncation(x2) reads K at z = r_k x2, down to z = 0.028 at x2 = x0 =
    # 0.01, where K1 by the tail's 24 nodes was 85% off and tail_bound read
    # 0.0097 against |c - C| = 0.034; the formula's own cancellation grows
    # with z, to about 1e-13 beyond x2 = 3
    for x2 in np.geomspace(sol_031.x0, 1.0, 9):
        with mp.workdps(30):
            ref = sum(mp.mpf(a) ** 2 * float(v @ v) / 2 * (z * mp.besselk(0, z) * mp.besselk(1, z)
                      - z * z * (mp.besselk(1, z) ** 2 - mp.besselk(0, z) ** 2))
                      for a, v, z in zip(sol_031.amps, _VECTORS, map(mp.mpf, _RATES * x2)))
        assert abs(sol_031.truncation(x2) / float(ref) - 1.0) <= 1e-14, x2


def test_series_tail_coefficients():
    # (-1)^(k-1) r(k-1) / k for k = 26 .. 3, r(s) = zeta(s) - 1 - 2^-s; their
    # rounding moves the tail polynomial by less than 5e-17 on |y| <= 1/2
    with mp.workdps(30):
        moved = 0.0
        for k, c in zip(range(26, 2, -1), _SERIES_TAIL):
            ref = (-1) ** (k - 1) * (mp.zeta(k - 1) - 1 - mp.mpf(2) ** (1 - k)) / k
            moved += float(abs(c - ref)) * 0.5 ** k
        assert moved <= 5e-17


def _constant_closed_mp(gamma):
    """C = -|gamma|^2/8 - F(rho*, m)/2 + 4 (psi_m2(1/4) + psi_m2(1/2) + psi_m2(3/4))
    for n = 3, rebuilt from the formulas: rho* is the rho with log e_i = 0,
    rho_i = -gamma_i log 4 - (log X_{3-i} - log X_i) on the negated full
    gamma with X_k(v) = prod_{j=1..3} Gamma((v_k - v_{k+j} + 2j)/8), and
    F(rho, m) = -sum rho_i m_i + log 4 sum m_i^2
                + 2 sum_k sum_j psi_m2((m_{k-j} - m_k + j)/4), m = -gamma/2."""
    g = [mp.mpf(v) for v in gamma]

    def full(v):
        return [v[0], v[1], -v[1], -v[0]]

    def log_x(k, v):
        return mp.fsum(mp.loggamma((v[k % 4] - v[(k + j) % 4] + 2 * j) / 8)
                       for j in (1, 2, 3))

    neg = [-v for v in full(g)]
    rho = [-g[i] * mp.log(4) - (log_x(3 - i, neg) - log_x(i, neg)) for i in (0, 1)]
    m = [-v / 2 for v in g]
    mf = full(m)
    F = (-mp.fsum(r * v for r, v in zip(rho, m)) + mp.log(4) * mp.fsum(v * v for v in m)
         + 2 * mp.fsum(_psi_m2_mp((mf[(k - j) % 4] - mf[k] + j) / mp.mpf(4))
                       for k in range(4) for j in (1, 2, 3)))
    psis = sum(_psi_m2_mp(mp.mpf(z) / 4) for z in (1, 2, 3))
    return -(g[0] ** 2 + g[1] ** 2) / 8 - F / 2 + 4 * psis


@pytest.mark.parametrize("gamma", [(0.3, 0.1), (-0.2, 0.4), (0.9, -0.4)])
def test_constant_closed(gamma):
    with mp.workdps(30):
        ref = _constant_closed_mp(gamma)
        assert abs(constant_closed(gamma) - ref) <= 1e-8


def _chain_theta_mp(theta, y):
    """The n = 3 chain in theta = log x: w' = wt and
    wt' = x^2 (2 e^{4 w0} - 2 e^{2(w1 - w0)}, 2 e^{2(w1 - w0)} - 2 e^{-4 w1})."""
    w0, w1, t0, t1 = y
    x2, mid = mp.exp(2 * theta), mp.exp(2 * (w1 - w0))
    return [t0, t1, 2 * x2 * (mp.exp(4 * w0) - mid), 2 * x2 * (mid - mp.exp(-4 * w1))]


def _chain1_theta_mp(theta, y):
    """The n = 1 chain (sinh-Gordon) in theta = log x: w' = wt and
    wt' = 2 x^2 (e^{4w} - e^{-4w})."""
    w, t = y
    return [t, 2 * mp.exp(2 * theta) * (mp.exp(4 * w) - mp.exp(-4 * w))]


def _chain2_theta_mp(theta, y):
    """The n = 2 chain in theta = log x, v = (w, 0, -w): w' = wt and
    wt' = 2 x^2 (e^{4w} - e^{-2w})."""
    w, t = y
    return [t, 2 * mp.exp(2 * theta) * (mp.exp(4 * w) - mp.exp(-2 * w))]


_CHAINS_MP = {1: _chain1_theta_mp, 2: _chain2_theta_mp, 3: _chain_theta_mp}


# the ids of the n = 3 cases are kept from before n was a parameter
@pytest.mark.parametrize("n, gamma, tol", [(3, (0.3, 0.1), 1e-15), (3, (0.0, 0.8), 1e-11),
                                           (1, (0.3,), 1e-15), (2, (-0.8,), 1e-11)],
                         ids=["gamma0-1e-15", "gamma1-1e-11", "n1", "n2"])
def test_series_seed_against_the_ode(n, gamma, tol):
    # mpmath's Taylor-series ODE solver at 18 digits carries the series
    # state at x = 1e-6, where its first dropped term is far below the
    # rounding of the start, to 1e-3, and meets the seed there: order 2
    # at (0.3, 0.1), 6e-17 off (the first-order seed: 6e-12), and order 8
    # at (0.0, 0.8), a = 0.4, whose first dropped term at 1e-3 is 2.7e-12,
    # 2.9e-12 off (the first-order seed: 1e-3); at n = 1, order 3 at
    # gamma = 0.3, 0 off, and at n = 2, order 8 at gamma = -0.8, a = 0.4,
    # first dropped term 2.6e-12, 2.7e-12 off
    rho = global_rho(n, gamma)
    series, L = SmallXSeries(n, gamma), len(gamma)
    start = series.cut(rho, 1e-6).seed(rho, 1e-6)[:2 * L]
    seed = series.cut(rho, 1e-3).seed(rho, 1e-3)[:2 * L]
    with mp.workdps(18):
        y = mp.odefun(_CHAINS_MP[n], mp.log(1e-6), [mp.mpf(v) for v in start])
        end = y(mp.log(1e-3))
    assert max(abs(float(e) - v) for e, v in zip(end, seed)) <= tol
