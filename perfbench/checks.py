"""Independent references for the benchmark's output checks.

None of these share code with the library: the tau check integrates the
energy with scipy's QUADPACK, and the special-function and closed-form
checks use mpmath at 30 digits.  scipy and mpmath are imported lazily, after
the timed phase, so they do not count toward set-up time or peak memory.
"""

from __future__ import annotations

import math

MP_DPS = 30

# Gates of tests/test_acceptance.py (criteria 2 to 6).
CONSTANT_ABS_DIFF_MAX = 1e-3
ROUND_TRIP_MAX = 1e-12
SMOOTH_LOG_E_MAX = 1e-12
GRADIENT_RESIDUAL_MAX = 1e-6
SYMPLECTIC_ASYMMETRY_MAX = 1e-7
PSI_M2_ABS_MAX = 1e-10
# 15 psi_m2 terms enter C with weights of at most 4, each within
# PSI_M2_ABS_MAX: 2.4e-9 in total, rounded up.
CLOSED_FORM_ABS_MAX = 1e-8
# Both sides are accurate to ~1e-10 (integrator rel_tol 1e-12 on the
# accumulated channel, QUADPACK at 1e-11); 1e-8 leaves room for the
# dense-output interpolant.
TAU_QUAD_ABS_MAX = 1e-8


def psi_m2_mp(z: float) -> float:
    """integral_0^z log Gamma(t) dt by mpmath quadrature."""
    import mpmath as mp
    with mp.workdps(MP_DPS):
        return float(mp.quad(mp.loggamma, [0, mp.mpf(z)]))


def constant_closed_mp(gamma) -> float:
    """Closed-form n = 3 constant, rebuilt from the formulas in mpmath.

    rho* makes log e_i = 0: rho_i = -gamma_i log 4 - (log X_{3-i} - log X_i)
    on the negated full gamma, X_k = prod_j Gamma((v_k - v_{k+j} + 2j)/8);
    F(rho, m) = -sum rho_i m_i + log 4 sum m_i^2
                + 2 sum_k sum_j psi_m2((m_{k-j} - m_k + j)/4);
    C = -(g0^2 + g1^2)/8 - F(rho*, -gamma/2)/2 + 4 sum_{z=1/4,1/2,3/4} psi_m2(z),
    with psi_m2 from log Gamma and the Barnes G-function.
    """
    import mpmath as mp
    with mp.workdps(MP_DPS):
        g = [mp.mpf(v) for v in gamma]
        n, N = 3, 4

        def full(v):
            return [v[0], v[1], -v[1], -v[0]]

        def log_x(k, v):
            return mp.fsum(mp.loggamma((v[k % N] - v[(k + j) % N] + 2 * j) / (2 * N))
                           for j in range(1, n + 1))

        def psi(z):
            return (z * (1 - z) / 2 + z / 2 * mp.log(2 * mp.pi)
                    + z * mp.loggamma(z) - mp.log(mp.barnesg(1 + z)))

        neg = [-v for v in full(g)]
        rho = [-g[i] * mp.log(N) - (log_x(n - i, neg) - log_x(i, neg)) for i in range(2)]
        m = [-v / 2 for v in g]
        mf = full(m)
        F = (-mp.fsum(rho[i] * m[i] for i in range(2)) + mp.log(N) * mp.fsum(v * v for v in m)
             + mp.mpf(N) / 2 * mp.fsum(psi((mf[(k - j) % N] - mf[k] + j) / mp.mpf(N))
                                       for k in range(N) for j in range(1, n + 1)))
        c = (-(g[0] ** 2 + g[1] ** 2) / 8 - F / 2
             + 4 * (psi(mp.mpf(1) / 4) + psi(mp.mpf(1) / 2) + psi(mp.mpf(3) / 4)))
        return float(c)


def reg_integral_quad(sol, hamiltonian, x2: float) -> float:
    """integral_{x0}^{x2} (H(state(x)) + 2x) dx by adaptive QUADPACK.

    The forward/tail switch is passed as a break point: the composite orbit
    is continuous there only to the matching residual.
    """
    from scipy.integrate import quad

    def density(x):
        return hamiltonian(sol.state(x), 3) + 2.0 * x

    points = [sol.x_switch] if sol.x0 < sol.x_switch < x2 else None
    val, _err = quad(density, sol.x0, x2, points=points, limit=400,
                     epsabs=1e-11, epsrel=1e-11)
    return val


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)
