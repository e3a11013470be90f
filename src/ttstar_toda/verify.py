"""Residual suites that check the paper's claims, and the one verdict rule.

Each suite is a generator of residuals from (rng, samples, n):
  specfun     psi_m2 against its quadrature oracle, the Barnes G recurrence
  genfun      dF/dm against -log e (the generating function)
  symplectic  asymmetry of d(log ratio)/dgamma (the symplectic pairing)
  dynamics    Hamilton's equations and quasi-homogeneity of the chain
  constant    C against its closed form (n = 3), the acceptance gammas first
  separatrix  rho* bisected on runs from the series seed against
              global_rho (n = 1, 2), SEPARATRIX_GAMMAS first

`run` applies the one rule: the largest residual decides, a NaN counting
as inf, and the run passes when it is within the threshold, the suite's
default in `SUITES` unless one is given.  `ttstar verify` prints its
report and `ttstar constant` gates at the constant suite's default.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import data_maps as dm
from . import global_solutions as gs
from . import hamiltonian_flow as hf
from . import tau_constant as tc
from .special_functions import psi_m2, psi_m2_oracle, log_barnes_g, log_gamma


def _suite_specfun(rng, samples, n):
    # psi_m2's whole domain (0, 3]: 3 - [0, 3) never draws 0
    for z in 3.0 - rng.uniform(0.0, 3.0, samples):
        yield abs(psi_m2(z) - psi_m2_oracle(z))
    for z in rng.uniform(0.05, 2.5, samples):
        yield abs(log_barnes_g(1.0 + z) - (log_gamma(z) + log_barnes_g(z)))


def _random_generic_gamma(rng, n):
    L = dm.reduced_length(n)
    for _ in range(1000):
        g = rng.uniform(-0.45, 0.45, L)
        try:
            dm.check_genericity(n, g, margin=1e-3)
            return tuple(g)
        except dm.GenericityError:
            continue
    raise dm.GenericityError("could not draw a generic sample")


def _suite_genfun(rng, samples, n):
    for _ in range(samples):
        g = _random_generic_gamma(rng, n)
        rho = tuple(rng.uniform(-0.5, 0.5, dm.reduced_length(n)))
        yield dm.verify_generating_function(n, g, rho, h=1e-4).max_residual


def _suite_symplectic(rng, samples, n):
    for _ in range(samples):
        yield dm.verify_symplectic(n, _random_generic_gamma(rng, n), h=1e-4).max_asymmetry


def _suite_dynamics(rng, samples, n):
    L = dm.reduced_length(n)
    h = 1e-6
    for _ in range(samples):
        x = float(rng.uniform(0.3, 4.0))
        w = rng.uniform(-0.4, 0.4, L)
        wt = rng.uniform(-1.0, 1.0, L)
        p = hf.PhasePoint(x=x, w=tuple(w), wt=tuple(wt))
        dw, dwt = hf.vector_field(p, n)
        for i, e in enumerate(np.eye(L) * h):   # w +- h in entry i
            hp, hm = (hf.hamiltonian(hf.PhasePoint(x=x, w=tuple(w + d), wt=tuple(wt)), n)
                      for d in (e, -e))
            yield abs(dwt[i] + (hp - hm) / (2 * h))
        lam = float(rng.uniform(0.5, 3.0))
        hq = hf.check_quasihomogeneity(p, lam, n)
        yield hq / (1.0 + abs(lam * hf.hamiltonian(p, n)))


# the gammas of the CI constant gate, also read by the fingerprint script
# and the tests; three have a(gamma) <= 0.35, near the domain floor 0.2
ACCEPTANCE_GAMMAS = ((0.3, 0.1), (0.9, -0.4), (0.0, 0.8), (-0.825, 0.075), (0.0, 0.0),
                     (-0.875, 0.4), (0.42223887, -0.69539036), (-0.88, 0.3))
# the separatrix suite's gamma0, up to the n = 1 domain floor a = 0.2
SEPARATRIX_GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _fixed_then_drawn(fixed, samples, draw):
    """The first `samples` of `fixed`, then draw() for the rest, so that a
    run of at most len(fixed) samples does not depend on the seed."""
    return [fixed[i] if i < len(fixed) else draw() for i in range(samples)]


def _suite_constant(rng, samples, n):
    if n != 3:
        raise ValueError(f"the constant suite takes n = 3, got n = {n}")
    for g in _fixed_then_drawn(ACCEPTANCE_GAMMAS, samples,
                               lambda: tuple(rng.uniform(-0.9, 0.9, 2))):
        try:
            yield tc.constant_numeric(g).abs_diff
        except (tc.BlowupError, dm.GenericityError, gs.GlobalSolveError):
            yield math.inf   # a typed failure fails the run, unsolved samples unread
            return


def _blow_sign(n, gamma0, rho0):
    """+1 or -1 as the run from the series seed at x0 = 1e-4 blows up to
    +inf or -inf, else 0."""
    seed = gs.init_from_asymptotics(dm.AsymptoticData(n, (gamma0,), (rho0,)), 1e-4)
    traj = hf.integrate(seed, 14.0, hf.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12), n)
    return int(np.sign(traj.ys[0, -1])) if traj.stop_reason == "blowup" else 0


def _separatrix_gap(n, gamma0):
    """|rho* - global_rho| for a one-entry chain, rho* bisected between runs
    that blow up to opposite signs; inf if no bracket is found.

    The bracket is global_rho +- h, h halved from 1 until the series has
    converged above x = 1e-8 at both ends (h = 0.25 at gamma0 = 0.9), down
    to h = 2^-10.  Runs at rel_tol 1e-10 leave about 5e-12 at n = 1."""
    closed, half = dm.global_rho(n, (gamma0,))[0], 1.0
    while True:
        lo, hi = closed - half, closed + half
        try:
            s_lo, s_hi = _blow_sign(n, gamma0, lo), _blow_sign(n, gamma0, hi)
            break
        except gs.GlobalSolveError:
            if half <= 2.0 ** -10:
                return math.inf
            half *= 0.5
    if s_lo == s_hi:
        return math.inf
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        s = _blow_sign(n, gamma0, mid)
        if s == 0:
            return abs(mid - closed)
        lo, hi = (mid, hi) if s == s_lo else (lo, mid)
    return abs(0.5 * (lo + hi) - closed)


def _suite_separatrix(rng, samples, n):
    if dm.reduced_length(n) != 1:
        raise ValueError(f"the separatrix suite takes n = 1 or 2, got n = {n}")
    for g in _fixed_then_drawn(SEPARATRIX_GAMMAS, samples,
                               lambda: float(rng.uniform(-0.9, 0.9))):
        yield _separatrix_gap(n, g)


# each suite's generator of residuals from (rng, samples, n) and its default
# threshold, which `ttstar constant` applies too; the worst constant over
# 1,129 seeded gammas is 3.4e-13
SUITES = {
    "specfun": (_suite_specfun, 1e-10),
    "genfun": (_suite_genfun, 1e-6),
    "symplectic": (_suite_symplectic, 1e-7),
    "dynamics": (_suite_dynamics, 1e-8),
    "constant": (_suite_constant, 1e-11),
    "separatrix": (_suite_separatrix, 1e-9),
}


def checked_threshold(suite: str, given: float | None = None) -> float:
    """`given`, else the default of `suite`, refused unless finite and
    non-negative: against NaN or a negative value every run would fail,
    and against inf a run whose every solve failed (read as inf) would
    pass."""
    value = SUITES[suite][1] if given is None else given
    if not 0.0 <= value < math.inf:
        raise ValueError(f"--threshold must be non-negative and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class VerifyReport:
    """One suite's run: its inputs, its largest residual and the threshold
    that residual was judged against."""

    suite: str
    n: int
    samples: int
    seed: int
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.threshold)


def run(suite: str, n: int, samples: int, seed: int,
        threshold: float | None = None) -> VerifyReport:
    """Run `suite` on `samples` samples drawn from numpy's `default_rng(seed)`
    and fold its residuals: the largest decides, a NaN counting as inf,
    since max() would drop it.  Raises ValueError for an unknown suite, n
    or samples below 1 (`ShapeError` for n, which specfun never reads) and
    a threshold that is NaN, negative or infinite, before any sample."""
    dm.reduced_length(n)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    thr = checked_threshold(suite, threshold)
    residuals = SUITES[suite][0](np.random.default_rng(seed), samples, n)
    worst = max(math.inf if math.isnan(r) else r for r in residuals)
    return VerifyReport(suite, n, samples, seed, worst, thr)
