import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar_toda import special_functions
from ttstar_toda.special_functions import (_LANCZOS_C, _SERIES_TAIL, _SERIES_Y1,
                                           _SERIES_Y2, DomainError,
                                           _gauss_legendre, _zeta_int, log_barnes_g, log_gamma, psi_m2,
                                           psi_m2_oracle)

LN_2PI = math.log(2.0 * math.pi)


def log_gamma_loops(z):
    """log Gamma as the Lanczos sum over the coefficients in a loop, and
    z < 1/2 by the downward recursion; `log_gamma` writes both out."""
    if z < 0.5:
        return log_gamma_loops(z + 1.0) - math.log(z)
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z - 1.0 + i)
    t = z + 7.0 - 0.5
    return 0.5 * special_functions.LN_2PI + (z - 0.5) * math.log(t) - t + math.log(acc)


def log_barnes_g_series_loops(y):
    """log G(1+y), |y| <= 1/2, with the Horner sum over `_SERIES_TAIL` as a
    loop; `_log_barnes_g_series` is generated from the same coefficients."""
    tail = 0.0
    for c in _SERIES_TAIL:
        tail = tail * y + c
    return (y * (_SERIES_Y1 + _SERIES_Y2 * y) + math.log1p(y) + 2.0 * math.log1p(0.5 * y)
            + tail * y * y * y)


def _log_gamma_lanczos(z):
    """log_gamma's Lanczos sum, uncached."""
    return log_gamma.__wrapped__(z)


def _psi_m2_closed(z):
    """psi_m2's closed form, uncached (its log Gamma reads stay cached)."""
    return psi_m2.__wrapped__(z)


@pytest.fixture
def cold_caches():
    """Empty log_gamma and psi_m2 caches for one test, emptied again after
    it so that nothing it stored outlives it."""
    log_gamma.cache_clear()
    psi_m2.cache_clear()
    yield
    log_gamma.cache_clear()
    psi_m2.cache_clear()


class TestLoopOracles:
    # the loop-free log Gamma and series against their loop versions, bit
    # for bit, also inside log_barnes_g and psi_m2; each value is read once
    # evaluated and once from the warm cache
    def test_log_gamma(self):
        zs = np.random.default_rng(801).uniform(0.0, 50.0, 10_000)
        for z in [*zs.tolist(), 0.5, 1.0, 2.0, 50.0, 0.49999999999999994, 5e-324]:
            assert log_gamma(z).hex() == log_gamma(z).hex() == log_gamma_loops(z).hex()

    def test_barnes_and_psi(self, cold_caches, monkeypatch):
        zs = np.random.default_rng(802).uniform(0.0, 3.0, 10_000).tolist()
        zs += [0.5, 1.0, 1.5, 2.5, 3.0, 1.5000000000000002]
        fast = [(log_barnes_g(z), psi_m2(z), psi_m2(z)) for z in zs]
        # the loops evaluate afresh: psi_m2 must not answer from the fast
        # run, and what the loops store is cleared after the test
        psi_m2.cache_clear()
        monkeypatch.setattr(special_functions, "log_gamma", log_gamma_loops)
        monkeypatch.setattr(special_functions, "_log_barnes_g_series",
                            log_barnes_g_series_loops)
        for z, (g, p, p_warm) in zip(zs, fast):
            assert (g.hex(), p.hex(), p_warm.hex()) == (
                log_barnes_g(z).hex(), psi_m2(z).hex(), psi_m2(z).hex())
        assert psi_m2.cache_info().misses == len(set(zs))


class TestMemo:
    # log_gamma and psi_m2 are functools.lru_cache'd; `__wrapped__` is the
    # uncached evaluation
    @pytest.mark.parametrize("f", [log_gamma, psi_m2])
    def test_repeated_call_same_bits(self, cold_caches, f):
        # a hit returns the stored object
        for z in (0.3, 1.0, 1.7, 2.5):
            first = f(z)
            assert f(z) is first
        assert f.cache_info()[:2] == (4, 4)   # hits, misses

    @pytest.mark.parametrize("f, evaluate", [(log_gamma, _log_gamma_lanczos),
                                             (psi_m2, _psi_m2_closed)])
    @pytest.mark.parametrize("z, as_float", [(2, 2.0), (np.float64(0.3), 0.3),
                                             ("0.3", 0.3), ("1.7", 1.7)])
    def test_inputs_give_the_floats_bits(self, cold_caches, f, evaluate, z, as_float):
        # a miss and then a hit, each with the bits of the float's evaluation
        ref = evaluate(as_float).hex()
        assert f(z).hex() == f(z).hex() == f(as_float).hex() == ref

    @pytest.mark.parametrize("f", [log_gamma, psi_m2])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors_are_never_stored(self, cold_caches, f, bad):
        for _ in range(2):
            with pytest.raises(DomainError):
                f(bad)
        assert f.cache_info().misses == 2
        assert log_gamma.cache_info().currsize == psi_m2.cache_info().currsize == 0

    @pytest.mark.parametrize("f", [log_gamma, psi_m2])
    def test_unhashable_argument_raises_type_error(self, cold_caches, f):
        # the cache key is the argument as given
        with pytest.raises(TypeError):
            f(np.array(0.3))

    def test_evaluations_are_misses(self, cold_caches):
        zs = [0.25, 1.5, 0.25, 2.75, 1.5, 0.25]
        for z in zs:
            log_gamma(z)
        assert log_gamma.cache_info()[:2] == (3, 3)   # hits, misses
        assert log_gamma.cache_info().currsize == 3

    def test_psi_m2_and_barnes_g_share_the_log_gamma_cache(self, cold_caches):
        # psi_m2(1.75) reads log Gamma at 1.75, and at 0.75 through
        # log G(1.75); log G(2.75) reads both again, from the cache
        psi_m2(1.75)
        assert log_gamma.cache_info()[:2] == (0, 2)
        log_barnes_g(2.75)
        assert log_gamma.cache_info()[:2] == (2, 2)

    def test_bounded(self, cold_caches):
        size = special_functions._CACHE_SIZE
        for z in np.linspace(0.001, 3.0, size + 100):
            log_gamma(z)
            psi_m2(z)
        for f in (log_gamma, psi_m2):
            assert f.cache_info().maxsize == size
            assert f.cache_info().currsize == size


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=5e-15)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=5e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_accuracy_against_libm(self):
        # relative to max(1, |ln Gamma|): the function crosses zero at 1 and 2
        zs = np.concatenate([np.linspace(0.01, 0.5, 40),
                             np.linspace(0.5, 50.0, 300)])
        for z in zs:
            ref = math.lgamma(z)
            assert abs(log_gamma(float(z)) - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        # inf once reached the Lanczos body, which returned inf - inf = nan
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestZeta:
    def test_even_values(self):
        assert _zeta_int(2) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        assert _zeta_int(4) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-15)
        assert _zeta_int(6) == pytest.approx(math.pi ** 6 / 945.0, rel=1e-14)


class TestBarnesG:
    def test_series_tail_is_short_enough(self):
        # Horner coefficients of y^26 .. y^3, highest first: the highest
        # term is below 1e-18 on |y| <= 1/2 (test_oracles checks the values)
        K = len(_SERIES_TAIL)
        assert K == 24
        assert abs(_SERIES_TAIL[0]) * 0.5 ** (K + 2) < 1e-18

    def test_known_zeros(self):
        for z in (1.0, 2.0, 3.0):
            assert log_barnes_g(z) == pytest.approx(0.0, abs=1e-14)

    def test_recursion_grid(self):
        rng = np.random.default_rng(42)
        for z in rng.uniform(0.05, 2.5, 100):
            lhs = log_barnes_g(1.0 + z)
            rhs = log_gamma(z) + log_barnes_g(z)
            assert abs(lhs - rhs) <= 1e-12

    @given(st.floats(min_value=0.05, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_recursion_property(self, z):
        assert abs(log_barnes_g(1.0 + z) - (log_gamma(z) + log_barnes_g(z))) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -0.3, 4.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_barnes_g(bad)


class TestPsiM2:
    def test_at_one(self):
        # closed form reduces to log(2 pi)/2 there
        assert psi_m2(1.0) == pytest.approx(0.5 * LN_2PI, rel=1e-14)

    def test_at_two(self):
        assert psi_m2(2.0) == pytest.approx(LN_2PI - 1.0, rel=1e-13)

    def test_small_z_limit(self):
        # integral over a shrinking interval: z(1 - log z) scale
        for z in (1e-4, 1e-6, 1e-8):
            assert abs(psi_m2(z)) <= 2.0 * z * (1.0 - math.log(z))
        assert psi_m2(1e-8) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_on_2_3(self):
        # the integrand log Gamma is positive only past z = 2, so psi_m2
        # decreases on (1, 2) (its own values at 1 and 2 show it) and
        # increases strictly on [2, 3]
        zs = np.linspace(2.0, 3.0, 21)
        vals = [psi_m2(float(z)) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert psi_m2(2.0) < psi_m2(1.0)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(7)
        for z in rng.uniform(0.01, 2.0, 50):
            assert abs(psi_m2(float(z)) - psi_m2_oracle(float(z))) <= 1e-10

    def test_oracle_values(self):
        assert psi_m2_oracle(1.0) == pytest.approx(0.5 * LN_2PI, abs=1e-11)
        assert psi_m2_oracle(0.5) == pytest.approx(psi_m2(0.5), abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 3.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            psi_m2(bad)
        with pytest.raises(DomainError):
            psi_m2_oracle(bad)


class TestGaussLegendre:
    @pytest.mark.parametrize("k", [6, 7, 15])
    def test_rules_are_leggauss_read_only(self, k):
        nodes, weights = _gauss_legendre(k)
        ref = np.polynomial.legendre.leggauss(k)
        assert nodes.tobytes() == ref[0].tobytes() and weights.tobytes() == ref[1].tobytes()
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert _gauss_legendre(k)[0] is nodes

    def test_import_loads_no_numpy_polynomial(self):
        # the rules are built on first use, so the package's import leaves
        # numpy.polynomial unloaded
        src = os.path.dirname(os.path.dirname(special_functions.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import ttstar_toda, ttstar_toda.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"
