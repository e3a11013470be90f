import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar_toda.special_functions import (_SERIES_TAIL, DomainError, _zeta_int,
                                           log_barnes_g, log_gamma, psi_m2,
                                           psi_m2_oracle)

LN_2PI = math.log(2.0 * math.pi)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
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
