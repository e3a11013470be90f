import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar_toda import data_maps
from ttstar_toda.data_maps import (AsymptoticData, GenericityError,
                                   MonodromyData, ShapeError,
                                   asymptotic_to_monodromy, check_genericity,
                                   expand_full, expand_reduced, gen_fun_F,
                                   global_rho, log_x_k, monodromy_to_asymptotic,
                                   reduced_length, verify_generating_function,
                                   verify_symplectic)
from ttstar_toda.special_functions import psi_m2

EULER_GAMMA = float(np.euler_gamma)
LN2 = math.log(2.0)


def random_generic(rng, n, scale=0.4, margin=1e-3):
    L = reduced_length(n)
    while True:
        g = tuple(rng.uniform(-scale, scale, L))
        try:
            check_genericity(n, g, margin=margin)
            return g
        except GenericityError:
            continue


class TestExpand:
    def test_odd(self):
        assert expand_reduced(3, (1.0, 2.0)) == [1.0, 2.0, -2.0, -1.0]

    def test_even(self):
        assert expand_reduced(2, (1.5,)) == [1.5, 0.0, -1.5]

    def test_n1(self):
        assert expand_reduced(1, (0.0,)) == [0.0, 0.0]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            expand_reduced(3, (1.0,))

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.floats(-5, 5), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry_closure(self, n, vals):
        L = reduced_length(n)
        if len(vals) != L:
            vals = (vals * L)[:L]
        full = expand_reduced(n, vals)
        assert len(full) == n + 1
        for i in range(n + 1):
            assert full[i] + full[(n - i) % (n + 1)] == 0.0

    def test_expand_full_dispatch(self):
        a = AsymptoticData(3, (0.1, 0.2), (0.3, 0.4))
        fg, fr = expand_full(a)
        assert fg == [0.1, 0.2, -0.2, -0.1]
        assert fr == [0.3, 0.4, -0.4, -0.3]
        md = MonodromyData(2, (0.5,), (0.1,))
        fm, fe = expand_full(md)
        assert fm == [0.5, 0.0, -0.5]
        assert fe == [0.1, 0.0, -0.1]


class TestXk:
    def test_symmetric_zero_n1(self):
        assert math.exp(log_x_k(0, [0.0, 0.0], 1)) == pytest.approx(math.sqrt(math.pi),
                                                                    rel=1e-13)

    def test_n1_half(self):
        val = math.exp(log_x_k(0, [0.5, -0.5], 1))
        assert val == pytest.approx(math.exp(math.lgamma(0.75)), rel=1e-13)

    def test_n3_zero_product(self):
        # Gamma(1/4) Gamma(1/2) Gamma(3/4) = sqrt(2) pi^(3/2)
        ref = math.sqrt(2.0) * math.pi ** 1.5
        for k in range(4):
            assert math.exp(log_x_k(k, [0.0] * 4, 3)) == pytest.approx(ref, rel=1e-13)

    def test_nonpositive_argument_named(self):
        # force gamma_k - gamma_{k+1} + 2 <= 0
        with pytest.raises(GenericityError, match=r"\(k=0, j=1\)"):
            log_x_k(0, [-1.5, 1.5, -1.5, 1.5], 3)


class TestGenericity:
    def test_ok(self):
        check_genericity(3, (0.3, 0.1))

    def test_violation_names_gap(self):
        with pytest.raises(GenericityError, match="gap"):
            check_genericity(3, (1.9, 0.0))

    def test_wrap_gap(self):
        # the periodic wrap contributes the gap 2*gamma_0
        with pytest.raises(GenericityError):
            check_genericity(3, (1.05, 0.0))


class TestDataMaps:
    def test_trivial(self):
        md = asymptotic_to_monodromy(AsymptoticData(3, (0.0, 0.0), (0.0, 0.0)))
        assert md.m == (0.0, 0.0)
        assert md.log_e == (0.0, 0.0)

    def test_m_is_minus_half_gamma(self):
        md = asymptotic_to_monodromy(AsymptoticData(3, (0.3, 0.1), (0.0, 0.0)))
        assert md.m == pytest.approx((-0.15, -0.05), abs=0)

    def test_global_rho_gives_zero_log_e(self):
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            for _ in range(20):
                g = random_generic(rng, n)
                rho = global_rho(n, g)
                md = asymptotic_to_monodromy(AsymptoticData(n, g, tuple(rho)))
                assert max(abs(v) for v in md.log_e) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(50):
                g = random_generic(rng, n)
                rho = tuple(rng.uniform(-1.0, 1.0, reduced_length(n)))
                a = AsymptoticData(n, g, rho)
                back = monodromy_to_asymptotic(asymptotic_to_monodromy(a))
                assert back.gamma == pytest.approx(a.gamma, abs=1e-12)
                assert back.rho == pytest.approx(a.rho, abs=1e-12)

    def test_log_e_gamma_product_structure(self):
        # at n=3 the charge factor is gamma_i log 4 = 2 gamma_i log 2 and
        # the Gamma products are evaluated on the negated full extension
        g = (0.3, 0.1)
        md = asymptotic_to_monodromy(AsymptoticData(3, g, (0.0, 0.0)))
        neg = [-v for v in expand_reduced(3, g)]
        for i in range(2):
            ref = (2.0 * g[i] * LN2
                   + log_x_k(3 - i, neg, 3) - log_x_k(i, neg, 3))
            assert md.log_e[i] == pytest.approx(ref, abs=1e-14)

    def test_global_rho_zero(self):
        for n in (1, 2, 3, 4, 5, 6):
            assert max(abs(v) for v in global_rho(n, (0.0,) * reduced_length(n))) == 0.0

    def test_global_rho_n1_value(self):
        # Gamma-product form at gamma0 = 0.5
        ref = (-0.5 * math.log(2.0) + math.lgamma(0.25) - math.lgamma(0.75))
        assert global_rho(1, (0.5,))[0] == pytest.approx(ref, rel=1e-13)

    def test_monodromy_to_asymptotic_n1(self):
        md = MonodromyData(1, (-0.25,), (0.0,))
        a = monodromy_to_asymptotic(md)
        assert a.gamma[0] == pytest.approx(0.5, abs=0)
        assert a.rho[0] == pytest.approx(global_rho(1, (0.5,))[0], abs=1e-14)


class TestGlobalRhoOracles:
    def test_psi_gradient_oracle(self):
        # independent route: rho_i = -log(n+1) gamma_i + dK/dm_i with K the
        # psi_m2 double sum, differentiated numerically
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4, 5, 6):
            g = random_generic(rng, n, scale=0.35)
            L = reduced_length(n)
            m = [-0.5 * v for v in g]
            N = n + 1

            def K(mr):
                mf = expand_reduced(n, mr)
                return 0.5 * N * sum(
                    psi_m2((mf[(k - j) % N] - mf[k] + j) / N)
                    for k in range(N) for j in range(1, n + 1))

            h = 1e-5
            rho_formula = global_rho(n, g)
            for i in range(L):
                mp = list(m); mp[i] += h
                mm = list(m); mm[i] -= h
                dk = (K(mp) - K(mm)) / (2 * h)
                oracle = -math.log(N) * g[i] + dk
                assert rho_formula[i] == pytest.approx(oracle, abs=2e-8)

    def test_linearization_oracle_n3(self):
        # d rho*/d gamma at 0 equals euler_gamma*I + log2 * [[3/4,-1/4],[-1/4,3/4]],
        # the value forced by matching the decaying Bessel modes of the
        # linearized chain as gamma -> 0
        h = 1e-5
        J = np.zeros((2, 2))
        for j in range(2):
            gp = [0.0, 0.0]; gp[j] += h
            gm = [0.0, 0.0]; gm[j] -= h
            rp = np.array(global_rho(3, gp))
            rm = np.array(global_rho(3, gm))
            J[:, j] = (rp - rm) / (2 * h)
        expected = EULER_GAMMA * np.eye(2) + LN2 * np.array([[0.75, -0.25],
                                                             [-0.25, 0.75]])
        assert np.max(np.abs(J - expected)) <= 1e-9


class TestGeneratingFunction:
    def test_zero_point_n3(self):
        ref = 8.0 * (psi_m2(0.25) + psi_m2(0.5) + psi_m2(0.75))
        assert gen_fun_F(3, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(ref, rel=1e-14)

    def test_hand_expansion_n1(self):
        # quadratic coefficient is log(n+1) = log 2 at n = 1
        got = gen_fun_F(1, (1.0,), (0.1,))
        ref = -0.1 + math.log(2.0) * 0.01 + psi_m2(0.4) + psi_m2(0.6)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_dF_drho_is_minus_m(self):
        # exactly linear in rho
        for rho0 in (-0.7, 0.0, 1.3):
            f1 = gen_fun_F(3, (rho0 + 1e-3, 0.2), (0.1, -0.05))
            f0 = gen_fun_F(3, (rho0 - 1e-3, 0.2), (0.1, -0.05))
            assert (f1 - f0) / 2e-3 == pytest.approx(-0.1, abs=5e-12)

    def test_domain_error(self):
        with pytest.raises(GenericityError):
            gen_fun_F(3, (0.0, 0.0), (0.9, -0.9))

    @pytest.mark.parametrize("n, gamma, bits, calls", [
        (3, (-0.825, 0.075), "0x1.2b7c09fc696a5p+4", 8),
        (5, (0.3, 0.1, -0.2), "0x1.0c3be4284648bp+6", 18),
        (5, (0.6, -0.35, 0.05), "0x1.0cd03c7fdf17cp+6", 18)])
    def test_each_distinct_argument_once(self, n, gamma, bits, calls, monkeypatch):
        # the anti-symmetric extension repeats psi_m2 arguments (12 terms
        # for 8 distinct ones at n = 3, 30 for 18 at n = 5); each is
        # evaluated once, and the sum keeps its order, so the value keeps
        # the bits it had with one call per term
        args = []
        monkeypatch.setattr(data_maps, "psi_m2", lambda z: args.append(z) or psi_m2(z))
        F = gen_fun_F(n, global_rho(n, gamma), tuple(-0.5 * g for g in gamma))
        assert F.hex() == bits
        assert len(args) == len(set(args)) == calls


class TestVerifyOps:
    def test_genfun_residual_samples(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 4, 5):
            for _ in range(10):
                g = random_generic(rng, n, margin=0.01)
                rho = tuple(rng.uniform(-0.5, 0.5, reduced_length(n)))
                rep = verify_generating_function(n, g, rho, h=1e-4)
                assert rep.max_residual <= 1e-6

    def test_genfun_trivial(self):
        # both sides vanish at the symmetric point; what remains is pure
        # central-difference truncation ~ C h^2 bottoming out against the
        # ~1e-15 rounding of each psi_m2 term near h ~ 1e-5
        rep = verify_generating_function(3, (0.0, 0.0), (0.0, 0.0), h=1e-5)
        assert rep.max_residual <= 1e-9
        rep4 = verify_generating_function(3, (0.0, 0.0), (0.0, 0.0), h=1e-4)
        assert rep4.max_residual <= 1e-8

    def test_genfun_margin_error(self):
        with pytest.raises(ValueError, match="margin"):
            verify_generating_function(3, (0.999, 0.0), h=1e-3)

    def test_symplectic_n1_exact(self):
        rep = verify_symplectic(1, (0.4,))
        assert rep.max_asymmetry <= 1e-12

    def test_symplectic_samples(self):
        rng = np.random.default_rng(23)
        for n in (3, 5):
            for _ in range(10):
                g = random_generic(rng, n, margin=0.01)
                rep = verify_symplectic(n, g, h=1e-4)
                assert rep.max_asymmetry <= 1e-7

    @pytest.mark.parametrize("n, gamma", [(3, (0.3, 0.1)), (5, (0.2, -0.1, 0.15))])
    def test_symplectic_matrix_is_the_central_difference(self, n, gamma):
        # each entry, bit for bit, as a central difference of its own
        h = 1e-4

        def g_i(gm, i):
            full = expand_reduced(n, gm)
            return log_x_k(n - i, full, n) - log_x_k(i, full, n)

        L = reduced_length(n)
        expected = []
        for i in range(L):
            row = []
            for j in range(L):
                gp = list(gamma); gp[j] += h
                gm = list(gamma); gm[j] -= h
                row.append((g_i(gp, i) - g_i(gm, i)) / (2.0 * h))
            expected.append(tuple(row))
        assert verify_symplectic(n, gamma, h=h).matrix == tuple(expected)

    def test_global_rho_pinned_bits(self):
        # global_rho reads only log_gamma; pinning its bits pins every
        # shooting seed, and so every c_numeric, against changes elsewhere
        # in the special functions
        recorded = {(0.3, 0.1): ("0x1.22e967e3845d9p-2", "0x1.dea1e88461c44p-5"),
                    (0.9, -0.4): ("0x1.3c46ecd5d9943p+0", "-0x1.d93062d39fc97p-1"),
                    (0.0, 0.8): ("-0x1.3c7df901729c0p-4", "0x1.9e483e26c18a1p+0")}
        for gamma, bits in recorded.items():
            assert tuple(v.hex() for v in global_rho(3, gamma)) == bits


class TestJson:
    def test_asymptotic_roundtrip_and_order(self):
        a = AsymptoticData(3, (0.3, 0.1), (0.5, -0.2))
        d = a.to_json_dict()
        assert list(d.keys()) == ["n", "gamma", "rho"]
        assert AsymptoticData.from_json_dict(d) == a

    def test_monodromy_roundtrip_and_order(self):
        md = MonodromyData(4, (0.1, 0.2), (0.0, -0.3))
        d = md.to_json_dict()
        assert list(d.keys()) == ["n", "m", "log_e"]
        assert MonodromyData.from_json_dict(d) == md
