import json
import math
import os
import subprocess
import sys
from dataclasses import asdict

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
from ttstar_toda.special_functions import log_gamma, psi_m2

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

    @pytest.mark.parametrize("cls, fields", [(AsymptoticData, ("gamma", "rho")),
                                             (MonodromyData, ("m", "log_e"))])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_records_refuse_non_finite_entries(self, cls, fields, bad):
        # a NaN rho mapped to a NaN log e without complaint; finite entries
        # whose sum overflows pass
        cls(3, **{f: (1e308, 1e308) for f in fields})
        for name in fields:
            values = {f: (0.1, 0.2) for f in fields}
            values[name] = (0.1, bad)
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cls(3, **values)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_reduced_length_refuses_a_non_integer(self, n):
        # 2.5 gave 1.0, and AsymptoticData(3.0, ...) failed later with a
        # bare TypeError from range
        with pytest.raises(ShapeError, match="positive integer"):
            reduced_length(n)
        with pytest.raises(ShapeError, match="positive integer"):
            AsymptoticData(n, (0.1, 0.2), (0.0, 0.0))

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_n_below_one_is_refused_before_any_arithmetic(self, n):
        # global_rho(-1, ...) took log(n + 1) first and raised a bare "math
        # domain error"; log_x_k(0, [], -1) divided by zero, and
        # log_x_k(0, [0.0], 0) returned 0.0
        with pytest.raises(ShapeError, match="positive integer"):
            global_rho(n, (0.1,))
        with pytest.raises(ShapeError, match="positive integer"):
            log_x_k(0, [0.0] * max(n + 1, 0), n)

    def test_unhashable_n_is_refused_before_the_chart_cache(self):
        # global_rho([3], ...) raised a bare "unhashable type: 'list'" from
        # the cache key of _chart
        with pytest.raises(ShapeError, match="positive integer"):
            global_rho([3], (0.1, 0.2))

    def test_reduced_length_takes_an_integer_type(self):
        assert reduced_length(np.int64(3)) == reduced_length(3) == 2
        assert AsymptoticData(np.int64(3), (0.1, 0.2), (0.0, 0.0)).gamma == (0.1, 0.2)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entries(self, bad):
        # a NaN rho gave NaN and an inf rho -inf; a NaN m surfaced as
        # psi_m2's DomainError about z
        with pytest.raises(ValueError, match="rho must be finite"):
            gen_fun_F(3, (bad, 0.0), (0.1, 0.1))
        with pytest.raises(ValueError, match="m must be finite"):
            gen_fun_F(3, (0.0, 0.0), (0.1, bad))

    @pytest.mark.parametrize("n, gamma, bits, distinct", [
        (3, (-0.825, 0.075), "0x1.2b7c09fc696a5p+4", 8),
        (5, (0.3, 0.1, -0.2), "0x1.0c3be4284648bp+6", 18),
        (5, (0.6, -0.35, 0.05), "0x1.0cd03c7fdf17cp+6", 18)])
    def test_each_distinct_argument_once(self, n, gamma, bits, distinct, monkeypatch):
        # the anti-symmetric extension repeats psi_m2 arguments (12 terms
        # for 8 distinct ones at n = 3, 30 for 18 at n = 5); the psi_m2
        # cache evaluates (misses) each distinct one once, and the sum adds
        # one term per (k, j) in order, so the value keeps its bits
        args = []
        psi_m2.cache_clear()
        monkeypatch.setattr(data_maps, "psi_m2", lambda z: args.append(z) or psi_m2(z))
        F = gen_fun_F(n, global_rho(n, gamma), tuple(-0.5 * g for g in gamma))
        assert F.hex() == bits
        assert len(args) == n * (n + 1)
        assert psi_m2.cache_info().misses == len(set(args)) == distinct


def gen_fun_F_loops(n, rho, m):
    """gen_fun_F of finite rho and m, with F's double sum as the plain
    loops over k and j, each term checked and then added in turn."""
    N, L = n + 1, reduced_length(n)
    mf = expand_reduced(n, m)
    acc = -sum(rho[i] * m[i] for i in range(L))
    acc += math.log(N) * sum(v * v for v in m)
    ssum = 0.0
    for k in range(N):
        for j in range(1, n + 1):
            arg = (mf[(k - j) % N] - mf[k] + j) / N
            if arg <= 0.0:
                raise GenericityError(
                    f"nonpositive psi_m2 argument {arg:.6g} at (k={k}, j={j}); "
                    "full m gaps must lie in (-1, 1)")
            ssum += psi_m2(arg)
    return acc + 0.5 * N * ssum


def log_ratios_loops(n, gamma):
    """R(gamma) as log X_{n-i} - log X_i of the public, looping log_x_k."""
    neg_full = [-v for v in expand_reduced(n, gamma)]
    return [log_x_k(n - i, neg_full, n) - log_x_k(i, neg_full, n)
            for i in range(reduced_length(n))]


def outcome(f, *args):
    """f(*args) as float.hex strings, or the type and message of its error."""
    try:
        v = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in (v if isinstance(v, list) else [v])]


def reduced_lists(data, n, lo, hi):
    L = reduced_length(n)
    return data.draw(st.lists(st.floats(lo, hi), min_size=L, max_size=L))


class TestStraightLineBodies:
    # gen_fun_F and _log_ratios run one body per n, generated as straight
    # lines (data_maps._compile); the loops over k and j are the reference,
    # bit for bit and error for error.  No benchmark compiles n = 7..9.

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_generic_values_keep_the_loops_bits(self, n, data):
        # |gamma_i| < 1 and |m_i| < 1/2 are generic at every n
        gamma = reduced_lists(data, n, -0.99, 0.99)
        m = reduced_lists(data, n, -0.49, 0.49)
        rho = reduced_lists(data, n, -5.0, 5.0)
        assert gen_fun_F(n, rho, m).hex() == gen_fun_F_loops(n, rho, m).hex()
        assert outcome(data_maps._log_ratios, n, gamma) == outcome(log_ratios_loops, n, gamma)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_wide_values_fail_as_the_loops_do(self, n, data):
        # most of these leave the domain: the same error, naming the same
        # first (k, j), or the same bits
        gamma = reduced_lists(data, n, -6.0, 6.0)
        m = reduced_lists(data, n, -3.0, 3.0)
        rho = reduced_lists(data, n, -5.0, 5.0)
        assert outcome(gen_fun_F, n, rho, m) == outcome(gen_fun_F_loops, n, rho, m)
        assert outcome(data_maps._log_ratios, n, gamma) == outcome(log_ratios_loops, n, gamma)

    @pytest.mark.parametrize("n, gamma, in_r, in_f", [
        (3, (1.5, -1.5), "-0.125 in X_k at (k=0, j=1)", "-0.125 at (k=1, j=1)"),
        (4, (0.1, 2.5), "-0.05 in X_k at (k=1, j=1)", "-0.05 at (k=2, j=1)"),
        (7, (0.0, 0.0, 0.0, 3.0), "-0.25 in X_k at (k=3, j=1)", "-0.25 at (k=4, j=1)")])
    def test_non_generic_names_the_first_bad_term(self, n, gamma, in_r, in_f):
        # R's first bad term comes after a whole product X_{n-i}, and F's
        # after its k = 0 terms: the first in the loops' order
        m, rho = [-0.5 * g for g in gamma], [0.0] * len(gamma)
        got_r = outcome(data_maps._log_ratios, n, gamma)
        got_f = outcome(gen_fun_F, n, rho, m)
        assert got_r == outcome(log_ratios_loops, n, gamma)
        assert got_f == outcome(gen_fun_F_loops, n, rho, m)
        assert got_r == (GenericityError, f"nonpositive Gamma argument {in_r}")
        assert got_f == (GenericityError, f"nonpositive psi_m2 argument {in_f}; "
                                          "full m gaps must lie in (-1, 1)")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_non_finite_input_raises_as_before(self, n, bad):
        # F refuses it by name; R meets it as the loops do, log_gamma's
        # DomainError or a nonpositive argument, whichever comes first
        for i in range(reduced_length(n)):
            values = [0.1] * reduced_length(n)
            values[i] = bad
            with pytest.raises(ValueError, match="m must be finite"):
                gen_fun_F(n, [0.0] * len(values), values)
            got = outcome(data_maps._log_ratios, n, values)
            assert got == outcome(log_ratios_loops, n, values)
            assert issubclass(got[0], ValueError)

    def test_an_np_int64_n_gets_the_int_bodies(self):
        # the bodies are generated for n as a plain int, so an np.int64 n
        # compiles no body of its own and keeps the bits of the int n
        def values(n):
            data_maps._chart.cache_clear()
            md = data_maps.asymptotic_to_monodromy(AsymptoticData(n, (0.3, 0.1), (0.2, -0.4)))
            return [v.hex() for v in (*md.log_e, *data_maps.global_rho(n, (0.3, 0.1)),
                                      gen_fun_F(n, (0.2, -0.4), (-0.15, -0.05)))]

        data_maps._f_body.cache_clear()
        data_maps._r_body.cache_clear()
        assert values(np.int64(3)) == values(3)
        assert data_maps._f_body.cache_info().currsize == 1
        assert data_maps._r_body.cache_info().currsize == 1

    def test_nothing_is_compiled_at_import(self):
        src = os.path.dirname(os.path.dirname(data_maps.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); from ttstar_toda import data_maps; "
                "print(data_maps._f_body.cache_info().currsize, "
                "data_maps._r_body.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["0", "0"]


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

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, h):
        # h = 0 raised a bare ZeroDivisionError, and h < 0 ran with a
        # negative genericity margin 4h + 1e-9
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            verify_generating_function(3, (0.3, 0.1), h=h)
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            verify_symplectic(3, (0.3, 0.1), h=h)

    def test_symplectic_margin_error(self):
        with pytest.raises(ValueError, match="margin"):
            verify_symplectic(3, (0.999, 0.0), h=1e-3)

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

    def test_symplectic_reports_a_nan_entry(self, monkeypatch):
        # max() dropped a NaN that was not first: with the second log ratio
        # NaN the check reported max_asymmetry 0.0
        log_ratios = data_maps._log_ratios
        monkeypatch.setattr(data_maps, "_log_ratios",
                            lambda n, gamma: [log_ratios(n, gamma)[0], math.nan])
        rep = verify_symplectic(3, (0.2, -0.1))
        assert math.isnan(rep.matrix[1][0]) and math.isnan(rep.max_asymmetry)

    def test_generating_function_reports_a_nan_residual(self, monkeypatch):
        # F NaN wherever m_1 is moved makes the second residual NaN, which
        # max() dropped: the report carried the first residual
        gen_fun = data_maps.gen_fun_F
        m1 = -0.5 * -0.1
        monkeypatch.setattr(data_maps, "gen_fun_F", lambda n, rho, m: (
            gen_fun(n, rho, m) if m[1] == m1 else math.nan))
        rep = verify_generating_function(3, (0.2, -0.1))
        assert not math.isnan(rep.residuals[0]) and math.isnan(rep.residuals[1])
        assert math.isnan(rep.max_residual)

    @pytest.mark.parametrize("gamma", [(0.31, 0.12, -0.27), (0.2, -0.1, 0.05)])
    def test_symplectic_evaluates_each_log_gamma_argument_once(self, gamma, monkeypatch):
        # its 2L Gamma-product passes at gamma +- h e_j share most arguments;
        # the log_gamma cache evaluates (misses) each distinct one once
        args = []
        log_gamma.cache_clear()
        monkeypatch.setattr(data_maps, "log_gamma", lambda z: args.append(z) or log_gamma(z))
        verify_symplectic(5, gamma)
        info = log_gamma.cache_info()
        assert len(set(args)) < len(args)
        assert (info.misses, info.currsize) == (len(set(args)), len(set(args)))
        assert info.hits == len(args) - len(set(args))

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


def log_ratio(n, gamma, i):
    """log X_{n-i} - log X_i on the negated full extension of gamma, for one
    i, with each X_k a loop over j as in the module docstring's formula."""
    v, N = [-x for x in expand_reduced(n, gamma)], n + 1

    def log_x(k):
        acc = 0.0
        for j in range(1, N):
            acc += log_gamma((v[k % N] - v[(k + j) % N] + 2.0 * j) / (2.0 * N))
        return acc

    return log_x(n - i) - log_x(i)


class TestOnePassOracles:
    # one Gamma-product pass for all i, and the residuals as central
    # differences of gen_fun_F, against the per-i and per-call forms, bit
    # for bit
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_maps_equal_per_i_ratios(self, n):
        rng = np.random.default_rng(900 + n)
        L, ln_np1 = reduced_length(n), math.log(n + 1)
        for _ in range(30):
            g = random_generic(rng, n, scale=0.45, margin=5e-3)
            rho = tuple(rng.uniform(-1.0, 1.0, L))
            ratios = [log_ratio(n, g, i) for i in range(L)]
            log_e = asymptotic_to_monodromy(AsymptoticData(n, g, rho)).log_e
            back = monodromy_to_asymptotic(MonodromyData(n, tuple(-0.5 * v for v in g), log_e))
            for i in range(L):
                assert global_rho(n, g)[i].hex() == (-g[i] * ln_np1 - ratios[i]).hex()
                assert log_e[i].hex() == (rho[i] + g[i] * ln_np1 + ratios[i]).hex()
                assert back.rho[i].hex() == (log_e[i] - back.gamma[i] * ln_np1
                                             - log_ratio(n, back.gamma, i)).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_residuals_are_central_differences(self, n):
        rng = np.random.default_rng(950 + n)
        L, h = reduced_length(n), 1e-4
        for _ in range(10):
            g = random_generic(rng, n, scale=0.45, margin=5e-3)
            rho = tuple(rng.uniform(-1.0, 1.0, L))
            m = [-0.5 * v for v in g]
            log_e = asymptotic_to_monodromy(AsymptoticData(n, g, rho)).log_e
            expected = []
            for i in range(L):
                mp = list(m); mp[i] += h
                mm = list(m); mm[i] -= h
                dF = (gen_fun_F(n, rho, mp) - gen_fun_F(n, rho, mm)) / (2.0 * h)
                expected.append(abs(dF + log_e[i]).hex())
            rep = verify_generating_function(n, g, rho, h=h)
            assert [r.hex() for r in rep.residuals] == expected


class TestJson:
    # the CLI writes the records as dataclasses.asdict gives them
    def test_asymptotic_roundtrip_and_order(self):
        a = AsymptoticData(3, (0.3, 0.1), (0.5, -0.2))
        d = asdict(a)
        assert list(d.keys()) == ["n", "gamma", "rho"]
        assert AsymptoticData(**json.loads(json.dumps(d))) == a

    def test_monodromy_roundtrip_and_order(self):
        md = MonodromyData(4, (0.1, 0.2), (0.0, -0.3))
        d = asdict(md)
        assert list(d.keys()) == ["n", "m", "log_e"]
        assert MonodromyData(**json.loads(json.dumps(d))) == md


class TestChartCache:
    # R(gamma) is evaluated once per (n, gamma) by the cached _chart

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cached_equals_uncached(self, n):
        rng = np.random.default_rng(970 + n)
        for _ in range(20):
            g = tuple(map(float, random_generic(rng, n, scale=0.45, margin=5e-3)))
            cached = [v.hex() for v in data_maps._chart(n, g, log_gamma)]
            assert [v.hex() for v in data_maps._chart(n, g, log_gamma)] == cached
            assert [v.hex() for v in data_maps._chart.__wrapped__(n, g, log_gamma)] == cached

    @pytest.mark.parametrize("n, gamma, error", [(3, (1.9, 0.0), GenericityError),
                                                 (3, (0.1, math.nan), GenericityError),
                                                 (3, (0.1,), ShapeError)])
    def test_errors_are_raised_every_time_and_never_stored(self, n, gamma, error):
        size = data_maps._chart.cache_info().currsize
        for _ in range(2):
            with pytest.raises(error):
                global_rho(n, gamma)
            with pytest.raises(error):
                data_maps._chart(n, gamma, log_gamma)
        assert data_maps._chart.cache_info().currsize == size

    def test_equal_gammas_share_one_entry(self):
        data_maps._chart.cache_clear()
        forms = [[0.25, -0.0], (0.25, 0.0), (np.float64(0.25), np.float64(0.0)),
                 np.array([0.25, -0.0])]
        bits = {tuple(v.hex() for v in global_rho(3, g)) for g in forms}
        info = data_maps._chart.cache_info()
        assert len(bits) == 1
        assert (info.currsize, info.misses, info.hits) == (1, 1, len(forms) - 1)

    def test_maps_share_one_entry(self):
        data_maps._chart.cache_clear()
        g, rho = (0.3, -0.1, 0.05), (0.2, 0.1, -0.3)
        md = asymptotic_to_monodromy(AsymptoticData(5, g, rho))
        monodromy_to_asymptotic(md)
        global_rho(5, g)
        verify_generating_function(5, g, rho)
        assert data_maps._chart.cache_info().currsize == 1

    def test_a_rebound_log_gamma_sees_every_evaluation(self, monkeypatch):
        # a tracer wraps data_maps.log_gamma and counts its calls: it must
        # see R evaluated under it, whatever the cache held before, and a
        # repeat under it reads the entry made under it
        g = (0.3, -0.1, 0.05)
        rho = global_rho(5, g)
        args = []
        monkeypatch.setattr(data_maps, "log_gamma", lambda z: args.append(z) or log_gamma(z))
        assert global_rho(5, g) == rho and len(args) == 30
        assert global_rho(5, g) == rho and len(args) == 30

    def test_symplectic_check_stores_nothing(self):
        data_maps._chart.cache_clear()
        verify_symplectic(5, (0.3, -0.1, 0.05))
        assert data_maps._chart.cache_info().currsize == 0
