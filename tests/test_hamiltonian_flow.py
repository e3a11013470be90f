import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar_toda import hamiltonian_flow
from ttstar_toda.data_maps import AsymptoticData, global_rho, reduced_length
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, PhasePoint,
                                          UnsupportedConfigError,
                                          check_quasihomogeneity, hamiltonian,
                                          init_from_asymptotics, integrate,
                                          reg_density, tail_amplitude_s1,
                                          trajectory_to_csv, vector_field)

SQ8 = 2.0 * math.sqrt(2.0)


def rand_point(rng, n, wscale=0.4):
    L = reduced_length(n)
    return PhasePoint(x=float(rng.uniform(0.2, 4.0)),
                      w=tuple(rng.uniform(-wscale, wscale, L)),
                      wt=tuple(rng.uniform(-1.0, 1.0, L)))


class TestHamiltonian:
    def test_n3_origin(self):
        p = PhasePoint(x=1.0, w=(0.0, 0.0), wt=(0.0, 0.0))
        assert hamiltonian(p, 3) == -2.0

    def test_n1_value(self):
        p = PhasePoint(x=2.0, w=(0.0,), wt=(1.0,))
        assert hamiltonian(p, 1) == pytest.approx(0.25 - 2.0, rel=1e-15)

    def test_n3_generic_value(self):
        p = PhasePoint(x=1.0, w=(0.1, -0.2), wt=(0.3, 0.4))
        ref = (0.09 + 0.16) / 2 - math.exp(-0.6) - 0.5 * (math.exp(0.8) + math.exp(0.4))
        assert hamiltonian(p, 3) == pytest.approx(ref, rel=1e-15)

    def test_even_n_gated(self):
        p = PhasePoint(x=1.0, w=(0.1,), wt=(0.0,))
        with pytest.raises(UnsupportedConfigError):
            hamiltonian(p, 2)
        assert hamiltonian(p, 2, even_variant=True) == pytest.approx(
            -math.exp(-0.2) - 0.5 * math.exp(0.4), rel=1e-15)

    def test_reg_density_trivial_background(self):
        # H + 2x vanishes on the trivial n=3 solution without cancellation
        assert reg_density(3.0, np.zeros(4), 3) == 0.0


class TestVectorField:
    def test_equilibrium(self):
        p = PhasePoint(x=1.0, w=(0.0, 0.0), wt=(0.0, 0.0))
        dw, dwt = vector_field(p, 3)
        assert dw == (0.0, 0.0)
        assert dwt == (0.0, 0.0)

    def test_n1_sinh_value(self):
        p = PhasePoint(x=1.0, w=(0.1,), wt=(0.0,))
        _dw, dwt = vector_field(p, 1)
        assert dwt[0] == pytest.approx(-2.0 * (math.exp(-0.4) - math.exp(0.4)),
                                       rel=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_gradient_consistency(self, n):
        rng = np.random.default_rng(100 + n)
        L = reduced_length(n)
        h = 3e-6
        for _ in range(100):
            p = rand_point(rng, n)
            dw, dwt = vector_field(p, n)
            for i in range(L):
                wtp = list(p.wt); wtp[i] += h
                wtm = list(p.wt); wtm[i] -= h
                dH_dwt = (hamiltonian(PhasePoint(p.x, p.w, tuple(wtp)), n)
                          - hamiltonian(PhasePoint(p.x, p.w, tuple(wtm)), n)) / (2 * h)
                assert abs(dw[i] - dH_dwt) <= 1e-9
                wp = list(p.w); wp[i] += h
                wm = list(p.w); wm[i] -= h
                dH_dw = (hamiltonian(PhasePoint(p.x, tuple(wp), p.wt), n)
                         - hamiltonian(PhasePoint(p.x, tuple(wm), p.wt), n)) / (2 * h)
                assert abs(dwt[i] + dH_dw) <= 1e-9

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_explicit_exp_formulas(self, n):
        # the stated odd-n formulas with plain exponentials, sharing no code
        # with the expm1 kernel behind hamiltonian and vector_field
        rng = np.random.default_rng(300 + n)
        L = reduced_length(n)
        for _ in range(50):
            p = rand_point(rng, n)
            x, w, wt = p.x, p.w, p.wt
            H = (sum(v * v for v in wt) / (2.0 * x)
                 - x * sum(math.exp(2.0 * (w[i] - w[i - 1])) for i in range(1, L))
                 - 0.5 * x * (math.exp(-4.0 * w[L - 1]) + math.exp(4.0 * w[0])))
            assert hamiltonian(p, n) == pytest.approx(H, rel=1e-13)
            ext = [-w[0]] + list(w) + [-w[L - 1]]  # w_{-1} = -w_0, w_{K+1} = -w_K
            dw, dwt = vector_field(p, n)
            for i in range(L):
                up = math.exp(2.0 * (ext[i + 2] - ext[i + 1]))
                down = math.exp(2.0 * (ext[i + 1] - ext[i]))
                assert dw[i] == pytest.approx(wt[i] / x, rel=1e-13)
                assert dwt[i] == pytest.approx(-2.0 * x * (up - down), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_variant_gradient_consistency(self, n):
        rng = np.random.default_rng(200 + n)
        L = reduced_length(n)
        h = 3e-6
        for _ in range(50):
            p = rand_point(rng, n)
            _dw, dwt = vector_field(p, n, even_variant=True)
            for i in range(L):
                wp = list(p.w); wp[i] += h
                wm = list(p.w); wm[i] -= h
                dH_dw = (hamiltonian(PhasePoint(p.x, tuple(wp), p.wt), n, True)
                         - hamiltonian(PhasePoint(p.x, tuple(wm), p.wt), n, True)) / (2 * h)
                assert abs(dwt[i] + dH_dw) <= 1e-9


class TestKernelForms:
    @pytest.mark.parametrize("n, even", [(1, False), (3, False), (5, False),
                                         (2, True), (4, True)])
    def test_float_and_batch_paths_agree(self, n, even):
        # one kernel, two input forms: floats through math.expm1, an array
        # batch (components on axis 0) through np.expm1
        f, L = hamiltonian_flow._make_rhs(n, even)
        rng = np.random.default_rng(400 + n)
        x = rng.uniform(0.05, 4.0, 30)
        y = np.vstack([rng.uniform(-0.4, 0.4, (L, 30)), rng.uniform(-1.0, 1.0, (L, 30)),
                       np.zeros((1, 30))])
        batch = f(x, y)
        assert batch.shape == (2 * L + 1, 30)
        singles = np.array([f(float(x[j]), y[:, j].tolist()) for j in range(30)]).T
        scale = np.max(np.abs(batch), axis=1, keepdims=True)
        assert np.all(np.abs(singles - batch) <= 1e-13 * scale)

    def test_overflow_gives_the_batch_infinities(self):
        # math.expm1 raises where np.expm1 returns inf; a wild trial state
        # must come back non-finite, so that the stepper rejects the step
        f, _L = hamiltonian_flow._make_rhs(3, False)
        y = [200.0, 0.0, 0.1, 0.2, 0.0]
        with np.errstate(over="ignore"):
            floats, batch = f(1.0, y), f(1.0, np.array(y)).tolist()
        assert floats == batch == [0.1, 0.2, math.inf, -2.0, -math.inf]


class TestTangentColumns:
    @pytest.mark.parametrize("n, even", [(1, False), (3, False), (5, False),
                                         (2, True), (4, True)])
    def test_linearisation_matches_central_difference(self, n, even):
        # tangent columns after the state come back as J(y) v, the state's
        # own derivative unchanged bit for bit
        f, L = hamiltonian_flow._make_rhs(n, even)
        rng = np.random.default_rng(500 + n)
        x = 0.7
        y = rng.uniform(-0.4, 0.4, L).tolist() + rng.uniform(-1.0, 1.0, L).tolist() + [0.0]
        cols = [rng.uniform(-1.0, 1.0, 2 * L).tolist() for _ in range(2)]
        out = f(x, y + cols[0] + cols[1])
        assert len(out) == 2 * L + 1 + 4 * L
        assert out[:2 * L + 1] == f(x, y)
        h = 1e-6
        for j, v in enumerate(cols):
            yp = [a + h * b for a, b in zip(y, v)] + [0.0]
            ym = [a - h * b for a, b in zip(y, v)] + [0.0]
            fd = (np.array(f(x, yp)) - np.array(f(x, ym)))[:2 * L] / (2 * h)
            lin = np.array(out[2 * L + 1 + 2 * L * j:2 * L + 1 + 2 * L * (j + 1)])
            assert np.all(np.abs(lin - fd) <= 1e-7 * (1.0 + np.abs(fd)))

    def test_state_steps_ignore_the_tangents(self):
        # error control, dense output and step sequence cover the state only
        a = AsymptoticData(3, (0.3, 0.1), tuple(global_rho(3, (0.3, 0.1))))
        p = init_from_asymptotics(a, 0.01)
        y0 = p.w + p.wt + (0.0,)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        plain = hamiltonian_flow._integrate_raw(3, y0, 0.01, 2.0, cfg)
        tang = hamiltonian_flow._integrate_raw(3, y0 + (0.5, 0, 0, 0, 0, 0.5, 0, 0),
                                               0.01, 2.0, cfg)
        assert plain.tangent is None and tang.tangent.shape == (4, 2)
        for name in ("xs", "ys", "hs", "Q"):
            assert np.array_equal(getattr(plain, name), getattr(tang, name))
        assert (plain.stats.n_steps, plain.stats.n_rejected, plain.stats.n_rhs_evals) == \
            (tang.stats.n_steps, tang.stats.n_rejected, tang.stats.n_rhs_evals)


class TestInit:
    def test_trivial(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        p = init_from_asymptotics(a, 0.05)
        assert p.w == (0.0, 0.0) and p.wt == (0.0, 0.0)

    def test_formula(self):
        a = AsymptoticData(3, (0.3, 0.1), (1.0, -1.0))
        p = init_from_asymptotics(a, 0.01)
        lx = math.log(0.01)
        assert p.w == pytest.approx((0.15 * lx + 0.5, 0.05 * lx - 0.5), rel=1e-15)
        assert p.wt == (0.15, 0.05)

    def test_x0_range(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(UnsupportedConfigError):
            init_from_asymptotics(a, 0.5)


class TestIntegrate:
    def test_trivial_solution_stays(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        assert traj.stop_reason == "completed"
        maxw = max(max(abs(v) for v in pt.w) for pt in traj.points)
        assert maxw <= 1e-9
        assert abs(traj.reg_integral) <= 1e-9

    def test_blowup_flag_for_non_global_rho(self):
        rho = tuple(r + d for r, d in zip(global_rho(3, (0.3, 0.1)), (0.5, 0.0)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        assert traj.stop_reason == "blowup"
        assert traj.x_final < 6.0

    def test_tolerance_robustness(self):
        # halving tolerances barely moves the state where the unstable
        # mode has not yet amplified integration error (x = 1.5 here; at
        # larger x the exp(4x) mode amplifies any tolerance change)
        a = AsymptoticData(1, (0.3,), tuple(global_rho(1, (0.3,))))
        vals = []
        for rt in (1e-9, 5e-10):
            cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt / 10)
            traj = integrate(init_from_asymptotics(a, 0.01), 1.5, cfg, 1)
            vals.append(traj.sample(1.5).w[0])
        assert abs(vals[0] - vals[1]) <= 10 * 1e-9

    def test_forward_only(self):
        p = PhasePoint(x=1.0, w=(0.0, 0.0), wt=(0.0, 0.0))
        with pytest.raises(UnsupportedConfigError):
            integrate(p, 0.5, IntegratorConfig(), 3)

    def test_dense_output_consistency(self):
        a = AsymptoticData(1, (0.2,), tuple(global_rho(1, (0.2,))))
        traj = integrate(init_from_asymptotics(a, 0.01), 1.5, IntegratorConfig(), 1)
        # dense samples at accepted nodes reproduce the stored states
        for i in (1, len(traj.points) // 2, len(traj.points) - 1):
            pt = traj.points[i]
            s = traj.sample(pt.x)
            assert s.w == pytest.approx(pt.w, rel=1e-12, abs=1e-12)
            assert s.wt == pytest.approx(pt.wt, rel=1e-12, abs=1e-12)

    def test_rhs_count_matches_kernel_calls(self, monkeypatch):
        # the reported count against the calls of the vector field that
        # _make_rhs hands to the stepper, counted from outside
        calls = [0]
        make_rhs = hamiltonian_flow._make_rhs

        def counting_make_rhs(n, even_variant):
            f, L = make_rhs(n, even_variant)

            def counted(x, y):
                calls[0] += 1
                return f(x, y)

            return counted, L

        monkeypatch.setattr(hamiltonian_flow, "_make_rhs", counting_make_rhs)
        a = AsymptoticData(3, (0.3, 0.1), tuple(global_rho(3, (0.3, 0.1))))
        traj = integrate(init_from_asymptotics(a, 0.01), 2.2,
                         IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13), 3)
        assert traj.stats.n_rejected > 0
        assert traj.stats.n_rhs_evals == calls[0]
        # 11 stages per attempt, the FSAL stage per accepted step, two calls
        # for the initial step and three batch calls for the dense output
        assert traj.stats.n_rhs_evals == (12 * traj.stats.n_steps
                                          + 11 * traj.stats.n_rejected + 2 + 3)

    def test_initial_step_underflow_is_flagged(self):
        # the scaled derivative dwarfs the state, so the initial step
        # underflows to 0: a flagged trajectory, not ZeroDivisionError
        traj = integrate(PhasePoint(1.0, (100.0,), (0.0,)), 2.0, IntegratorConfig(), 1)
        assert traj.stop_reason == "step_underflow"
        assert traj.x_final == 1.0 and traj.stats.n_steps == 0

    def test_even_variant_integration(self):
        a = AsymptoticData(2, (0.2,), (0.1,))
        p = init_from_asymptotics(a, 0.01)
        with pytest.raises(UnsupportedConfigError):
            integrate(p, 1.0, IntegratorConfig(), 2)
        traj = integrate(p, 1.0, IntegratorConfig(), 2, even_variant=True)
        assert traj.stop_reason in ("completed", "blowup")


def full_tableau() -> np.ndarray:
    A = np.zeros((16, 16))
    for s, row in enumerate(hamiltonian_flow._A):
        A[s, :len(row)] = row
    return A


class TestTableau:
    def test_against_scipy_coefficients(self):
        # scipy is an oracle here only: the library carries its own copy
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        A = full_tableau()
        assert np.array_equal(A, ref.A)
        assert np.array_equal(hamiltonian_flow._C, ref.C)
        assert np.array_equal(hamiltonian_flow._E5 + (0.0,), ref.E5)
        e3 = np.append(A[12, :12], 0.0)
        e3[[0, 8, 11]] -= hamiltonian_flow._BHH
        assert np.array_equal(e3, ref.E3)
        assert np.array_equal(hamiltonian_flow._D, ref.D)

    def test_order_conditions(self):
        # row sums of A are the nodes; the weights integrate c^k exactly
        # up to k = 7
        A = full_tableau()
        c = np.array(hamiltonian_flow._C)
        assert np.all(np.abs(A.sum(axis=1) - c) <= 2e-15)
        b = A[12, :12]
        for k in range(8):
            assert b @ c[:12] ** k == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_power_basis_is_the_dop853_interpolant(self):
        # Q = K^T F T against dop853's nested form of the same seven terms
        rng = np.random.default_rng(8)
        K = rng.standard_normal((16, 3))
        h, y0 = 0.3, rng.standard_normal(3)
        A, D = full_tableau(), np.array(hamiltonian_flow._D)
        F0 = h * (A[12, :12] @ K[:12])
        F = [F0, h * K[0] - F0, 2.0 * F0 - h * (K[0] + K[12])] + list(h * (D @ K))
        Q = K.T @ hamiltonian_flow._DENSE_F @ hamiltonian_flow._DENSE_T
        for th in (0.0, 0.2, 0.5, 0.9, 1.0):
            nested = F[6]
            for j in range(5, -1, -1):
                nested = F[j] + (th if j % 2 else 1.0 - th) * nested
            assert np.allclose(y0 + h * Q @ th ** np.arange(1, 8), y0 + th * nested,
                               rtol=0, atol=1e-13)


@pytest.fixture(scope="module")
def near_global_traj():
    # a bounded stretch of a near-global n=3 trajectory
    rho = tuple(global_rho(3, (0.3, 0.1)))
    a = AsymptoticData(3, (0.3, 0.1), rho)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
    return integrate(init_from_asymptotics(a, 0.01), 2.2, cfg, 3)


class TestDenseOutput:
    @pytest.fixture(params=["forward", "backward"])
    def traj(self, request, near_global_traj, tail_basis):
        return near_global_traj if request.param == "forward" else tail_basis[0]

    def test_array_lookup_equals_scalar_lookups(self, traj):
        rng = np.random.default_rng(5)
        lo, hi = sorted((traj.xs[0], traj.xs[-1]))
        xs = np.concatenate([[traj.xs[0], traj.xs[-1]], traj.xs[1:-1:7],
                             rng.uniform(lo, hi, 200)])
        batch = traj.sample_state(xs)
        assert batch.shape == (traj.ys.shape[0], xs.size)
        for j, x in enumerate(xs):
            assert np.array_equal(batch[:, j], traj.sample_state(float(x)))
        grid = xs[:12].reshape(3, 4)
        assert np.array_equal(traj.sample_state(grid), batch[:, :12].reshape(-1, 3, 4))

    def test_reproduces_accepted_states(self, traj):
        # the interpolant hits each step's end state up to the rounding of
        # y0 + h Q (1, 1, 1, 1) against the stepper's own sum
        scale = np.max(np.abs(traj.ys), axis=1, keepdims=True)
        assert np.all(np.abs(traj.sample_state(traj.xs) - traj.ys) <= 1e-14 * scale)

    def test_outside_range(self, traj):
        beyond = traj.xs[-1] + (traj.xs[-1] - traj.xs[0])
        with pytest.raises(ValueError):
            traj.sample_state(np.array([traj.xs[0], beyond]))


class TestAgainstScipyReference:
    def test_states_match_reference_integrator(self):
        # independent oracle for the stepper and its dense output
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rho = tuple(global_rho(3, (0.3, 0.1)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        start = init_from_asymptotics(a, 0.01)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(start, 2.0, cfg, 3)

        def f(x, y):
            p = PhasePoint(x=x, w=tuple(y[:2]), wt=tuple(y[2:4]))
            dw, dwt = vector_field(p, 3)
            return list(dw) + list(dwt)

        ref = scipy_integrate.solve_ivp(f, (0.01, 2.0),
                                        list(start.w) + list(start.wt),
                                        rtol=1e-12, atol=1e-14,
                                        dense_output=True)
        for x in (0.3, 0.9, 1.5, 2.0):
            mine = traj.sample(x)
            theirs = ref.sol(x)
            assert mine.w == pytest.approx(tuple(theirs[:2]), abs=1e-9)
            assert mine.wt == pytest.approx(tuple(theirs[2:4]), abs=1e-9)


class TestConservationIdentities:
    @pytest.fixture()
    def traj(self, near_global_traj):
        return near_global_traj

    def test_euler_identity(self, traj):
        # sum wt dw/dx - 2H + d(xH)/dx = 0 along solutions, with the
        # d(xH)/dx term taken by centered differences of sampled xH
        xs = np.linspace(0.5, 2.0, 25)
        h = 1e-4
        for x in xs:
            p = traj.sample(float(x))
            pp = traj.sample(float(x) + h)
            pm = traj.sample(float(x) - h)
            xh_dx = ((pp.x * hamiltonian(pp, 3)) - (pm.x * hamiltonian(pm, 3))) / (2 * h)
            lhs = sum(t * t for t in p.wt) / p.x - 2.0 * hamiltonian(p, 3) + xh_dx
            assert abs(lhs) <= 1e-6

    def test_dH_dx_equals_partial_x(self, traj):
        xs = np.linspace(0.5, 2.0, 25)
        h = 1e-4
        for x in xs:
            pp = traj.sample(float(x) + h)
            pm = traj.sample(float(x) - h)
            dH = (hamiltonian(pp, 3) - hamiltonian(pm, 3)) / (2 * h)
            p = traj.sample(float(x))
            partial = (hamiltonian(PhasePoint(p.x + h, p.w, p.wt), 3)
                       - hamiltonian(PhasePoint(p.x - h, p.w, p.wt), 3)) / (2 * h)
            assert abs(dH - partial) <= 1e-6


class TestQuasihomogeneity:
    def test_identity_at_one(self):
        p = PhasePoint(x=1.3, w=(0.2, -0.1), wt=(0.4, 0.5))
        assert check_quasihomogeneity(p, 1.0, 3) == 0.0

    @given(st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_relative_residual(self, lam):
        rng = np.random.default_rng(int(lam * 1e6) % 2 ** 31)
        p = rand_point(rng, 3)
        res = check_quasihomogeneity(p, lam, 3)
        scale = 1.0 + abs(lam * hamiltonian(p, 3))
        assert res <= 1e-12 * scale


class TestTailAmplitude:
    def test_zero_at_origin(self):
        assert tail_amplitude_s1((0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_on_antidiagonal(self):
        # gamma1 = -gamma0 makes the two cosines cancel identically
        assert tail_amplitude_s1((0.1, -0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_generic_value(self):
        ref = (-2.0 * math.cos(0.325 * math.pi) - 2.0 * math.cos(0.775 * math.pi))
        assert tail_amplitude_s1((0.3, 0.1)) == pytest.approx(ref, rel=1e-15)
        assert ref == pytest.approx(0.4758148, abs=1e-6)

    def test_unsupported_n(self):
        with pytest.raises(UnsupportedConfigError):
            tail_amplitude_s1((0.1,), n=1)


class TestCsv:
    def test_header_and_rows(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        traj = integrate(init_from_asymptotics(a, 0.01), 1.0, IntegratorConfig(), 3)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,w0,w1,wt0,wt1,H,reg_integral"
        assert len(lines) == 1 + len(traj.points)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.01

    def test_blowup_footer(self):
        rho = tuple(r + 0.5 for r in global_rho(3, (0.3, 0.1)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        assert buf.getvalue().strip().split("\n")[-1].startswith("# stopped: blowup")
