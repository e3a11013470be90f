import copy
import math

import numpy as np
import pytest

from ttstar_toda import global_solutions
from ttstar_toda.data_maps import AsymptoticData, global_rho
from ttstar_toda.global_solutions import SmallXSeries, fit_tail_amplitude, solve_global
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, init_from_asymptotics,
                                          tail_amplitude_s1)

SQ8 = 2.0 * math.sqrt(2.0)


class TestSolveGlobal:
    def test_diagnostics(self, sol_031):
        d = sol_031.diagnostics
        assert d["residual"] < 1e-4
        assert d["match_residual"] < 0.05
        assert sol_031.forward.stop_reason == "completed"

    def test_seed_offset_is_small(self, sol_031):
        # the Newton offset compensates the O(x0^eps) seed truncation only
        for a, b in zip(sol_031.rho_seed, sol_031.rho_formula):
            assert abs(a - b) < 0.02

    def test_composite_continuity(self, sol_031):
        xs = sol_031.x_switch
        w_f = sol_031.forward.sample(xs).w
        y_t = sol_031.tail_state(xs)
        assert abs(w_f[0] - y_t[0]) <= 1e-7
        assert abs(w_f[1] - y_t[1]) <= 1e-7

    def test_tail_decay_sign(self, sol_031):
        # s1 > 0 at (0.3, 0.1), so w approaches zero from below
        for x in (5.0, 6.0, 7.0):
            w = sol_031.state(x).w
            assert w[0] < 0.0 and w[1] < 0.0
        assert abs(sol_031.state(7.0).w[0]) < abs(sol_031.state(5.0).w[0])

    def test_tail_amplitude_matches_formula(self, sol_031):
        s1 = tail_amplitude_s1((0.3, 0.1))
        pred = -s1 * 2.0 ** -1.75 / math.sqrt(math.pi)
        fitted = fit_tail_amplitude(sol_031)
        assert abs(fitted - pred) / abs(pred) <= 0.05

    def test_trivial_gamma(self, tail_basis):
        sol = solve_global((0.0, 0.0), 0.01, basis=tail_basis)
        assert abs(sol.amp_sum) <= 1e-9
        assert abs(sol.amp_diff) <= 1e-9
        assert abs(sol.state(5.0).w[0]) <= 1e-9
        assert abs(sol.reg_integral(7.0)) <= 1e-9

    def test_reg_integral_branches_agree(self, sol_031):
        # continuity of the forward-state and tail-quadrature branches
        xs = sol_031.x_switch
        lo = sol_031.reg_integral(xs - 1e-6)
        hi = sol_031.reg_integral(xs + 1e-6)
        assert abs(hi - lo) <= 1e-9
        # past x ~ 5 the integrand is ~ exp(-4 sqrt2 x): increments tiny
        assert abs(sol_031.reg_integral(7.0) - sol_031.reg_integral(6.0)) <= 1e-9

    def test_default_basis_gives_the_shared_basis_numbers(self, sol_031):
        # the default basis is make_backward_basis() built once, so a solve
        # given none matches one given a shared basis bit for bit
        sol = solve_global((0.3, 0.1), 0.01)
        assert sol.amp_sum == sol_031.amp_sum
        assert sol.amp_diff == sol_031.amp_diff
        assert sol.reg_integral(7.0) == sol_031.reg_integral(7.0)
        assert sol.state(6.0) == sol_031.state(6.0)

    def test_stats_count_every_integration(self, tail_basis, monkeypatch):
        # shooting, Jacobian and final runs, counted where the solve
        # enters the stepper
        runs = []
        integrate_raw = global_solutions._integrate_raw

        def counted(*args, **kwargs):
            traj = integrate_raw(*args, **kwargs)
            runs.append(traj.stats)
            return traj

        monkeypatch.setattr(global_solutions, "_integrate_raw", counted)
        sol = solve_global((0.3, 0.1), 0.01, basis=tail_basis)
        stats = sol.diagnostics["integrator_stats"]
        assert stats["integrations"] == len(runs) > 3
        assert stats["rhs_evals"] == sum(st.n_rhs_evals for st in runs)
        assert stats["steps"] == sum(st.n_steps for st in runs)
        assert stats["rejected"] == sum(st.n_rejected for st in runs)

    def test_residual_is_measured_on_the_kept_trajectory(self, sol_031):
        d = sol_031.diagnostics
        r = global_solutions._growing_mode_residual(sol_031.forward, d["station"])
        assert float(np.max(np.abs(r))) == d["residual"]
        assert sol_031.forward.x_final == d["station"] == 4.95

    def test_own_cfg_keeps_its_measured_probe(self, tail_basis):
        # a caller's cfg sets the final-station probes, so the forward run
        # is the one the residual was measured on: re-integrating the
        # refined rho at another tolerance left the orbit (match residual
        # 0.97 at rel_tol 1e-11) without any error
        steps = []
        for rel_tol in (1e-11, 1e-13):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100)
            sol = solve_global((0.3, 0.1), 0.01, cfg=cfg, basis=tail_basis)
            d = sol.diagnostics
            assert d["match_residual"] < 0.05
            r = global_solutions._growing_mode_residual(sol.forward, d["station"])
            assert float(np.max(np.abs(r))) == d["residual"]
            steps.append(sol.forward.stats.n_steps)
        assert steps[0] < steps[1]   # the tolerances took effect

    def test_x0_validation(self, tail_basis):
        with pytest.raises(Exception):
            solve_global((0.3, 0.1), 0.5, basis=tail_basis)


class TestAntidiagonal:
    def test_s1_zero_case_solves(self, tail_basis):
        # on gamma1 = -gamma0 the slow tail coefficient vanishes and the
        # fast exp(-4x) mode carries the decay; the solve must still work
        sol = solve_global((0.1, -0.1), 0.01, basis=tail_basis)
        # the overlap signal is only the residual fast mode here, so the
        # relative match is coarse; the slow amplitude must still be tiny
        assert sol.diagnostics["match_residual"] < 0.5
        assert abs(sol.amp_sum) < 0.01
        w5 = sol.state(5.0).w
        assert abs(w5[0]) < 1e-6


class TestShootingJacobian:
    def test_tangent_columns_match_central_difference(self):
        # the exact Jacobian of the growing-mode residual at station 1
        # against a central difference of plain probes in each rho_j
        gamma, x0, x_p = (0.3, 0.1), 0.01, 1.0
        rho = np.array(global_rho(3, gamma))
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        tally = dict.fromkeys(("integrations", "steps", "rejected", "rhs_evals"), 0)
        series = SmallXSeries(gamma).cut(rho, x0)
        traj = global_solutions._forward(series, rho, x0, x_p, cfg, tally, tangents=True)
        J = np.column_stack([global_solutions._mode_residual(col, x_p)
                             for col in traj.tangent.T])
        h = 1e-4
        for j in range(2):
            e = np.eye(2)[j] * h
            rp, rm = (global_solutions._growing_mode_residual(
                global_solutions._forward(series, rho + s, x0, x_p, cfg, tally), x_p)
                for s in (e, -e))
            fd = (rp - rm) / (2 * h)
            assert np.all(np.abs(J[:, j] - fd) <= 1e-6 * np.max(np.abs(fd)))


def _cut(gamma, rho, x):
    return SmallXSeries(gamma).cut(rho, x)


class TestCorrectedSeed:
    def test_tangent_columns_match_central_difference(self):
        # the seed's own derivative in rho, which starts the tangent-linear
        # columns, against a central difference of the seed, at order 2
        # and at order 8
        for gamma, x0, K in (((0.3, 0.1), 2.5e-3, 2), ((0.0, 0.8), 0.01, 8)):
            rho = np.array(global_rho(3, gamma))
            series = _cut(gamma, rho, x0)
            assert series.order == K
            y = series.seed(rho, x0, tangents=True)
            cols = np.array(y[5:]).reshape(2, 4)
            h = 1e-6
            for j in range(2):
                e = np.eye(2)[j] * h
                fd = (np.array(series.seed(rho + e, x0)[:4])
                      - np.array(series.seed(rho - e, x0)[:4])) / (2 * h)
                assert np.all(np.abs(cols[j] - fd) <= 1e-9)

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (0.0, 0.8), (-0.825, 0.075)])
    def test_first_order_is_the_closed_form(self, gamma):
        # cut at K = 1, the series is the closed-form leading small-x
        # correction: with s_l = 2 + (A gamma)_l/2 and
        # P_l = exp((A rho)_l/2) x^{s_l},
        # w_i = gamma_i/2 log x + rho_i/2 - 2 (P_{i+1}/s_{i+1}^2 - P_i/s_i^2),
        # wt_i = gamma_i/2 - 2 (P_{i+1}/s_{i+1} - P_i/s_i), its derivative in
        # rho_j from dP_l/d(rho_j) = P_l A_lj/2, and the endcap
        # sum_l 2 c_l P_l/s_l^2, c = (1/2, 1, 1/2)
        A = np.array([[4.0, 0.0], [-2.0, 2.0], [0.0, -4.0]])
        g, rho = np.array(gamma), np.array(global_rho(3, gamma))
        K1 = copy.copy(SmallXSeries(gamma))
        K1.ks, K1.ks_s, K1.c, K1.f = (v[:3] for v in (K1.ks, K1.ks_s, K1.c, K1.f))
        for x in (2.5e-3, 6.25e-4):
            s = 2.0 + 0.5 * A @ g
            P = np.exp(0.5 * A @ rho) * x ** s
            w = 0.5 * g * math.log(x) + 0.5 * rho - 2.0 * np.diff(P / s ** 2)
            wt = 0.5 * g - 2.0 * np.diff(P / s)
            cols = [np.concatenate([0.5 * np.eye(2)[j] - np.diff(A[:, j] * P / s ** 2),
                                    -np.diff(A[:, j] * P / s)]) for j in range(2)]
            want = np.concatenate([w, wt, [0.0], *cols])
            got = np.array(K1.seed(rho, x, tangents=True))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            cap = float(np.sum(2.0 * np.array([0.5, 1.0, 0.5]) * P / s ** 2))
            assert K1.endcap(rho, x) == pytest.approx(cap, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x, K", [(6.25e-4, 2), (0.01, 3)])
    def test_cut_at_the_first_small_dropped_term(self, x, K):
        # K is the smallest order whose next order part of (dw, dw') is
        # below 1e-13 at x, and `error` is that part
        gamma = (0.3, 0.1)
        rho = np.array(global_rho(3, gamma))
        series = SmallXSeries(gamma)
        terms, orders = series.terms(rho, x), series.ks.sum(1)
        part = [float(np.max(np.abs(terms[orders == n].sum(0)))) for n in range(10)]
        cut = series.cut(rho, x)
        assert cut.order == K and len(cut.ks) == np.sum(orders <= K)
        assert cut.error == pytest.approx(part[K + 1], rel=1e-12, abs=0.0)
        assert cut.error < 1e-13 <= min(part[2:K + 1])

    def test_closer_to_the_orbit_than_leading_order(self):
        # a tight run from each seed at 1e-3 to 2e-3 against the same
        # seed formula at 2e-3: the series seed drops terms below 1e-13,
        # the leading-order one O(x^a) terms
        gamma, x0, x1 = (0.3, 0.1), 1e-3, 2e-3
        rho = tuple(global_rho(3, gamma))
        cfg = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)

        def miss(seed):
            traj = global_solutions._integrate_raw(3, seed(x0), x0, x1, cfg)
            return float(np.max(np.abs(traj.ys[:4, -1] - np.array(seed(x1)[:4]))))

        def leading(x):
            p = init_from_asymptotics(AsymptoticData(3, gamma, rho), x)
            return list(p.w + p.wt) + [0.0]

        corrected = miss(lambda x: _cut(gamma, rho, x).seed(rho, x))
        assert corrected <= 1e-3 * miss(leading)

    @pytest.mark.parametrize("gamma, first, x0", [((0.3, 0.1), 3.0, 2.5e-3),
                                                  ((0.0, 0.8), 1.0, 2.5e-3),
                                                  ((0.3, 0.1), 3.0, 0.01)],
                             ids=["gamma0-3.0", "gamma1-1.0", "gamma2-3.0-0.01"])
    def test_first_station_from_predicted_seed_error(self, gamma, first, x0,
                                                      monkeypatch):
        # the ladder starts at 3 where the series has converged at x0: at
        # (0.3, 0.1) by order 2 at x0 = 2.5e-3 and by order 3 at 0.01; at
        # (0.0, 0.8), a = 0.4, order 8 still drops 7e-11 at 2.5e-3, and it
        # starts at 1
        ends = []
        forward = global_solutions._forward

        def recorded(series, rho, x0, x_end, *args, **kwargs):
            ends.append(x_end)
            return forward(series, rho, x0, x_end, *args, **kwargs)

        monkeypatch.setattr(global_solutions, "_forward", recorded)
        global_solutions._refine_rho(SmallXSeries(gamma), global_rho(3, gamma), x0)
        assert ends[0] == first
