import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ttstar_toda import global_solutions, tau_constant
from ttstar_toda.data_maps import AsymptoticData, GenericityError, global_rho
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, PhasePoint,
                                          hamiltonian, init_from_asymptotics,
                                          integrate)
from ttstar_toda.tau_constant import (ConstantReport, ExtrapolationError,
                                      _power_fit, classical_action,
                                      constant_closed, constant_numeric,
                                      log_tau)


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the input was checked")


class TestLogTau:
    def test_trivial_solution(self, tail_basis):
        # tau of the trivial solution is exp(x1^2 - x2^2)
        for x1, x2 in ((0.01, 4.0), (0.05, 7.0)):
            val = log_tau((0.0, 0.0), x1, x2)
            assert val == pytest.approx(x1 ** 2 - x2 ** 2, abs=1e-9)

    def test_additivity_along_one_solution(self, sol_031):
        # integral additivity on the same orbit: restart a plain
        # integration from an interior state of the composite and compare
        # the accumulated regularized integrals
        b, c = 0.05, 3.5
        p = sol_031.state(b)
        tr = integrate(p, c, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14), 3)
        inc_composite = sol_031.reg_integral(c) - sol_031.reg_integral(b)
        assert tr.stop_reason == "completed"
        assert tr.reg_integral == pytest.approx(inc_composite, abs=1e-8)

    def test_additivity_across_solves(self):
        # independent solves seeded at x1 = a and x1 = b sit on the same
        # family member to the series' first dropped term (below 1e-13 at
        # both): 7e-15 apart, against 1.4e-6 from the first-order seed,
        # whose truncation ~ b^3.6 differs between the solves
        a, b, c = 0.01, 0.05, 6.0
        full = log_tau((0.3, 0.1), a, c)
        parts = log_tau((0.3, 0.1), a, b) + log_tau((0.3, 0.1), b, c)
        assert full == pytest.approx(parts, abs=1e-10)

    def test_additivity_trivial(self):
        a, b, c = 0.01, 0.05, 6.0
        full = log_tau((0.0, 0.0), a, c)
        parts = log_tau((0.0, 0.0), a, b) + log_tau((0.0, 0.0), b, c)
        assert full == pytest.approx(parts, abs=1e-9)

    def test_finite_and_tolerance_stable(self):
        v1 = log_tau((0.3, 0.1), 0.01, 6.0,
                     IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        v2 = log_tau((0.3, 0.1), 0.01, 6.0,
                     IntegratorConfig(rel_tol=5e-13, abs_tol=5e-15))
        assert math.isfinite(v1)
        assert abs(v1 - v2) <= 1e-8

    def test_default_basis_built_once(self, monkeypatch):
        # log_tau passes no basis; the tail basis depends on neither gamma
        # nor x1, so a second call reuses the first one's
        built = []
        make_backward_basis = global_solutions.make_backward_basis

        def counted():
            built.append(1)
            return make_backward_basis()

        monkeypatch.setattr(global_solutions, "make_backward_basis", counted)
        global_solutions._default_basis.cache_clear()
        try:
            log_tau((0.0, 0.0), 0.01, 6.0)
            log_tau((0.3, 0.1), 0.05, 6.0)
        finally:
            global_solutions._default_basis.cache_clear()
        assert len(built) == 1

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            log_tau((0.3, 0.1), 2.0, 1.0)

    def test_x2_beyond_tail_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(tau_constant, "solve_global", _no_solve)
        with pytest.raises(ValueError, match="9.0"):
            log_tau((0.3, 0.1), 0.01, 9.5)


class TestConstantClosed:
    def test_trivial_cancellation(self):
        assert abs(constant_closed((0.0, 0.0))) <= 1e-12

    def test_stationary_at_origin(self):
        h = 1e-4
        for i in range(2):
            gp = [0.0, 0.0]; gp[i] += h
            gm = [0.0, 0.0]; gm[i] -= h
            grad = (constant_closed(gp) - constant_closed(gm)) / (2 * h)
            assert abs(grad) <= 1e-8

    def test_genericity(self):
        with pytest.raises(GenericityError):
            constant_closed((1.9, 0.0))

    def test_quadratic_model_near_origin(self):
        # small-gamma expansion from the decaying-mode linearization:
        # C ~ -(1/8)|gamma|^2 - (1/8) gamma^T J gamma with
        # J = euler_gamma I + log2 [[3/4,-1/4],[-1/4,3/4]]
        g = (0.03, 0.01)
        J = float(np.euler_gamma) * np.eye(2) + math.log(2.0) * np.array(
            [[0.75, -0.25], [-0.25, 0.75]])
        v = np.array(g)
        pred = -0.125 * v @ v - 0.125 * v @ J @ v
        assert constant_closed(g) == pytest.approx(float(pred), abs=2e-6)


class TestConstantNumeric:
    def test_trivial(self, tail_basis):
        # the trivial solution's C(x1) is x1^2, which the endcap removes:
        # the series cuts at order 1, where the seed cancels to 0 and,
        # with an exact pow(x, 2.0), the endcap is x1^2, so one solve
        # gives C = 0 exactly (p = inf); a last-bit error of x1^2 in the
        # endcap would leave C = O(1e-23)
        rep = constant_numeric((0.0, 0.0))
        assert rep.c_numeric == 0.0
        assert abs(rep.c_closed) <= 1e-12
        assert rep.extrapolation_exponent in (2.0, math.inf)

    def test_generic_point(self, tail_basis):
        rep = constant_numeric((0.3, 0.1))
        assert rep.abs_diff <= 1e-3
        assert rep.extrapolation_exponent > 0.0
        assert rep.tail_bound >= 0.0
        assert rep.x2_used == 7.0

    def test_work_ceiling(self, tail_basis):
        # machine-independent: the exact shooting Jacobian needs 46 forward
        # runs for the three solves here (81 with finite differences)
        rep = constant_numeric((0.3, 0.1), basis=tail_basis)
        assert rep.integrator_stats["integrations"] <= 55

    def test_large_seed_solves(self, tail_basis):
        # |w| of the seed at x0 = 2.5e-3 exceeds 2; probes stop relative to it
        rep = constant_numeric((0.9, -0.4), basis=tail_basis)
        assert rep.abs_diff <= 1e-3

    def test_rhs_work_ceiling(self, tail_basis):
        # machine-independent: DOP853 needs ~50,000 RHS calls for the three
        # solves here on the default grid (DP5(4): 107,138 on a grid twice
        # as coarse)
        rep = constant_numeric((0.3, 0.1), basis=tail_basis)
        assert rep.integrator_stats["rhs_evals"] <= 60000

    def test_high_gamma1_solves(self, tail_basis):
        # abs_diff 4.1e-3 on the grid (1e-2, 5e-3, 2.5e-3); the default
        # grid two halvings further down reaches the closed form
        rep = constant_numeric((0.0, 0.8), basis=tail_basis)
        assert rep.abs_diff <= 1e-3

    def test_edge_work_ceiling(self, tail_basis):
        # near the edge Newton leaves the low stations unconverged; creeping
        # on from there takes ~24,000 steps, full advances that blow up and
        # back off took ~48,700
        rep = constant_numeric((0.87, 0.51), basis=tail_basis)
        assert rep.abs_diff <= 1e-3
        assert rep.integrator_stats["steps"] <= 32000

    def test_seed_work_ceiling(self, tail_basis):
        # machine-independent: the series has converged up to x1 = 0.08,
        # where it cuts at K = 5, so one solve from its seed there, with
        # the ladder starting at 3, takes 4 forward runs and 4,025 RHS
        # calls (7,061 from x1 = 6.25e-4, 15 and 24,077 for three solves
        # from the first-order seed, 42 and 50,274 from the leading-order
        # one); with the first step capped by the scale of x0, the solves
        # reject fewer steps than they run integrations (two per run
        # before the cap)
        st = constant_numeric((0.3, 0.1), basis=tail_basis).integrator_stats
        assert st["integrations"] <= 6
        assert st["rhs_evals"] <= 5000
        assert st["rejected"] <= st["integrations"]

    @pytest.mark.parametrize("gamma, x1", [((0.3, 0.1), 0.08), ((0.1, -0.1), 0.08),
                                           ((0.5, 0.2), 0.08), ((-0.2, 0.4), 0.04),
                                           ((0.25, -0.35), 0.08)],
                             ids=[f"gamma{i}" for i in range(5)])
    def test_endcapped_sequence_converges_at_2a(self, gamma, x1, tail_basis):
        # endcapped at order K, C(x1) is flat to the first dropped term,
        # O(x1^{(K+1) a}): at the acceptance gammas (a >= 1.2) that term is
        # below 1e-13 up to x1 = 0.04-0.08 at K = 5-8, so one solve there
        # gives the constant, 4e-16 to 1.4e-14 off, and the exponent reads
        # inf (at first order the fit found p near 2a and left 7.8e-12 to
        # 3.2e-10)
        g0, g1 = gamma
        a = min(2 + 2 * g0, 2 + g1 - g0, 2 - 2 * g1)
        rep = constant_numeric(gamma, basis=tail_basis)
        assert rep.a == pytest.approx(a, abs=1e-14)
        assert rep.x1_grid == (x1,) and rep.extrapolation_exponent == math.inf
        assert rep.series_order <= 8 and rep.series_error < 1e-13
        assert rep.abs_diff <= 1e-12

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (0.1, -0.1), (0.5, 0.2),
                                       (-0.2, 0.4), (0.25, -0.35)])
    def test_one_solve_independent_of_x1(self, gamma, tail_basis):
        # the one solve's C(x1) does not depend on where the series hands
        # over to the integration: a solve at the smallest grid point
        # gives the same constant to 1e-14
        x1 = tau_constant.DEFAULT_X1_GRID[-1]
        sol = global_solutions.solve_global(gamma, x1, basis=tail_basis)
        c_small = (sol.reg_integral(7.0) + x1 * x1 + sum(g * g for g in gamma) / 8.0 * math.log(x1)
                   - sol.diagnostics["series"].endcap(sol.rho_formula, x1))
        rep = constant_numeric(gamma, basis=tail_basis)
        assert rep.x1_grid[0] > x1
        assert abs(rep.c_numeric - c_small) <= 1e-13

    @pytest.mark.parametrize("gamma, x1, order", [((0.3, 0.1), 0.08, 5),
                                                  ((-0.675, 0.3), 0.005, 8)])
    def test_one_solve_at_largest_converged_x1(self, gamma, x1, order, tail_basis,
                                               monkeypatch):
        # x1 doubles from 6.25e-4 while the series' first dropped term
        # stays below 1e-13: up to the cap 0.08 at a = 1.8, to 0.005 at
        # a = 0.65, where the order-9 part at 0.01 is 4.1e-13
        solved = []
        solve_global = tau_constant.solve_global

        def recorded(gamma, x0, *args, **kwargs):
            solved.append(x0)
            return solve_global(gamma, x0, *args, **kwargs)

        monkeypatch.setattr(tau_constant, "solve_global", recorded)
        rep = constant_numeric(gamma, basis=tail_basis)
        assert solved == [x1] and rep.x1_grid == (x1,)
        assert rep.series_order == order and rep.series_error < 1e-13
        assert rep.abs_diff <= 1e-13

    def test_one_solve_x1_below_x2(self, tail_basis):
        # a short x2 caps the doubling: x1 = 0.08 would start past it
        rep = constant_numeric((0.3, 0.1), x2=0.05, basis=tail_basis)
        assert rep.x1_grid == (0.04,)

    def test_series_built_once_per_constant(self, tail_basis, monkeypatch):
        # the three solves of the a = 0.35 band share the one series that
        # chose their path, on the default grid
        built, solved = [], []
        init = global_solutions.SmallXSeries.__init__
        solve_global = tau_constant.solve_global

        def counted(self, gamma):
            built.append(1)
            init(self, gamma)

        def recorded(gamma, x0, *args, **kwargs):
            solved.append(x0)
            return solve_global(gamma, x0, *args, **kwargs)

        monkeypatch.setattr(global_solutions.SmallXSeries, "__init__", counted)
        monkeypatch.setattr(tau_constant, "solve_global", recorded)
        rep = constant_numeric((-0.825, 0.075), basis=tail_basis)
        assert len(built) == 1
        assert tuple(solved) == rep.x1_grid == tau_constant.DEFAULT_X1_GRID

    @pytest.mark.parametrize("gamma", [(-0.825, 0.075), (0.675, 0.825), (0.825, -0.825)])
    def test_edge_band_accuracy(self, gamma, tail_basis):
        # a(gamma) = 0.35: 2.1e-3 to 3.8e-3 from the leading-order seed,
        # 4e-5 to 8e-5 from the first-order seed and endcap, 1.8e-13 to
        # 3.2e-13 from the order-8 series, whose first dropped term at
        # x1 = 6.25e-4 (1e-11 to 2e-11) still calls for three solves.  The
        # fit then sees the order-9 truncation, O(x1^{9a}): p reads 2.94,
        # near 9a = 3.15 (2a at first order)
        rep = constant_numeric(gamma, basis=tail_basis)
        assert rep.series_order == 8 and rep.series_error >= 1e-12
        assert rep.x1_grid == tau_constant.DEFAULT_X1_GRID
        assert 7 * rep.a <= rep.extrapolation_exponent <= 9.5 * rep.a
        assert rep.abs_diff <= 1e-11

    @pytest.mark.parametrize("gamma", [(0.5, 0.2), (-0.825, 0.075), (0.0, 0.8)])
    def test_mirror_symmetry(self, gamma, tail_basis):
        # (g0, g1) -> (-g1, -g0) swaps the outer links and keeps the middle
        # one, so the constant is unchanged.  The closed form agrees to
        # rounding.  The mirrored numeric solves differ in the last bits of
        # their float operations, and with intermediate shooting stations
        # left at a residual of 1e-5 those bits steer Newton to different
        # accepted iterates: 5.4e-10 apart at (0.5, 0.2), against 2.3e-13
        # when every station converged to 2e-11
        mirror = (-gamma[1], -gamma[0])
        assert abs(constant_closed(gamma) - constant_closed(mirror)) <= 1e-13
        c, c_m = (constant_numeric(g, basis=tail_basis).c_numeric for g in (gamma, mirror))
        assert abs(c - c_m) <= 1e-8

    def test_tail_negligibility(self, tail_basis):
        # moving x2 from 6 to 7 changes the extrapolated constant by far
        # less than 1e-5: the regularized integrand decays ~ exp(-4 sqrt2 x)
        r6 = constant_numeric((0.3, 0.1), x2=6.0, basis=tail_basis)
        r7 = constant_numeric((0.3, 0.1), x2=7.0, basis=tail_basis)
        assert abs(r6.c_numeric - r7.c_numeric) <= 1e-5

    def test_x2_beyond_tail_rejected_before_solving(self, monkeypatch):
        # the tail basis ends at 9; x2 = 9.5 was clamped to 9 after solving
        monkeypatch.setattr(tau_constant, "solve_global", _no_solve)
        with pytest.raises(ValueError, match="9.0"):
            constant_numeric((0.3, 0.1), x2=9.5)

    def test_domain_floor_rejected_before_solving(self, monkeypatch):
        # a = 2 + 2 (-0.975) = 0.05: the solve returned a constant 4.8e-2
        # off the closed form with nothing flagging it
        monkeypatch.setattr(tau_constant, "solve_global", _no_solve)
        with pytest.raises(GenericityError, match=r"a\(gamma\).*0\.05.*a_min = 0\.2"):
            constant_numeric((-0.975, 0.075))

    def test_sweep_prints_domain_error_as_failed_row(self):
        # the sweep script reports the refusal as a failed row and exits 4
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run([sys.executable, os.path.join(root, "scripts", "constant_sweep.py"),
                              "--gammas=-0.975,0.075"], capture_output=True, text=True, env=env)
        assert out.returncode == 4, out.stderr
        assert "failed: GenericityError" in out.stdout
        assert "Traceback" not in out.stderr

    def test_power_fit_nonmonotone_raises(self):
        with pytest.raises(ExtrapolationError):
            _power_fit((1e-2, 5e-3, 2.5e-3), (1.0, 0.5, 0.7))

    def test_power_fit_exact_power(self):
        grid = (1e-2, 5e-3, 2.5e-3)
        vals = tuple(3.0 + 2.0 * x ** 1.5 for x in grid)
        c, a, p = _power_fit(grid, vals)
        assert c == pytest.approx(3.0, abs=1e-12)
        assert p == pytest.approx(1.5, abs=1e-9)
        assert a == pytest.approx(2.0, rel=1e-9)

    def test_power_fit_keeps_small_corrections(self):
        # corrections of 1e-9 on an O(1) constant, as on the edge band:
        # the fit must not cancel C^2 (that left 3.9e-6 here)
        grid = (2.5e-3, 1.25e-3, 6.25e-4)
        vals = tuple(-5.3 + 1e-9 * (x / grid[0]) ** 3 for x in grid)
        c, _a, p = _power_fit(grid, vals)
        assert c == pytest.approx(-5.3, abs=1e-14)
        assert p == pytest.approx(3.0, abs=1e-5)


class TestClassicalAction:
    def test_trivial_value(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        traj = integrate(init_from_asymptotics(a, 0.01), 4.0,
                         IntegratorConfig(), 3)
        # S = int 2x dx on the trivial solution
        assert classical_action(traj) == pytest.approx(16.0 - 1e-4, abs=1e-9)

    def test_action_tau_identity(self):
        # log tau = S + [x H] at the endpoints, along any solution
        rho = tuple(global_rho(3, (0.3, 0.1)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
        traj = integrate(init_from_asymptotics(a, 0.01), 2.2, cfg, 3)
        s_val = classical_action(traj)
        x1, x2 = traj.points[0].x, traj.x_final
        log_tau_traj = traj.reg_integral - (x2 ** 2 - x1 ** 2)
        boundary = (x2 * hamiltonian(traj.points[-1], 3)
                    - x1 * hamiltonian(traj.points[0], 3))
        assert abs(log_tau_traj - s_val - boundary) <= 1e-7

    def test_additivity(self):
        rho = tuple(global_rho(3, (0.2, 0.05)))
        a = AsymptoticData(3, (0.2, 0.05), rho)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
        t_full = integrate(init_from_asymptotics(a, 0.01), 2.0, cfg, 3)
        t1 = integrate(init_from_asymptotics(a, 0.01), 1.0, cfg, 3)
        mid = t1.points[-1]
        t2 = integrate(PhasePoint(x=mid.x, w=mid.w, wt=mid.wt), 2.0, cfg, 3)
        assert (classical_action(t1) + classical_action(t2)
                == pytest.approx(classical_action(t_full), abs=1e-9))


class TestReportJson:
    def test_field_order(self):
        rep = ConstantReport(gamma=(0.1, 0.2), c_numeric=1.0, c_closed=1.0,
                             abs_diff=0.0, x1_grid=(1e-2, 5e-3, 2.5e-3),
                             x2_used=7.0, extrapolation_exponent=1.8,
                             tail_bound=1e-9, a=0.9)
        d = rep.to_json_dict()
        assert list(d.keys()) == ["gamma", "c_numeric", "c_closed", "abs_diff",
                                  "x1_grid", "x2_used",
                                  "extrapolation_exponent", "tail_bound",
                                  "integrator_stats", "a", "series_order",
                                  "series_error"]
        json.dumps(d)


def test_import_does_not_load_scipy():
    # scipy serves the tests as an oracle; loading it in the library would
    # multiply start-up time and memory
    src = os.path.dirname(os.path.dirname(tau_constant.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import ttstar_toda.tau_constant; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
