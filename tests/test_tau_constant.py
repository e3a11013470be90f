import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ttstar_toda import global_solutions, init_from_asymptotics, tau_constant
from ttstar_toda.data_maps import AsymptoticData, GenericityError, global_rho
from ttstar_toda.hamiltonian_flow import IntegratorConfig, PhasePoint, hamiltonian, integrate
from ttstar_toda.tau_constant import (ConstantReport, classical_action,
                                      constant_closed, constant_numeric,
                                      log_tau)


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the input was checked")


def _record_solves_and_series(monkeypatch):
    """Record every solve constant_numeric makes and count every
    SmallXSeries built."""
    solves, built = [], []
    solve_global, init = tau_constant.solve_global, global_solutions.SmallXSeries.__init__

    def recorded(*args, **kwargs):
        solves.append(solve_global(*args, **kwargs))
        return solves[-1]

    def counted(self, n, gamma):
        built.append(1)
        init(self, n, gamma)

    monkeypatch.setattr(tau_constant, "solve_global", recorded)
    monkeypatch.setattr(global_solutions.SmallXSeries, "__init__", counted)
    return solves, built


class TestLogTau:
    def test_trivial_solution(self):
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

    def test_starts_where_the_series_has_converged(self):
        # at (0.0, 0.8), a = 0.4, the series has not converged at x1 = 0.1,
        # so the solve shoots from below it; log tau from x1 is the run
        # over [x1, x2] of a solve started there (a station ladder from
        # x1 itself left it 5.9e-6 off)
        gamma = (0.0, 0.8)
        solve = global_solutions.solve_global
        start = solve(gamma, 0.1).diagnostics["x_start"]
        ref = solve(gamma, start)
        assert start < 0.1 and ref.diagnostics["x_start"] == start
        want = ref.reg_integral(7.0) - ref.reg_integral(0.1) - (7.0 ** 2 - 0.1 ** 2)
        assert abs(log_tau(gamma, 0.1, 7.0) - want) <= 1e-13

    def test_additivity_trivial(self):
        a, b, c = 0.01, 0.05, 6.0
        full = log_tau((0.0, 0.0), a, c)
        parts = log_tau((0.0, 0.0), a, b) + log_tau((0.0, 0.0), b, c)
        assert full == pytest.approx(parts, abs=1e-9)

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (-0.2, 0.4), (0.0, 0.0)])
    def test_gives_the_closed_constant(self, gamma):
        # log tau(x1, x2) + x2^2 + (gamma0^2 + gamma1^2)/8 log x1, less the
        # series integral over (0, x1), is the constant to the x2 tail
        # (~1e-15 at x2 = 6): 5e-15 to 1e-14 off
        x1, x2, rho = 0.01, 6.0, global_rho(3, gamma)
        endcap = global_solutions.SmallXSeries(3, gamma).cut(rho, x1).endcap(rho, x1)
        c = (log_tau(gamma, x1, x2) + x2 * x2
             + (gamma[0] ** 2 + gamma[1] ** 2) / 8.0 * math.log(x1) - endcap)
        assert abs(c - constant_closed(gamma)) <= 1e-12

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            log_tau((0.3, 0.1), 2.0, 1.0)

    def test_x2_beyond_tail_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(tau_constant, "solve_global", _no_solve)
        with pytest.raises(ValueError, match="9.0"):
            log_tau((0.3, 0.1), 0.01, 9.5)

    def test_x1_beyond_seed_range_rejected_before_solving(self, monkeypatch):
        # the solve starts at x1, so x1 > 0.1 is refused by name, not by
        # solve_global's x0
        monkeypatch.setattr(tau_constant, "solve_global", _no_solve)
        with pytest.raises(ValueError, match="0 < x1 <= 0.1"):
            log_tau((0.3, 0.1), 0.5, 6.0)


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
    def test_trivial(self):
        # the trivial solution's C(x1) is x1^2, which the endcap removes:
        # the series cuts at order 1, where the seed cancels to 0 and,
        # with an exact pow(x, 2.0), the endcap is x1^2, so one solve
        # gives C = 0 exactly; a last-bit error of x1^2 in the endcap
        # would leave C = O(1e-23)
        rep = constant_numeric((0.0, 0.0))
        assert rep.c_numeric == 0.0
        assert abs(rep.c_closed) <= 1e-12

    def test_generic_point(self):
        rep = constant_numeric((0.3, 0.1))
        assert rep.abs_diff <= 1e-3
        assert rep.tail_bound >= 0.0
        assert rep.x2_used == 7.0

    def test_large_seed_solves(self):
        # |w| of the seed at x0 = 2.5e-3 exceeds 2; probes stop relative to it
        rep = constant_numeric((0.9, -0.4))
        assert rep.abs_diff <= 1e-3

    def test_high_gamma1_solves(self):
        # abs_diff 4.1e-3 on the grid (1e-2, 5e-3, 2.5e-3); the default
        # grid two halvings further down reaches the closed form
        rep = constant_numeric((0.0, 0.8))
        assert rep.abs_diff <= 1e-3

    def test_edge_work_ceiling(self):
        # a = 0.72: the series has converged at x1 = 0.02, where one solve
        # takes 2 forward runs and 249 steps
        rep = constant_numeric((0.87, 0.51))
        assert rep.abs_diff <= 1e-3
        assert rep.integrator_stats["integrations"] <= 3
        assert rep.integrator_stats["steps"] <= 32000

    def test_seed_work_ceiling(self):
        # machine-independent: the series has converged up to x1 = 0.08,
        # where it cuts at K = 5, so one solve from its seed there, shot
        # at 4.95, takes 2 forward runs and 2,312 RHS calls (4,025 with a
        # probe at 3, 7,061 from x1 = 6.25e-4, 15 and
        # 24,077 for three solves from the first-order seed, 42 and 50,274
        # from the leading-order one); with the first step capped by the
        # scale of x0, the solves reject fewer steps than they run
        # integrations (two per run before the cap)
        st = constant_numeric((0.3, 0.1)).integrator_stats
        assert st["integrations"] <= 6
        assert st["rhs_evals"] <= 5000
        assert st["rejected"] <= st["integrations"]

    @pytest.mark.parametrize("gamma, x1", [((0.3, 0.1), 0.08), ((0.1, -0.1), 0.08),
                                           ((0.5, 0.2), 0.08), ((-0.2, 0.4), 0.04),
                                           ((0.25, -0.35), 0.08)],
                             ids=[f"gamma{i}" for i in range(5)])
    def test_endcapped_sequence_converges_at_2a(self, gamma, x1):
        # endcapped at order K, C(x1) is flat to the first dropped term,
        # O(x1^{(K+1) a}): at the acceptance gammas (a >= 1.2) that term is
        # below 1e-13 up to x1 = 0.04-0.08 at K = 5-8, so one solve there
        # gives the constant, 4e-16 to 1.4e-14 off (at first order a fit
        # over three solves found an exponent near 2a and left 7.8e-12 to
        # 3.2e-10)
        g0, g1 = gamma
        # the hand formula, with g1 - g0 rounded first as the link row
        # (-2, 2) of A gamma does: (2 + g1) - g0 misses 1.8 by an ulp at
        # (0.1, -0.1)
        a = min(2 + 2 * g0, 2 + (g1 - g0), 2 - 2 * g1)
        rep = constant_numeric(gamma)
        assert rep.a == a
        assert rep.x1 == x1
        assert rep.series_order <= 8 and rep.series_error < 1e-13
        assert rep.abs_diff <= 1e-12

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (0.1, -0.1), (0.5, 0.2),
                                       (-0.2, 0.4), (0.25, -0.35)])
    def test_one_solve_independent_of_x1(self, gamma):
        # the one solve's C(x1) does not depend on where the series hands
        # over to the integration: a solve at the smallest grid point
        # gives the same constant to 1e-14
        x1 = 6.25e-4
        sol = global_solutions.solve_global(gamma, x1)
        c_small = (sol.reg_integral(7.0) + x1 * x1 + sum(g * g for g in gamma) / 8.0 * math.log(x1)
                   - sol.diagnostics["series"].endcap(sol.rho_formula, x1))
        rep = constant_numeric(gamma)
        assert rep.x1 > x1
        assert abs(rep.c_numeric - c_small) <= 1e-13

    @pytest.mark.parametrize("gamma, x1, order", [((0.3, 0.1), 0.08, 5),
                                                  ((-0.675, 0.3), 0.005, 8)])
    def test_one_solve_at_largest_converged_x1(self, gamma, x1, order,
                                               monkeypatch):
        # x1 halves from 0.08 until the series' first dropped term is
        # below 1e-13: at once at a = 1.8, to 0.005 at a = 0.65, where the
        # order-9 part at 0.01 is 4.1e-13
        solves, built = _record_solves_and_series(monkeypatch)
        rep = constant_numeric(gamma)
        assert len(solves) == len(built) == 1
        assert solves[0].x0 == rep.x1 == x1
        assert rep.series_order == order and rep.series_error < 1e-13
        assert rep.abs_diff <= 1e-13

    def test_default_basis_gives_the_shared_basis_numbers(self):
        # the benchmark's call form, basis=make_backward_basis(), gives the
        # constant and its report bit for bit
        rep = constant_numeric((0.3, 0.1))
        assert constant_numeric((0.3, 0.1), basis=global_solutions.make_backward_basis()) == rep

    def test_one_solve_x1_below_x2(self):
        # a short x2 lowers the top: x1 = 0.08 would start past it
        rep = constant_numeric((0.3, 0.1), x2=0.05)
        assert rep.x1 == 0.04

    def test_series_built_once_per_constant(self, monkeypatch):
        # at a = 0.35 the one solve builds the one series, and its start,
        # 0.08 halved ten times to 7.8125e-5, is x1
        solves, built = _record_solves_and_series(monkeypatch)
        rep = constant_numeric((-0.825, 0.075))
        assert len(built) == 1
        assert [sol.x0 for sol in solves] == [rep.x1] == [7.8125e-5]

    @pytest.mark.parametrize("gamma", [(-0.825, 0.075), (0.675, 0.825), (0.825, -0.825),
                                       (-0.88, 0.3), (0.3, 0.88)])
    def test_edge_band_accuracy(self, gamma, monkeypatch):
        # a(gamma) = 0.35 and 0.24: 2.1e-3 to 3.8e-3 from the
        # leading-order seed, 4e-5 to 8e-5 from the first-order seed and
        # endcap; the order-8 series has converged only at x1 = 7.8e-5 to
        # 2.4e-6, and one solve from there lands within 3e-13 (a fit over
        # three solves at x1 = 2.5e-3 to 6.25e-4 left 3.2e-13 at a = 0.35
        # and 9.5e-11 at a = 0.24)
        solves, built = _record_solves_and_series(monkeypatch)
        rep = constant_numeric(gamma)
        assert len(solves) == len(built) == 1
        assert solves[0].x0 == rep.x1 and rep.x1 < 6.25e-4
        assert rep.series_order == 8 and rep.series_error < 1e-13
        assert rep.integrator_stats["integrations"] <= 3
        assert rep.abs_diff <= 1e-12

    @pytest.mark.parametrize("gamma", [(0.5, 0.2), (-0.825, 0.075), (0.0, 0.8)])
    def test_mirror_symmetry(self, gamma):
        # (g0, g1) -> (-g1, -g0) swaps the outer links and keeps the middle
        # one, so the constant is unchanged.  The closed form agrees to
        # rounding, and the mirrored numeric solves, which differ only in
        # the last bits of their float operations, to 1.1e-16
        mirror = (-gamma[1], -gamma[0])
        assert abs(constant_closed(gamma) - constant_closed(mirror)) <= 1e-13
        c, c_m = (constant_numeric(g).c_numeric for g in (gamma, mirror))
        assert abs(c - c_m) <= 1e-12

    def test_tail_negligibility(self):
        # moving x2 from 6 to 7 changes the extrapolated constant by far
        # less than 1e-5: the regularized integrand decays ~ exp(-4 sqrt2 x)
        r6 = constant_numeric((0.3, 0.1), x2=6.0)
        r7 = constant_numeric((0.3, 0.1), x2=7.0)
        assert abs(r6.c_numeric - r7.c_numeric) <= 1e-5

    def test_x2_beyond_tail_rejected_before_solving(self, monkeypatch):
        # the composite orbit ends at 9; x2 = 9.5 was clamped to 9 after solving
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
                             abs_diff=0.0, x1=0.08, x2_used=7.0,
                             tail_bound=1e-9, a=0.9)
        d = rep.to_json_dict()
        assert list(d.keys()) == ["gamma", "c_numeric", "c_closed", "abs_diff",
                                  "x1", "x2_used", "tail_bound",
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
