import copy
import itertools
import math
import re

import numpy as np
import pytest

from ttstar_toda import (constant_numeric, global_solutions, init_from_asymptotics,
                         make_backward_basis)
from ttstar_toda.verify import ACCEPTANCE_GAMMAS
from ttstar_toda.data_maps import AsymptoticData, ShapeError, global_rho, reduced_length
from ttstar_toda.global_solutions import GlobalSolveError, SmallXSeries, solve_global
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, UnsupportedConfigError, _links,
                                          reg_density, tail_amplitude_s1)

SQ8 = 2.0 * math.sqrt(2.0)


def tail_quad(sol, a, b):
    """integral (H + 2x) dx over [a, b] along the matched tail, x_switch <=
    a < b <= x_right, by 12-node Gauss-Legendre on panels of at most 0.25,
    summed left to right: the oracle of the closed-form tail integral."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    npanels = max(2, math.ceil((b - a) / 0.25))
    edges = np.linspace(a, b, npanels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
    terms = weights * half * reg_density(x, sol.tail_state(x), sol.forward.n)
    return float(np.cumsum(terms)[-1])


class TestSolveGlobal:
    def test_diagnostics(self, sol_031):
        d = sol_031.diagnostics
        assert d["residual"] < 1e-4
        assert d["match_residual"] < 1e-6
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

    def test_amp_sum_is_the_closed_form(self):
        # w_0 ~ amps[0] K0(2 sqrt 2 x) ~ -s1 2^(-7/4) (pi x)^(-1/2)
        # exp(-2 sqrt 2 x), so amps[0] = -s1 / (sqrt 2 pi): over the
        # acceptance gammas off the antidiagonal (s1 = 0 there) and the
        # a = 0.24 edge pair, 2e-9 to 2.4e-8 off
        for gamma in [(0.3, 0.1), (0.5, 0.2), (-0.2, 0.4), (0.25, -0.35),
                      (-0.88, 0.3), (0.3, 0.88)]:
            pred = -tail_amplitude_s1(gamma) / (math.sqrt(2.0) * math.pi)
            sol = solve_global(gamma, 0.01)
            assert abs(sol.amps[0] - pred) <= 1e-7 * abs(pred), gamma

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (-0.88, 0.3)])
    def test_amplitudes_do_not_depend_on_x0(self, gamma):
        # the growing modes take up the integrator's error, so the
        # decaying amplitudes are the orbit's own: 3e-11 to 1.4e-9 apart
        sols = [solve_global(gamma, x0) for x0 in (0.08, 0.01, 1e-3)]
        for sol in sols[1:]:
            assert np.max(np.abs(np.subtract(sol.amps, sols[0].amps))) <= 1e-8

    def test_match_recovers_known_amplitudes(self):
        # a run that is exactly the tail plus growing content as large as
        # its fast mode (3%-5% of the run): the match returns the decaying
        # amplitudes
        amps, growing = (-0.3, 0.7), (2e-13, -5e-15)

        class Run:
            @staticmethod
            def sample_state(x):
                return (global_solutions._modes(x, amps)
                        + global_solutions._modes(x, growing, growing=True))

        (A, D), resid = global_solutions._match(Run())
        assert abs(A - amps[0]) <= 1e-12 * abs(amps[0])
        assert abs(D - amps[1]) <= 1e-12 * abs(amps[1])
        assert resid <= 1e-14

    def test_match_residual_gate(self, monkeypatch):
        match = global_solutions._match

        def loose(fwd):
            return match(fwd)[0], 1e-4

        monkeypatch.setattr(global_solutions, "_match", loose)
        with pytest.raises(GlobalSolveError, match=r"match residual 1\.000e-04 above 1e-05"):
            solve_global((0.3, 0.1), 0.01)

    def test_trivial_gamma(self):
        sol = solve_global((0.0, 0.0), 0.01)
        assert max(map(abs, sol.amps)) <= 1e-9
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

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (0.5, -0.5), (-0.2, 0.4)])
    def test_truncation_is_the_tail_integral(self, gamma):
        # on the tail the closed-form truncation differs between two points
        # by the quadrature of H + 2x between them, up to the cubic terms
        # it leaves out (relative 8e-8 from 4.2 and 7e-7 from 5)
        sol = solve_global(gamma, 0.08)
        for x2 in (4.2, 5.0):
            quad = tail_quad(sol, x2, sol.x_right)
            closed = sol.truncation(x2) - sol.truncation(sol.x_right)
            assert abs(closed - quad) <= 1e-5 * quad

    @pytest.mark.parametrize("gamma", [(0.3, 0.1), (0.5, -0.5), (-0.2, 0.4)])
    def test_reg_integral_past_the_switch_is_the_tail_quadrature(self, gamma):
        # past x_switch reg_integral adds the closed-form tail integral to
        # the forward run's value at x_switch; the quadrature oracle gives
        # the same sum, the two tail parts (about 1e-14) 1.0e-21 apart
        sol = solve_global(gamma, 0.08)
        head = sol.forward.reg_integral_to(sol.x_switch)
        for x2 in np.linspace(sol.x_switch, sol.x_right, 25)[1:].tolist():
            quad = tail_quad(sol, sol.x_switch, x2)
            assert abs(sol.reg_integral(x2) - (head + quad)) <= 1e-20
            assert abs(sol.truncation(sol.x_switch) - sol.truncation(x2) - quad) <= 1e-20

    def test_default_basis_gives_the_shared_basis_numbers(self, sol_031):
        # the tail is closed-form and `basis` unused, so a solve given
        # make_backward_basis() (the benchmark's call) matches one given
        # none bit for bit
        sol = solve_global((0.3, 0.1), 0.01, basis=make_backward_basis())
        assert sol.amps == sol_031.amps
        assert sol.reg_integral(7.0) == sol_031.reg_integral(7.0)
        assert sol.state(6.0) == sol_031.state(6.0)

    def test_stats_count_every_integration(self, monkeypatch):
        # every run, counted where the solve enters the stepper: the series
        # has converged at x0 = 0.01, so one tangent probe to 4.95 and the
        # plain run on from its last node at or below 3 to 4.95
        runs = []
        integrate_raw = global_solutions._integrate_raw

        def counted(n, y0, x0, x_end, cfg):
            traj = integrate_raw(n, y0, x0, x_end, cfg)
            runs.append((x0, x_end, traj))
            return traj

        monkeypatch.setattr(global_solutions, "_integrate_raw", counted)
        sol = solve_global((0.3, 0.1), 0.01)
        stats = sol.diagnostics["integrator_stats"]
        assert stats["integrations"] == len(runs) == 2
        assert stats["rhs_evals"] == sum(t.stats.n_rhs_evals for _, _, t in runs)
        assert stats["steps"] == sum(t.stats.n_steps for _, _, t in runs)
        assert stats["rejected"] == sum(t.stats.n_rejected for _, _, t in runs)
        # the tangent probe's calls with columns, all but its initial-step
        # trial call
        (x0, end, tangent), (x_on, end_on, plain) = runs
        assert plain.stats.n_tangent_rhs == 0
        assert stats["tangent_rhs_evals"] == tangent.stats.n_tangent_rhs \
            == tangent.stats.n_rhs_evals - 1
        assert x0 == 0.01 and end == end_on == 4.95
        assert x_on == tangent.xs[tangent.xs <= 3.0][-1]
        # the kept orbit is the shifted probe up to x_on, then the plain run
        assert np.array_equal(sol.forward.xs, np.concatenate(
            [tangent.xs[tangent.xs <= x_on], plain.xs[1:]]))

    def test_residual_is_measured_on_the_kept_trajectory(self, sol_031):
        d = sol_031.diagnostics
        r = global_solutions._mode_residual(sol_031.forward.sample_state(d["station"]),
                                            d["station"])
        assert float(np.max(np.abs(r))) == d["residual"]
        assert sol_031.forward.x_final == d["station"] == 4.95

    def test_unconverged_series_raises_naming_a(self):
        # a = 2 - 1.9 = 0.10000000000000009, named exactly: the series' first
        # dropped term is still 6e-9 near 1e-8, the lowest start
        with pytest.raises(GlobalSolveError,
                           match=r"6\.0\d*e-09 at a\(gamma\) = 0\.10000000000000009,"):
            solve_global((-0.95, 0.0), 0.01)

    def test_nan_first_dropped_term_is_not_converged(self):
        # NaN < 1e-13 is false, so the start search halves to its floor
        series = SmallXSeries(3, (0.3, 0.1))
        with pytest.raises(GlobalSolveError, match="first dropped term nan"):
            global_solutions._converged_start(series, (math.nan, 0.0), 0.01)

    def test_x0_validation(self):
        with pytest.raises(UnsupportedConfigError, match=r"x0 must lie in \(0, 0\.1\]"):
            solve_global((0.3, 0.1), 0.5)

    @pytest.mark.parametrize("gamma", [(0.3, 0.1, 0.7), [0.3]])
    def test_gamma_of_the_wrong_length_is_refused(self, gamma):
        # a third entry was dropped, and a single one raised IndexError
        with pytest.raises(ShapeError, match="length 2"):
            solve_global(gamma, 0.01)

    def test_x0_is_the_orbit_start(self):
        # at (0.0, 0.8), a = 0.4, the series has not converged at 0.1, so
        # the orbit starts below it, and reg_integral is measured from there
        sol = solve_global((0.0, 0.8), 0.1)
        assert sol.x0 == sol.diagnostics["x_start"] == 0.1 * 2.0 ** -8
        assert sol.x0 == float(sol.forward.xs[0])
        assert sol.reg_integral(sol.x0) == 0.0
        with pytest.raises(ValueError):
            sol.reg_integral(0.5 * sol.x0)

    @pytest.mark.parametrize("outside", [lambda s: 0.5 * s.x0, lambda s: s.x_right + 1e-9,
                                         lambda s: 200.0])
    def test_state_outside_the_orbit_is_refused(self, sol_031, outside):
        # beyond x_right the tail was read unchecked (w ~ -1.5e-248 at 200),
        # and below x0 the forward run's error named its own covered range
        span = f"[{sol_031.x0}, {sol_031.x_right}]"
        with pytest.raises(ValueError, match=re.escape(f"x must lie in {span}")):
            sol_031.state(outside(sol_031))
        for read in (sol_031.reg_integral, sol_031.truncation):
            with pytest.raises(ValueError, match=re.escape(f"x2 must lie in {span}")):
                read(outside(sol_031))

    @pytest.mark.parametrize("outside", [
        lambda s: 0.0, lambda s: -1.0, lambda s: s.x_right + 1e-9, lambda s: math.nan,
        lambda s: np.array([5.0, 6.0, math.nan, 7.0]),
        lambda s: np.linspace(5.0, s.x_right + 1e-9, 7).reshape(1, 7)])
    def test_tail_state_outside_the_orbit_is_refused(self, sol_031, outside):
        # it read the tail's formula anywhere: w = (-119.9, -29.0) at 0.0,
        # and inf and NaN with numpy warnings at -1.0
        span = f"[{sol_031.x0}, {sol_031.x_right}]"
        with pytest.raises(ValueError, match=re.escape(f"x must lie in {span}")):
            sol_031.tail_state(outside(sol_031))

    def test_tail_state_reads_arrays_at_both_ends(self, sol_031):
        xs = np.array([[sol_031.x0, 5.0], [6.0, sol_031.x_right]])
        y = sol_031.tail_state(xs)
        assert y.shape == (4, 2, 2)
        assert y[:, 1, 1].tolist() == sol_031.tail_state(sol_031.x_right).tolist()

    def test_state_at_both_ends(self, sol_031):
        assert sol_031.state(sol_031.x0).x == sol_031.x0
        assert sol_031.state(sol_031.x_right).x == sol_031.x_right


class TestLinearPrediction:
    @pytest.mark.parametrize("gamma", ACCEPTANCE_GAMMAS,
                             ids=[f"gamma{i}" for i in range(len(ACCEPTANCE_GAMMAS))])
    def test_kept_orbit_against_a_plain_probe(self, gamma):
        # the kept orbit (the tangent probe moved by the Newton step up to
        # its last node at or below 3, a plain run beyond) against a plain
        # probe from the seed at rho_seed = rho_formula - step.  Measured
        # worst over these gammas, reached at (-0.88, 0.3): reg_integral(4.2)
        # 6.8e-14; w, wt at 0.5 3.9e-14, at 3 1.6e-9 and at 4.2 2.2e-7, the
        # plain probe's own growing content (its residual at 4.95 reaches
        # 3.9e-6, the kept orbit's 2.6e-10); the amplitudes 8.2e-10.
        # On the trivial orbit both runs are identically zero.
        sol = solve_global(gamma, 0.01)
        d = sol.diagnostics
        plain = global_solutions._integrate_raw(
            3, d["series"].seed(np.array(sol.rho_seed), sol.x0), sol.x0, 4.95,
            IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        kept = sol.forward
        assert abs(kept.reg_integral_to(4.2) - plain.reg_integral_to(4.2)) <= 2e-13
        for x, bound in ((0.5, 1e-13), (3.0, 5e-9), (4.2, 6e-7)):
            assert np.max(np.abs(kept.sample_state(x) - plain.sample_state(x))[:4]) <= bound
        amps, _resid = global_solutions._match(plain)
        assert np.max(np.abs(np.subtract(amps, sol.amps))) <= 3e-9
        assert d["residual"] <= 1e-9


class TestAntidiagonal:
    def test_s1_zero_case_solves(self):
        # on gamma1 = -gamma0 the slow tail coefficient vanishes and the
        # fast exp(-4x) mode carries the decay; the solve must still work
        sol = solve_global((0.1, -0.1), 0.01)
        # the overlap signal is only the fast mode here; the growing modes
        # take up the run's error, so the match is as tight as elsewhere
        # and the slow amplitude vanishes (2e-20)
        assert sol.diagnostics["match_residual"] < 1e-6
        assert abs(sol.amps[0]) < 1e-12
        w5 = sol.state(5.0).w
        assert abs(w5[0]) < 1e-6


class TestShootingJacobian:
    def test_tangent_columns_match_central_difference(self):
        # the exact Jacobian of the growing-mode residual at station 1
        # against a central difference of plain probes in each rho_j
        gamma, x0, x_p = (0.3, 0.1), 0.01, 1.0
        rho = np.array(global_rho(3, gamma))
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        series = SmallXSeries(3, gamma).cut(rho, x0)

        def probe(rho, tangents=False):
            return global_solutions._integrate_raw(3, series.seed(rho, x0, tangents),
                                                   x0, x_p, cfg)

        traj = probe(rho, tangents=True)
        J = np.column_stack([global_solutions._mode_residual(col, x_p)
                             for col in traj.tangent_ys[:, :, -1]])
        h = 1e-4
        for j in range(2):
            e = np.eye(2)[j] * h
            rp, rm = (global_solutions._mode_residual(probe(rho + s).sample_state(x_p), x_p)
                      for s in (e, -e))
            fd = (rp - rm) / (2 * h)
            assert np.all(np.abs(J[:, j] - fd) <= 1e-6 * np.max(np.abs(fd)))


class TestModeTable:
    def test_table_is_the_linearised_link_data(self):
        # w = 0 is an equilibrium of the n = 3 chain (A^T c = 0), and the
        # table's rows are the eigenvectors of its linearisation A^T diag(c) A
        # with eigenvalues r_k^2: a change to either table alone fails here
        A, c = _links(3)
        assert np.all(A.T @ c == 0.0)
        M = A.T @ np.diag(c) @ A
        for r, v in zip(global_solutions._RATES, global_solutions._VECTORS):
            np.testing.assert_allclose(M @ v, r * r * v, rtol=1e-15, atol=0.0)

    def test_mode_residual_detects_growing_modes(self):
        # the exact modes at the station: the decaying ones leave a residual
        # small against their size, the growing ones one of their size, and
        # each mode shows only in its own component
        x = global_solutions._STATION
        for growing, lo, hi in ((False, 0.0, 1e-3), (True, 0.5, math.inf)):
            for k, e in enumerate(np.eye(2)):
                y = global_solutions._modes(x, e, growing)
                r = global_solutions._mode_residual(y, x)
                assert lo <= abs(r[k]) / np.max(np.abs(y)) <= hi
                assert r[1 - k] == 0.0


def _cut(gamma, rho, x):
    return SmallXSeries(3, gamma).cut(rho, x)


def series_tables_mask(n_links, N=9):
    """The series' index tables as first built, from a dense (N + 1)^n_links
    lookup of every multi-index and an (R, R, n_links) mask of the pairs
    j <= k: the oracle of `_series_tables` over the few links where these
    arrays stay small."""
    ks = np.array(sorted((k for k in itertools.product(range(N + 1), repeat=n_links)
                          if sum(k) <= N), key=lambda k: (sum(k), [-v for v in k])))
    links = np.arange(n_links)
    code = (N + 1) ** links
    lookup = np.zeros((N + 1) ** n_links, dtype=int)
    lookup[ks @ code] = np.arange(len(ks))
    shift = n_links * np.where(ks > 0, lookup[(ks[:, None] - np.eye(n_links, dtype=int)) @ code],
                               len(ks)) + links
    pk, pj = np.nonzero(np.all(ks[None] <= ks[:, None], axis=2) & (ks.sum(1) > 0))
    pm = lookup[(ks[pk] - ks[pj]) @ code]
    first = np.searchsorted(ks.sum(1), np.arange(N + 2))
    return (ks, first, shift, pk, pj, pm, np.searchsorted(pk, np.arange(len(ks) + 1)),
            ks.sum(1)[pj, None].astype(float))


class TestSeriesTables:
    @pytest.mark.parametrize("n_links", [2, 3, 4, 5])
    def test_equal_to_the_mask_tables(self, n_links):
        got, want = global_solutions._series_tables(n_links), series_tables_mask(n_links)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("n, top", [(10, 9), (12, 7), (41, 3)])
    def test_top_order_from_the_link_count(self, n, top):
        # the largest order <= 9 with at most 5005 multi-indices: 9 up to
        # 6 links (n <= 10), 7 at 7 links, 3 at the 22 links of n = 41
        gamma = 0.4 * np.cos(np.arange(reduced_length(n)))
        series = SmallXSeries(n, gamma)
        m = reduced_length(n) + 1
        assert series.rows.shape == (m, m - 1) and series.order == top
        assert len(series.ks) == math.comb(top + m, m) - 1
        cut = series.cut(np.zeros(m - 1), 1e-3)
        assert cut.order < top and cut.error < 1e-13


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
            cols = np.array(y[5:]).reshape(2, 5)
            assert np.all(cols[:, 4] == 0.0)   # q starts at 0 whatever rho
            h = 1e-6
            for j in range(2):
                e = np.eye(2)[j] * h
                fd = (np.array(series.seed(rho + e, x0)[:4])
                      - np.array(series.seed(rho - e, x0)[:4])) / (2 * h)
                assert np.all(np.abs(cols[j, :4] - fd) <= 1e-9)

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
        K1 = copy.copy(SmallXSeries(3, gamma))
        K1.ks, K1.ks_s, K1.c, K1.f = (v[:3] for v in (K1.ks, K1.ks_s, K1.c, K1.f))
        for x in (2.5e-3, 6.25e-4):
            s = 2.0 + 0.5 * A @ g
            P = np.exp(0.5 * A @ rho) * x ** s
            w = 0.5 * g * math.log(x) + 0.5 * rho - 2.0 * np.diff(P / s ** 2)
            wt = 0.5 * g - 2.0 * np.diff(P / s)
            cols = [np.concatenate([0.5 * np.eye(2)[j] - np.diff(A[:, j] * P / s ** 2),
                                    -np.diff(A[:, j] * P / s), [0.0]]) for j in range(2)]
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
        series = SmallXSeries(3, gamma)
        terms, orders = series.terms(rho, x), series.ks.sum(1)
        part = [float(np.max(np.abs(terms[orders == n].sum(0)))) for n in range(10)]
        cut = series.cut(rho, x)
        assert cut.order == K and len(cut.ks) == np.sum(orders <= K)
        assert cut.error == pytest.approx(part[K + 1], rel=1e-12, abs=0.0)
        assert cut.error < 1e-13 <= min(part[2:K + 1])

    @pytest.mark.parametrize("n, gamma", [(1, (0.3,)), (2, (0.3,)), (3, (0.3, 0.1)),
                                          (4, (0.3, 0.1)), (5, (0.3, 0.2, 0.1))],
                             ids=[f"n{n}" for n in range(1, 6)])
    def test_closer_to_the_orbit_than_leading_order(self, n, gamma):
        # a tight run from each seed at 1e-3 to 2e-3 against the same
        # seed formula at 2e-3: the series seed drops terms below 1e-13,
        # the leading-order one, w = gamma/2 log x + rho/2 and wt = gamma/2,
        # O(x^a) terms
        x0, x1, L = 1e-3, 2e-3, len(gamma)
        g, rho = np.array(gamma), np.array(global_rho(n, gamma))
        cfg = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)

        def miss(seed):
            traj = global_solutions._integrate_raw(n, seed(x0), x0, x1, cfg)
            return float(np.max(np.abs(traj.ys[:2 * L, -1] - np.array(seed(x1)[:2 * L]))))

        def leading(x):
            return [*(0.5 * g * math.log(x) + 0.5 * rho), *(0.5 * g), 0.0]

        def series(x):
            p = init_from_asymptotics(AsymptoticData(n, gamma, tuple(rho)), x)
            assert p.x == x
            return [*p.w, *p.wt, 0.0]

        corrected = miss(series)
        assert corrected <= 1e-13 and corrected <= 1e-3 * miss(leading)

    # the ids name the first station of an earlier ladder (3); kept, so
    # that the test ids stay stable
    @pytest.mark.parametrize("gamma, first, x0", [((0.3, 0.1), 4.95, 2.5e-3),
                                                  ((0.3, 0.1), 4.95, 0.01)],
                             ids=["gamma0-3.0", "gamma2-3.0-0.01"])
    def test_first_station_from_predicted_seed_error(self, gamma, first, x0,
                                                      monkeypatch):
        # the shooting goes to the station 4.95 at once, from x0 where the
        # series has converged: at (0.3, 0.1) by order 2 at x0 = 2.5e-3
        # and by order 3 at 0.01
        ends = []
        integrate_raw = global_solutions._integrate_raw

        def recorded(n, y0, x0, x_end, cfg):
            ends.append(x_end)
            return integrate_raw(n, y0, x0, x_end, cfg)

        monkeypatch.setattr(global_solutions, "_integrate_raw", recorded)
        global_solutions._refine_rho(SmallXSeries(3, gamma), global_rho(3, gamma), x0)
        assert ends[0] == first


class TestShootingErrors:
    # the three ways one shooting pass fails, each a GlobalSolveError
    def test_probe_that_stops_raises(self):
        # 1e-3 off the global rho the growing modes blow the probe up
        # before the station
        gamma = (0.3, 0.1)
        rho = np.array(global_rho(3, gamma)) + 1e-3
        with pytest.raises(GlobalSolveError,
                           match=r"probe from x = 0\.01 stopped \(blowup\) at x = 2\.9"):
            global_solutions._refine_rho(SmallXSeries(3, gamma), rho, 0.01)

    def test_singular_jacobian_raises(self, monkeypatch):
        # a growing-mode residual blind to the state makes every
        # Jacobian column zero
        monkeypatch.setattr(global_solutions, "_mode_residual", lambda y, x_p: np.zeros(2))
        with pytest.raises(GlobalSolveError, match="singular shooting Jacobian"):
            solve_global((0.3, 0.1), 0.01)

    def test_kept_residual_above_1e_4_raises(self, monkeypatch):
        # a relaunch from x = 3 started 1e-3 off the shifted probe grows
        # to a residual of about 10 at the station
        integrate_raw = global_solutions._integrate_raw

        def nudged(n, y0, x0, x_end, cfg):
            y0 = list(y0)
            if len(y0) == 5:   # the plain relaunch, not the tangent probe
                y0[0] += 1e-3
            return integrate_raw(n, y0, x0, x_end, cfg)

        monkeypatch.setattr(global_solutions, "_integrate_raw", nudged)
        with pytest.raises(GlobalSolveError, match=r"residual \d\.\d+e\+01 on the kept orbit"):
            solve_global((0.3, 0.1), 0.01)


class TestLastStationStop:
    # the ids' last part names the rule that ended each solve when there
    # were three; kept, so that the test ids stay stable
    @pytest.mark.parametrize("gamma, x0", [((0.3, 0.1), 0.01), ((0.0, 0.0), 0.08),
                                           ((-0.9, -0.56), 0.08)],
                             ids=["gamma0-0.01-linear", "gamma1-0.08-residual",
                                  "gamma2-0.08-linear"])
    def test_stop_rule_reaches_the_diagnostics(self, gamma, x0):
        # every solve ends on one rule: one tangent probe, its Newton step
        # (2.5e-14 at (0.3, 0.1), 1.1e-12 at a = 0.2, shot from 1.53e-7, and
        # 0 on the trivial orbit) and one relaunch from x = 3
        sol = solve_global(gamma, x0)
        d = sol.diagnostics
        assert (d["iterations"], d["integrator_stats"]["integrations"]) == (1, 2)
        assert d["station"] == 4.95

    @pytest.mark.parametrize("gamma", [
        (0.12595764089719053, -0.036345506116953086),
        (-0.07942979256751737, 0.030824547484363585),
        (-0.15049706355329584, -0.36157201972442965),
        (0.32441796679765633, -0.05589800706265402),
        (0.6026678376829728, 0.2904286989281688),
        (-0.20696159349945153, -0.35950309998708607),
        (0.0977723385275513, -0.050626816674590014),
        (0.04648736246320362, 0.025224071063725706),
        (-0.02844556670367271, -0.05612868467317833)])
    def test_small_steps_relaunch_too(self, gamma):
        # these 9 of 1,248 seeded gammas take a Newton step below 1e-14.
        # Kept as probes, their residuals were 5.8e-8 to 2.3e-6; shifted
        # and relaunched, they are 1.0e-14 to 5.5e-14
        assert constant_numeric(gamma).shooting["residual"] <= 1e-12

    def test_a_step_beyond_the_linear_rule_raises(self):
        # started 1e-9 off the global rho, the probe's Newton step is about
        # that large, far above the 1e-11 that a shift along the columns
        # may take: one probe, and an error naming the step
        gamma = (0.3, 0.1)
        rho = np.array(global_rho(3, gamma)) + 1e-9
        with pytest.raises(GlobalSolveError, match=r"Newton step 1\.\d+e-09 off the shooting"):
            global_solutions._refine_rho(SmallXSeries(3, gamma), rho, 0.01)

    def test_probes_do_not_depend_on_the_noise_floor(self):
        # at (0.42223887, -0.69539036) the one solve is at x1 = 0.02, K = 8.
        # Nudging the starting rho by a few ulps moves the probe's residual
        # (1.72e-5 to 1.76e-5) and its Newton step (4.3e-14 to 4.4e-14),
        # but not the rule: one probe and the plain run from 3 on each time
        gamma = (0.42223887, -0.69539036)
        rep = constant_numeric(gamma)
        assert rep.x1 == 0.02 and rep.integrator_stats["integrations"] == 2
        assert rep.shooting["iterations"] == 1
        series, rho = SmallXSeries(3, gamma), np.array(global_rho(3, gamma))
        for ulps in [(0, 0), (1, 0), (-1, 0), (0, 2), (-3, 2), (2, -2), (3, 0)]:
            nudged = [r + k * math.ulp(r) for r, k in zip(rho, ulps)]
            _rho, info, _traj = global_solutions._refine_rho(series, nudged, 0.02)
            assert info["iterations"] == 1 and info["integrator_stats"]["integrations"] == 2
