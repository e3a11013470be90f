"""Acceptance gate: every headline criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.  Each test both asserts and prints its measured numbers.
"""

import math
import time

import numpy as np

from ttstar_toda.data_maps import (AsymptoticData, GenericityError,
                                   asymptotic_to_monodromy, check_genericity,
                                   global_rho, monodromy_to_asymptotic,
                                   reduced_length, verify_generating_function,
                                   verify_symplectic)
from ttstar_toda.global_solutions import init_from_asymptotics
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, PhasePoint,
                                          check_quasihomogeneity, hamiltonian,
                                          integrate, tail_amplitude_s1,
                                          vector_field)
from ttstar_toda.special_functions import (log_barnes_g, log_gamma, psi_m2,
                                           psi_m2_oracle)
from ttstar_toda.tau_constant import (classical_action, constant_numeric,
                                      log_tau)

GENERIC_GAMMAS = [(0.3, 0.1), (0.1, -0.1), (0.5, 0.2), (-0.2, 0.4), (0.25, -0.35)]


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_generic(rng, n, scale=0.45, margin=5e-3):
    L = reduced_length(n)
    while True:
        g = tuple(rng.uniform(-scale, scale, L))
        try:
            check_genericity(n, g, margin=margin)
            return g
        except GenericityError:
            continue


def test_criterion_1_constant_trivial():
    t0 = time.perf_counter()
    rep = constant_numeric((0.0, 0.0))
    dt = time.perf_counter() - t0
    ok = abs(rep.c_numeric) <= 1e-6 and abs(rep.c_closed) <= 1e-12 and dt <= 5.0
    _report(1, ok, f"c_numeric={rep.c_numeric:.3e} (<=1e-6), "
                   f"c_closed={rep.c_closed:.3e} (<=1e-12), runtime={dt:.1f}s (<=5s)")


def test_criterion_2_constant_generic():
    worst = 0.0
    details = []
    for g in GENERIC_GAMMAS:
        t0 = time.perf_counter()
        rep = constant_numeric(g)
        dt = time.perf_counter() - t0
        worst = max(worst, rep.abs_diff)
        details.append(f"{g}: diff={rep.abs_diff:.2e} in {dt:.0f}s")
        assert dt <= 60.0, f"runtime for {g}: {dt:.0f}s > 60s"
    _report(2, worst <= 1e-3, f"max |c_numeric - c_closed| = {worst:.2e} "
                              f"(<=1e-3); " + "; ".join(details))


def test_criterion_3_generating_function():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 3, 4, 5):
        for _ in range(50):
            g = random_generic(rng, n)
            rho = tuple(rng.uniform(-0.5, 0.5, reduced_length(n)))
            rep = verify_generating_function(n, g, rho, h=1e-4)
            worst = max(worst, rep.max_residual)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt <= 10.0
    _report(3, ok, f"max residual = {worst:.2e} (<=1e-6) over 50 samples "
                   f"x n in {{1,3,4,5}}, runtime={dt:.1f}s (<=10s)")


def test_criterion_4_symplectic():
    rng = np.random.default_rng(4096)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 5):
        for _ in range(50):
            g = random_generic(rng, n)
            rep = verify_symplectic(n, g, h=1e-4)
            worst = max(worst, rep.max_asymmetry)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-7 and dt <= 10.0
    _report(4, ok, f"max asymmetry = {worst:.2e} (<=1e-7) over 50 samples "
                   f"x n in {{3,5}}, runtime={dt:.1f}s (<=10s)")


def test_criterion_5_round_trip():
    rng = np.random.default_rng(555)
    worst_rt = 0.0
    worst_le = 0.0
    for n in range(1, 7):
        for _ in range(50):
            g = random_generic(rng, n)
            rho = tuple(rng.uniform(-1.0, 1.0, reduced_length(n)))
            a = AsymptoticData(n, g, rho)
            back = monodromy_to_asymptotic(asymptotic_to_monodromy(a))
            worst_rt = max(worst_rt,
                           max(abs(x - y) for x, y in zip(back.gamma, a.gamma)),
                           max(abs(x - y) for x, y in zip(back.rho, a.rho)))
            md = asymptotic_to_monodromy(
                AsymptoticData(n, g, tuple(global_rho(n, g))))
            worst_le = max(worst_le, max(abs(v) for v in md.log_e))
    ok = worst_rt <= 1e-12 and worst_le <= 1e-12
    _report(5, ok, f"round-trip error = {worst_rt:.2e} (<=1e-12), "
                   f"smooth-family log_e = {worst_le:.2e} (<=1e-12)")


def test_criterion_6_special_function_kernel():
    rng = np.random.default_rng(66)
    worst_psi = max(abs(psi_m2(float(z)) - psi_m2_oracle(float(z)))
                    for z in rng.uniform(0.01, 2.0, 50))
    worst_rec = max(abs(log_barnes_g(1.0 + float(z))
                        - (log_gamma(float(z)) + log_barnes_g(float(z))))
                    for z in rng.uniform(0.05, 2.5, 100))
    ok = worst_psi <= 1e-10 and worst_rec <= 1e-12
    _report(6, ok, f"psi_m2 vs oracle = {worst_psi:.2e} (<=1e-10), "
                   f"Barnes recursion = {worst_rec:.2e} (<=1e-12)")


def test_criterion_7_dynamics_identities():
    rng = np.random.default_rng(777)
    h = 1e-4

    def d4(f, v0, i):
        # fourth-order centered stencil: the 1e-9 budget is below the
        # three-point rounding floor at these Hamiltonian magnitudes
        def at(delta):
            v = list(v0); v[i] += delta
            return f(tuple(v))
        return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)

    worst_grad = 0.0
    for n in (1, 3, 5):
        L = reduced_length(n)
        for _ in range(100):
            p = PhasePoint(x=float(rng.uniform(0.2, 4.0)),
                           w=tuple(rng.uniform(-0.4, 0.4, L)),
                           wt=tuple(rng.uniform(-1.0, 1.0, L)))
            dw, dwt = vector_field(p, n)
            for i in range(L):
                dH = d4(lambda w: hamiltonian(PhasePoint(p.x, w, p.wt), n), p.w, i)
                worst_grad = max(worst_grad, abs(dwt[i] + dH))
                dHt = d4(lambda wt: hamiltonian(PhasePoint(p.x, p.w, wt), n), p.wt, i)
                worst_grad = max(worst_grad, abs(dw[i] - dHt))

    worst_quasi = 0.0
    for _ in range(100):
        p = PhasePoint(x=float(rng.uniform(0.2, 4.0)),
                       w=tuple(rng.uniform(-0.4, 0.4, 2)),
                       wt=tuple(rng.uniform(-1.0, 1.0, 2)))
        lam = float(rng.uniform(0.1, 1e3))
        res = check_quasihomogeneity(p, lam, 3)
        worst_quasi = max(worst_quasi,
                          res / (1.0 + abs(lam * hamiltonian(p, 3))))

    # action identity along an integrated near-global trajectory
    worst_action = 0.0
    for g in ((0.3, 0.1), (0.2, -0.05)):
        a = AsymptoticData(3, g, tuple(global_rho(3, g)))
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
        traj = integrate(init_from_asymptotics(a, 0.01), 2.2, cfg, 3)
        s_val = classical_action(traj)
        x1, x2 = traj.points[0].x, traj.x_final
        lt = traj.reg_integral - (x2 ** 2 - x1 ** 2)
        bd = (x2 * hamiltonian(traj.points[-1], 3)
              - x1 * hamiltonian(traj.points[0], 3))
        worst_action = max(worst_action, abs(lt - s_val - bd))

    # trivial solution pinned at the origin, log tau exactly quadratic
    a0 = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
    traj0 = integrate(init_from_asymptotics(a0, 0.01), 8.0, IntegratorConfig(), 3)
    maxw = max(max(abs(v) for v in pt.w) for pt in traj0.points)
    lt0 = log_tau((0.0, 0.0), 0.01, 8.0)
    triv_err = abs(lt0 - (0.01 ** 2 - 64.0))

    ok = (worst_grad <= 1e-9 and worst_quasi <= 1e-12
          and worst_action <= 1e-7 and maxw <= 1e-9 and triv_err <= 1e-9)
    _report(7, ok, f"gradient={worst_grad:.2e} (<=1e-9), "
                   f"quasihomogeneity={worst_quasi:.2e} (<=1e-12 rel), "
                   f"action identity={worst_action:.2e} (<=1e-7), "
                   f"trivial max|w|={maxw:.2e} (<=1e-9), "
                   f"log tau trivial err={triv_err:.2e} (<=1e-9)")


def test_criterion_8_large_x_tail(sol_031):
    # w_0 sqrt(x) exp(2 sqrt 2 x) tends to amp_sum sqrt(pi) 2^(-5/4), the
    # large-z limit of the tail's A K0(2 sqrt 2 x)
    s1 = tail_amplitude_s1((0.3, 0.1))
    predicted = -s1 * 2.0 ** -1.75 / math.sqrt(math.pi)
    limit = sol_031.amp_sum * math.sqrt(math.pi) * 2.0 ** -1.25
    rel = abs(limit - predicted) / abs(predicted)
    _report(8, rel <= 1e-6,
            f"tail amplitude {limit:.12e} vs -s1 2^(-7/4) pi^(-1/2) "
            f"= {predicted:.12e}; relative error {rel:.2e} (<=1e-6)")
