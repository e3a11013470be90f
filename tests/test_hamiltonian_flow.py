import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttstar_toda import hamiltonian_flow, init_from_asymptotics
from ttstar_toda.data_maps import (AsymptoticData, ShapeError, expand_reduced,
                                   global_rho, reduced_length)
from ttstar_toda.global_solutions import SmallXSeries
from ttstar_toda.hamiltonian_flow import (IntegratorConfig, PhasePoint,
                                          UnsupportedConfigError,
                                          check_quasihomogeneity, hamiltonian,
                                          integrate, reg_density, tail_amplitude_s1,
                                          trajectory_to_csv, vector_field)

SQ8 = 2.0 * math.sqrt(2.0)


def over_chains(*ns):
    """Parametrise over the chains n, each case named by n and its parity
    ("3-False", "4-True")."""
    return pytest.mark.parametrize("n", [pytest.param(n, id=f"{n}-{n % 2 == 0}") for n in ns])


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
        assert hamiltonian(p, 2) == pytest.approx(
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_explicit_exp_formulas(self, n):
        # the stated formulas with plain exponentials, sharing no code with
        # the expm1 kernel behind hamiltonian and vector_field: H from the
        # n + 1 gaps of the full periodic chain (`expand_reduced`, with the
        # forced middle 0 at even n), and for odd n also the reduced form
        rng = np.random.default_rng(300 + n)
        L = reduced_length(n)
        for _ in range(50):
            p = rand_point(rng, n)
            x, w, wt = p.x, p.w, p.wt
            full = expand_reduced(n, w)
            H = (sum(v * v for v in wt) / (2.0 * x)
                 - 0.5 * x * sum(math.exp(2.0 * (full[(i + 1) % (n + 1)] - full[i]))
                                 for i in range(n + 1)))
            assert hamiltonian(p, n) == pytest.approx(H, rel=1e-13)
            if n % 2:
                H = (sum(v * v for v in wt) / (2.0 * x)
                     - x * sum(math.exp(2.0 * (w[i] - w[i - 1])) for i in range(1, L))
                     - 0.5 * x * (math.exp(-4.0 * w[L - 1]) + math.exp(4.0 * w[0])))
                assert hamiltonian(p, n) == pytest.approx(H, rel=1e-13)
            # w_{-1} = -w_0, and w_{K+1} = -w_K (odd n) or the middle 0 (even n)
            ext = [full[-1]] + full[:L + 1]
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
            _dw, dwt = vector_field(p, n)
            for i in range(L):
                wp = list(p.w); wp[i] += h
                wm = list(p.w); wm[i] -= h
                dH_dw = (hamiltonian(PhasePoint(p.x, tuple(wp), p.wt), n)
                         - hamiltonian(PhasePoint(p.x, tuple(wm), p.wt), n)) / (2 * h)
                assert abs(dwt[i] + dH_dw) <= 1e-9


class TestKernelForms:
    @over_chains(1, 3, 5, 2, 4)
    def test_float_and_batch_paths_agree(self, n):
        # one kernel, two input forms: floats through math.expm1, an array
        # batch (components on axis 0) through np.expm1
        L = reduced_length(n)
        f, _L = hamiltonian_flow._make_rhs(n, 2 * L + 1)
        rng = np.random.default_rng(400 + n)
        x = rng.uniform(0.05, 4.0, 30)
        y = np.vstack([rng.uniform(-0.4, 0.4, (L, 30)), rng.uniform(-1.0, 1.0, (L, 30)),
                       np.zeros((1, 30))])
        batch = f(x, y)
        assert batch.shape == (2 * L + 1, 30)
        singles = np.array([f(float(x[j]), y[:, j].tolist()) for j in range(30)]).T
        scale = np.max(np.abs(batch), axis=1, keepdims=True)
        assert np.all(np.abs(singles - batch) <= 1e-13 * scale)

    def test_other_lengths_are_refused(self):
        # a length that is neither [w, wt] nor the state and whole columns
        for size in (0, 3, 6, 9, 14, 16):
            with pytest.raises(UnsupportedConfigError, match="components"):
                hamiltonian_flow._make_rhs(3, size)

    def test_overflow_gives_the_batch_infinities(self):
        # math.expm1 raises where np.expm1 returns inf; a wild trial state
        # must come back non-finite, so that the stepper rejects the step
        f, _L = hamiltonian_flow._make_rhs(3, 5)
        y = [200.0, 0.0, 0.1, 0.2, 0.0]
        with np.errstate(over="ignore"):
            floats, batch = f(1.0, y), f(1.0, np.array(y)).tolist()
        assert floats == batch == [0.1, 0.2, math.inf, -2.0, -math.inf]


def eom_loops(x, y, n):
    """The equations of motion of [w, wt, q] and of tangent columns [dw,
    dwt, dq] after it, as plain loops over the links: link 0 has exponent
    4 w_0, link i 2 (w_i - w_{i-1}), the last -4 w_{L-1} (odd n) or -2
    w_{L-1} (even n, weight 2); a list is evaluated with math.expm1, an
    array with np.expm1."""
    L = reduced_length(n)
    dim = 2 * L + 1
    even = n % 2 == 0
    last, last_weight = (-2.0, 2.0) if even else (-4.0, 1.0)
    q_const = 1.5 - float(L) if even else 2.0 - float(L)
    batch = isinstance(y, np.ndarray)
    expm1 = np.expm1 if batch else math.expm1
    try:
        E = [expm1(4.0 * y[0])]
        for i in range(1, L):
            E.append(expm1(2.0 * (y[i] - y[i - 1])))
        E.append(expm1(last * y[L - 1]))
    except OverflowError:
        return eom_loops(x, np.array(y), n).tolist()
    out = []
    ww = 0.0
    for i in range(L):
        out.append(y[L + i] / x)
        ww = ww + y[L + i] * y[L + i]
    for i in range(L):
        out.append(-2.0 * x * (E[i + 1] - E[i]))
    e_inner = 0.0
    for i in range(1, L):
        e_inner = e_inner + E[i]
    out.append(ww / (2.0 * x) - x * e_inner + q_const * x
               - 0.5 * x * (last_weight * E[L] + E[0]))
    for c in range(dim, len(y), dim):
        dE = [4.0 * (E[0] + 1.0) * y[c]]
        for i in range(1, L):
            dE.append(2.0 * (E[i] + 1.0) * (y[c + i] - y[c + i - 1]))
        dE.append(last * (E[L] + 1.0) * y[c + L - 1])
        for i in range(L):
            out.append(y[c + L + i] / x)
        for i in range(L):
            out.append(-2.0 * x * (dE[i + 1] - dE[i]))
        # dq' = (wt . dwt)/x - x sum_l c_l dE_l, the inner links first
        dww = y[L] * y[c + L]
        for i in range(1, L):
            dww = dww + y[L + i] * y[c + L + i]
        links = dE[1:L] + [0.5 * (last_weight * dE[L] + dE[0])]
        total = links[0]
        for v in links[1:]:
            total = total + v
        out.append(dww / x - x * total)
    return np.array(out) if batch else out


def bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def kernel_layout(n, ncols):
    """(body, L, state entries, tangent columns) of a kernel input: the
    state [w, wt, q] and ncols columns, "L" columns for a chain of L modes,
    or for "2L" the bare [w, wt] that `hamiltonian`, `vector_field` and the
    matched tail's quadrature pass; the body is `_make_rhs`'s for that
    input's size."""
    L = reduced_length(n)
    state, cols = (2 * L, 0) if ncols == "2L" else (2 * L + 1, L if ncols == "L" else ncols)
    f, _L = hamiltonian_flow._make_rhs(n, state + (2 * L + 1) * cols)
    return f, L, state, cols


class TestKernelOracle:
    # the generated straight-line kernel against the loops, bit for bit,
    # over every input length the library passes
    chains = over_chains(1, 3, 5, 7, 2, 4)
    columns = pytest.mark.parametrize("ncols", [0, 1, 2, "L", "2L"])

    @staticmethod
    def seed(base, n, ncols):
        return base + 10 * n + {"L": 7, "2L": 8}.get(ncols, ncols)

    @chains
    @columns
    def test_floats(self, n, ncols):
        f, L, state, cols = kernel_layout(n, ncols)
        rng = np.random.default_rng(self.seed(600, n, ncols))
        for scale in (0.0, 1e-9, 0.4, 3.0):
            for _ in range(25):
                x = float(rng.uniform(1e-3, 9.0))
                y = (rng.normal(0.0, scale, state).tolist()
                     + rng.normal(0.0, 1.0, (2 * L + 1) * cols).tolist())
                out = f(x, y)
                assert isinstance(out, list)
                assert bits(out) == bits(eom_loops(x, y, n))

    @chains
    @columns
    def test_batches(self, n, ncols):
        f, L, state, cols = kernel_layout(n, ncols)
        rng = np.random.default_rng(self.seed(700, n, ncols))
        x = rng.uniform(1e-3, 9.0, 40)
        y = np.vstack([rng.normal(0.0, 0.5, (state, 40)),
                       rng.normal(0.0, 1.0, ((2 * L + 1) * cols, 40))])
        out = f(x, y)
        assert out.shape == ((2 * L + 1) * (1 + cols), 40)
        assert bits(out) == bits(eom_loops(x, y, n))

    @chains
    @columns
    def test_overflow(self, n, ncols):
        # math.expm1 raises on the state [300, 0, ...]: the kernel answers
        # with the infinities of the batch path, as the loops do
        f, L, state, cols = kernel_layout(n, ncols)
        y = [300.0] + [0.0] * (state - 1) + [0.5] * ((2 * L + 1) * cols)
        with np.errstate(over="ignore", invalid="ignore"):
            out, ref = f(1.0, y), eom_loops(1.0, y, n)
        assert isinstance(out, list) and not all(map(math.isfinite, out))
        assert bits(out) == bits(ref)

    @chains
    def test_q_entries_are_not_read(self, n):
        # the stepper passes 0.0 for the q entry of every stage argument,
        # the state's q and each column's dq: NaN there changes no bit
        L = reduced_length(n)
        dim = 2 * L + 1
        rng = np.random.default_rng(650 + n)
        for ncols in range(L + 1):
            f, _L = hamiltonian_flow._make_rhs(n, dim * (1 + ncols))
            x = rng.uniform(1e-3, 9.0, 12)
            y = rng.normal(0.0, 0.5, (dim * (1 + ncols), 12))
            nan_q = y.copy()
            nan_q[dim - 1::dim] = np.nan
            assert bits(f(x, nan_q)) == bits(f(x, y))
            for j in range(12):
                floats = y[:, j].tolist()
                assert bits(f(float(x[j]), nan_q[:, j].tolist())) == bits(f(float(x[j]), floats))


class TestTangentColumns:
    @over_chains(1, 3, 5, 2, 4)
    def test_linearisation_matches_central_difference(self, n):
        # tangent columns [dw, dwt, dq] after the state come back as J(y) v,
        # dq' included, the state's own derivative unchanged bit for bit
        L = reduced_length(n)
        dim = 2 * L + 1
        f, _L = hamiltonian_flow._make_rhs(n, dim)
        f3, _L = hamiltonian_flow._make_rhs(n, 3 * dim)
        rng = np.random.default_rng(500 + n)
        x = 0.7
        y = rng.uniform(-0.4, 0.4, L).tolist() + rng.uniform(-1.0, 1.0, L).tolist() + [0.0]
        cols = [rng.uniform(-1.0, 1.0, dim).tolist() for _ in range(2)]
        out = f3(x, y + cols[0] + cols[1])
        assert len(out) == 3 * dim
        assert out[:dim] == f(x, y)
        h = 1e-6
        for j, v in enumerate(cols):
            yp = [a + h * b for a, b in zip(y, v)]
            ym = [a - h * b for a, b in zip(y, v)]
            fd = (np.array(f(x, yp)) - np.array(f(x, ym))) / (2 * h)
            lin = np.array(out[dim * (j + 1):dim * (j + 2)])
            assert np.all(np.abs(lin - fd) <= 1e-7 * (1.0 + np.abs(fd)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dq_is_the_complex_step_of_the_density(self, n):
        # dq' of a column against the complex-step derivative (h = 1e-30)
        # of H + 2x along it, H summed over the n + 1 gaps of the full
        # periodic chain with plain exponentials: no code shared with the
        # kernel
        L = reduced_length(n)
        dim = 2 * L + 1
        f, _L = hamiltonian_flow._make_rhs(n, 3 * dim)
        rng = np.random.default_rng(900 + n)

        def density(x, w, wt):
            mid = [0.0] if n % 2 == 0 else []
            v = list(w) + mid + [-a for a in reversed(w)]
            gaps = [2.0 * (v[(i + 1) % (n + 1)] - v[i]) for i in range(n + 1)]
            return sum(a * a for a in wt) / (2.0 * x) - 0.5 * x * np.sum(np.exp(gaps)) + 2.0 * x

        for _ in range(20):
            x = float(rng.uniform(0.05, 6.0))
            y = rng.uniform(-0.4, 0.4, L).tolist() + rng.uniform(-1.0, 1.0, L).tolist() + [0.0]
            cols = [rng.uniform(-1.0, 1.0, dim).tolist() for _ in range(2)]
            out = f(x, y + cols[0] + cols[1])
            for j, col in enumerate(cols):
                h = 1e-30
                w = np.array(y[:L]) + 1j * h * np.array(col[:L])
                wt = np.array(y[L:2 * L]) + 1j * h * np.array(col[L:2 * L])
                ref = density(x, w, wt).imag / h
                got = out[dim * (j + 2) - 1]
                assert got == pytest.approx(ref, rel=1e-13, abs=1e-13 * (1.0 + x))

    def test_state_steps_ignore_the_tangents(self):
        # error control, dense output and step sequence cover the state only
        a = AsymptoticData(3, (0.3, 0.1), tuple(global_rho(3, (0.3, 0.1))))
        p = init_from_asymptotics(a, 0.01)
        y0 = p.w + p.wt + (0.0,)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        plain = hamiltonian_flow._integrate_raw(3, y0, 0.01, 2.0, cfg)
        tang = hamiltonian_flow._integrate_raw(3, y0 + (0.5, 0, 0, 0, 0, 0, 0.5, 0, 0, 0),
                                               0.01, 2.0, cfg)
        assert plain.tangent_ys is None and tang.tangent_ys.shape == (2, 5, len(tang.xs))
        for name in ("xs", "ys", "hs", "Q"):
            assert np.array_equal(getattr(plain, name), getattr(tang, name))
        assert (plain.stats.n_steps, plain.stats.n_rejected, plain.stats.n_rhs_evals) == \
            (tang.stats.n_steps, tang.stats.n_rejected, tang.stats.n_rhs_evals)


class TestShiftedAndJoined:
    @pytest.fixture(scope="class")
    def probe(self):
        # a tangent run from the series seed of (0.3, 0.1) and its rho
        gamma = (0.3, 0.1)
        rho = np.array(global_rho(3, gamma))
        series = SmallXSeries(3, gamma).cut(rho, 0.01)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        traj = hamiltonian_flow._integrate_raw(3, series.seed(rho, 0.01, True), 0.01, 2.5, cfg)
        return series, rho, cfg, traj

    def test_shift_is_the_run_from_the_moved_seed(self, probe):
        # to first order: the shifted run against a run from the seed at
        # rho + delta, on w, wt and q, off the nodes too
        series, rho, cfg, traj = probe
        delta = np.array([3e-11, -2e-11])
        moved = hamiltonian_flow._integrate_raw(3, series.seed(rho + delta, 0.01), 0.01, 2.5, cfg)
        shifted = traj.shifted(delta)
        assert shifted.tangent_ys is None and shifted.xs is traj.xs
        for x in (0.05, 0.7, 1.9, 2.5):
            change = np.max(np.abs(moved.sample_state(x) - traj.sample_state(x)))
            miss = np.max(np.abs(moved.sample_state(x) - shifted.sample_state(x)))
            assert change > 1e-12 and miss <= 1e-3 * change
        assert shifted.reg_integral == shifted.ys[-1, -1]

    def test_joined_runs_on_from_a_node(self, probe):
        series, rho, cfg, traj = probe
        head = traj.shifted([0.0, 0.0])
        k = 40
        tail = hamiltonian_flow._integrate_raw(3, head.ys[:, k], float(head.xs[k]), 3.0, cfg)
        whole = head.joined(tail)
        assert np.array_equal(whole.xs, np.concatenate([head.xs[:k + 1], tail.xs[1:]]))
        x = float(head.xs[k - 3]) + 1e-3
        assert np.array_equal(whole.sample_state(x), head.sample_state(x))
        assert np.array_equal(whole.sample_state(2.9), tail.sample_state(2.9))
        assert whole.reg_integral == tail.ys[-1, -1]
        assert whole.stats.n_rhs_evals == head.stats.n_rhs_evals + tail.stats.n_rhs_evals
        assert (head.stats.n_integrations, tail.stats.n_integrations,
                whole.stats.n_integrations) == (1, 1, 2)


def dop853_loops(n, y0, x0, x_end, cfg, floor=5.0):
    """DOP853 as plain loops over the components, each stage's argument
    written into one reused list: the stepper before it was generated as
    straight-line code, kept as the generated loop's byte-for-byte oracle.
    The run blows up where |w_i| exceeds max(floor, 1 + max_i |w_i(x0)|).
    The kernel is `_make_rhs`'s body for len(y0), the initial step's its
    body for the state alone.  Tangent columns get their nodes and dense output on the state's steps,
    their three extra stages from the same kernel calls as the state's.
    Returns (xs, ys, hs, Q, tangent_ys, tangent_Q, (n_steps, n_rejected,
    n_rhs_evals), stop_reason)."""
    fl = hamiltonian_flow
    A, C = fl._A, fl._C
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = C[1:11]
    ((a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54), (a61, _, _, a64, a65),
     (a71, _, _, a74, a75, a76), (a81, _, _, a84, a85, a86, a87),
     (a91, _, _, a94, a95, a96, a97, a98),
     (a101, _, _, a104, a105, a106, a107, a108, a109),
     (a111, _, _, a114, a115, a116, a117, a118, a119, a1110),
     (a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211),
     (b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12)) = A[1:13]
    er1, _, _, _, _, er6, er7, er8, er9, er10, er11, er12 = fl._E5
    bhh1, bhh2, bhh3 = fl._BHH

    y = [float(v) for v in y0]
    f, L = fl._make_rhs(n, len(y))
    dim = 2 * L + 1
    tangent = len(y) > dim
    f_state, _L = fl._make_rhs(n, dim)
    comps = range(len(y))
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    threshold = max(floor, 1.0 + max(abs(v) for v in y[:L]))
    x = float(x0)
    n_steps = n_rejected = 0
    k1 = f(x, y)
    h = fl._initial_step(f_state, x, y[:dim], k1[:dim], rtol, atol)
    n_rhs = 2
    h = min(h, 0.15 * x0)
    xs, ys, hs, ks = [x], list(y), [], []
    err_prev = 1e-4
    stop = "completed"
    yt, yn = [0.0] * len(y), [0.0] * len(y)
    while x < x_end:
        if h <= 1e-10 * abs(x):
            stop = "step_underflow"
            break
        h = min(h, x_end - x)
        for i in comps:
            yt[i] = y[i] + h * (a21 * k1[i])
        k2 = f(x + c2 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a31 * k1[i] + a32 * k2[i])
        k3 = f(x + c3 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a41 * k1[i] + a43 * k3[i])
        k4 = f(x + c4 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a51 * k1[i] + a53 * k3[i] + a54 * k4[i])
        k5 = f(x + c5 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a61 * k1[i] + a64 * k4[i] + a65 * k5[i])
        k6 = f(x + c6 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a71 * k1[i] + a74 * k4[i] + a75 * k5[i] + a76 * k6[i])
        k7 = f(x + c7 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a81 * k1[i] + a84 * k4[i] + a85 * k5[i] + a86 * k6[i]
                                 + a87 * k7[i])
        k8 = f(x + c8 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a91 * k1[i] + a94 * k4[i] + a95 * k5[i] + a96 * k6[i]
                                 + a97 * k7[i] + a98 * k8[i])
        k9 = f(x + c9 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a101 * k1[i] + a104 * k4[i] + a105 * k5[i] + a106 * k6[i]
                                 + a107 * k7[i] + a108 * k8[i] + a109 * k9[i])
        k10 = f(x + c10 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a111 * k1[i] + a114 * k4[i] + a115 * k5[i] + a116 * k6[i]
                                 + a117 * k7[i] + a118 * k8[i] + a119 * k9[i]
                                 + a1110 * k10[i])
        k11 = f(x + c11 * h, yt)
        for i in comps:
            yt[i] = y[i] + h * (a121 * k1[i] + a124 * k4[i] + a125 * k5[i] + a126 * k6[i]
                                 + a127 * k7[i] + a128 * k8[i] + a129 * k9[i]
                                 + a1210 * k10[i] + a1211 * k11[i])
        k12 = f(x + h, yt)
        n_rhs += 11
        e3 = e5 = 0.0
        for i in comps:
            d = (b1 * k1[i] + b6 * k6[i] + b7 * k7[i] + b8 * k8[i] + b9 * k9[i]
                 + b10 * k10[i] + b11 * k11[i] + b12 * k12[i])
            yn[i] = y[i] + h * d
            if i < dim:
                u, v = abs(y[i]), abs(yn[i])
                sc = atol + rtol * (u if u > v else v)
                r = (d - bhh1 * k1[i] - bhh2 * k9[i] - bhh3 * k12[i]) / sc
                e3 += r * r
                r = (er1 * k1[i] + er6 * k6[i] + er7 * k7[i] + er8 * k8[i] + er9 * k9[i]
                     + er10 * k10[i] + er11 * k11[i] + er12 * k12[i]) / sc
                e5 += r * r
        err = h * e5 / math.sqrt(dim * (e5 + 0.01 * e3)) if e5 != 0.0 else 0.0
        if err <= 1.0:
            k13 = f(x + h, yn)
            n_rhs += 1
            for k in (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
                ks.extend(k)
            x = x + h
            y, yn = yn, y
            k1 = k13
            xs.append(x)
            ys.extend(y)
            hs.append(h)
            n_steps += 1
            if max(map(abs, y[:L])) > threshold:
                stop = "blowup"
                break
            fac = 0.9 * err ** -0.0875 * err_prev ** 0.05 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h = h * min(5.0, max(0.2, fac))
        else:
            n_rejected += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** -0.125))

    x_old, h_old = np.array(xs[:-1]), np.array(hs)
    nodes = np.array(ys).reshape(-1, len(y))
    stages = np.array(ks).reshape(-1, 13, len(y))
    K = np.empty((len(h_old), 16, dim))
    K[:, :13] = stages[..., :dim]
    KT = np.empty((len(h_old), 16, len(y) - dim))
    KT[:, :13] = stages[..., dim:]
    for s in (13, 14, 15):
        arg = (nodes[:-1, :dim] + h_old[:, None] * np.matmul(np.array(A[s]), K[:, :s])).T
        if tangent:
            argT = (nodes[:-1, dim:] + h_old[:, None] * np.matmul(np.array(A[s]), KT[:, :s])).T
            arg = np.vstack([arg, argT])
        out = f(x_old + C[s] * h_old, arg).T
        K[:, s], KT[:, s] = out[:, :dim], out[:, dim:]
    Q = K.transpose(0, 2, 1) @ fl._DENSE_F @ fl._DENSE_T
    tangent_ys = tangent_Q = None
    if tangent:
        ncols = len(y) // dim - 1
        tangent_ys = nodes[:, dim:].reshape(-1, ncols, dim).transpose(1, 2, 0)
        QT = KT.transpose(0, 2, 1) @ fl._DENSE_F @ fl._DENSE_T
        tangent_Q = QT.reshape(len(h_old), ncols, dim, 7).transpose(1, 0, 2, 3)
    return (np.array(xs), nodes[:, :dim].T, h_old, Q, tangent_ys, tangent_Q,
            (n_steps, n_rejected, n_rhs + 3), stop)


def assert_same_run(n, y0, x0, x_end, cfg, floor=5.0):
    """The generated stepper against `dop853_loops`, bit for bit; returns
    the trajectory."""
    traj = hamiltonian_flow._integrate_raw(n, y0, x0, x_end, cfg)
    xs, ys, hs, Q, tangent_ys, tangent_Q, counts, stop = dop853_loops(
        n, y0, x0, x_end, cfg, floor)
    for name, ref in (("xs", xs), ("ys", ys), ("hs", hs), ("Q", Q),
                      ("tangent_ys", tangent_ys), ("tangent_Q", tangent_Q)):
        got = getattr(traj, name)
        assert (got is None) == (ref is None), name
        if ref is not None:
            assert got.shape == ref.shape and bits(got) == bits(ref), name
    st = traj.stats
    assert (st.n_steps, st.n_rejected, st.n_rhs_evals) == counts
    assert traj.stop_reason == stop
    return traj


def near_blowup_seed():
    # the n = 3 series seed at rho shifted off the global one: it
    # leaves the orbit and w diverges near x = 0.73
    rho = tuple(r + d for r, d in zip(global_rho(3, (0.3, 0.1)), (0.5, 0.0)))
    p = init_from_asymptotics(AsymptoticData(3, (0.3, 0.1), rho), 0.01)
    return p.w + p.wt + (0.0,)


class TestStepperOracle:
    # the generated stepping loop against the loops over the components

    @over_chains(1, 3, 5, 7, 2, 4)
    @pytest.mark.parametrize("ncols", [0, 1, 2])
    def test_chains_and_tangent_columns(self, n, ncols):
        L = reduced_length(n)
        rng = np.random.default_rng(800 + 10 * n + ncols)
        y0 = (rng.normal(0.0, 0.1, L).tolist() + rng.normal(0.0, 0.3, L).tolist() + [0.0]
              + rng.normal(0.0, 1.0, (2 * L + 1) * ncols).tolist())
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
        traj = assert_same_run(n, y0, 0.05, 2.5, cfg)
        assert traj.stats.n_steps > 10

    def test_rejections_and_blowup(self):
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = assert_same_run(3, near_blowup_seed(), 0.01, 8.0, cfg)
        assert traj.stop_reason == "blowup" and traj.stats.n_rejected > 0

    def test_step_underflow_after_rejections(self, monkeypatch):
        # no blow-up threshold: the steps shrink into the singularity,
        # through rejected non-finite trial states, until they underflow
        monkeypatch.setattr(hamiltonian_flow, "_BLOWUP_FLOOR", math.inf)
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6)
        y0 = list(near_blowup_seed()) + [1.0, 0.0, 0.0, 1.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            traj = assert_same_run(3, y0, 0.01, 8.0, cfg, floor=math.inf)
        assert traj.stop_reason == "step_underflow" and traj.stats.n_rejected > 20


class TestInit:
    def test_trivial(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        p = init_from_asymptotics(a, 0.05)
        assert p.w == (0.0, 0.0) and p.wt == (0.0, 0.0)

    @pytest.mark.parametrize("n, gamma, x0, start", [(3, (0.3, 0.1), 0.01, 0.01),
                                                     (3, (0.0, 0.8), 0.1, 0.1 * 2.0 ** -8),
                                                     (1, (0.3,), 0.01, 0.01)])
    def test_seed_is_the_cut_series(self, n, gamma, x0, start):
        # the seed of the series cut where it has converged: at x0 itself,
        # or at a = 0.4 halved from 0.1 down to 3.9e-4
        rho = tuple(global_rho(n, gamma))
        p = init_from_asymptotics(AsymptoticData(n, gamma, rho), x0)
        series = SmallXSeries(n, gamma)
        cut = series.cut(rho, start)
        assert p.x == start and cut.error < 1e-13
        assert start == x0 or series.cut(rho, 2.0 * start).error >= 1e-13
        assert list(p.w + p.wt) == cut.seed(rho, start)[:-1]

    def test_x0_range(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(UnsupportedConfigError):
            init_from_asymptotics(a, 0.5)


class TestIntegrate:
    def test_trivial_solution_stays(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        assert traj.stop_reason == "completed"
        maxw = float(np.max(np.abs(traj.ys[:2])))
        assert maxw <= 1e-9
        assert abs(traj.reg_integral) <= 1e-9

    def test_blowup_flag_for_non_global_rho(self):
        rho = tuple(r + d for r, d in zip(global_rho(3, (0.3, 0.1)), (0.5, 0.0)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        assert traj.stop_reason == "blowup"
        assert traj.x_final < 6.0

    @pytest.mark.parametrize("n, gamma", [(1, (0.9,)), (1, (-0.9,)), (2, (-0.91,))])
    def test_seed_at_the_domain_floor_runs_to_6(self, n, gamma):
        # near a(gamma) = 0.2 the seed starts below x = 2e-7 with |w0| > 5,
        # and a fixed blow-up threshold of 5 stopped it there, before 1e-5
        a = AsymptoticData(n, gamma, tuple(global_rho(n, gamma)))
        p = init_from_asymptotics(a, 0.01)
        assert max(map(abs, p.w)) > 5.0
        traj = integrate(p, 6.0, IntegratorConfig(), n)
        assert traj.stop_reason == "completed" and traj.x_final == 6.0

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

    @pytest.mark.parametrize("rel_tol", [0.03, 0.3])
    def test_overflowing_trial_steps_are_silent(self, rel_tol):
        # at these tolerances trial steps overflow the kernel's math.expm1;
        # its numpy fallback printed "overflow encountered in expm1" and
        # "invalid value encountered in scalar subtract" for steps that are
        # then rejected as designed, before the run ends as a clean blow-up
        a = AsymptoticData(3, (0.3, 0.1), tuple(global_rho(3, (0.3, 0.1))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(init_from_asymptotics(a, 0.01), 8.0,
                             IntegratorConfig(rel_tol=rel_tol), 3)
        assert traj.stop_reason == "blowup"
        assert np.isfinite(traj.ys).all()

    def test_forward_only(self):
        p = PhasePoint(x=1.0, w=(0.0, 0.0), wt=(0.0, 0.0))
        with pytest.raises(UnsupportedConfigError):
            integrate(p, 0.5, IntegratorConfig(), 3)

    def test_x_end_must_be_finite(self):
        # x_end = inf grew the step to inf, whose stages are NaN, and the
        # stepper then rejected it forever
        p = PhasePoint(x=0.01, w=(0.0, 0.0), wt=(0.0, 0.0))
        with pytest.raises(UnsupportedConfigError, match="x_end must be finite"):
            integrate(p, math.inf, IntegratorConfig(), 3)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_config_must_be_finite_and_positive(self, field, value):
        # NaN or inf tolerances stopped on step_underflow at x0
        with pytest.raises(UnsupportedConfigError, match=field):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("x, w, wt", [(math.inf, (0.0, 0.0), (0.0, 0.0)),
                                          (math.nan, (0.0, 0.0), (0.0, 0.0)),
                                          (1.0, (math.nan, 0.0), (0.0, 0.0)),
                                          (1.0, (0.0, math.inf), (0.0, 0.0)),
                                          (1.0, (0.0, 0.0), (-math.inf, 0.0)),
                                          (1.0, (0.0, 0.0), (0.0, math.nan))])
    def test_phase_point_must_be_finite(self, x, w, wt):
        # w = (nan, 0) integrated to a 0-step step_underflow trajectory, and
        # hamiltonian at x = inf was NaN
        with pytest.raises(UnsupportedConfigError, match="finite"):
            PhasePoint(x=x, w=w, wt=wt)

    def test_from_state(self):
        # a state row [w, wt] or [w, wt, q], as a list or an array
        for y in ([0.1, 0.2, 0.3, 0.4], np.array([0.1, 0.2, 0.3, 0.4, 9.0])):
            assert PhasePoint.from_state(1.5, y) == PhasePoint(1.5, (0.1, 0.2), (0.3, 0.4))

    def test_dense_output_consistency(self):
        a = AsymptoticData(1, (0.2,), tuple(global_rho(1, (0.2,))))
        traj = integrate(init_from_asymptotics(a, 0.01), 1.5, IntegratorConfig(), 1)
        # dense samples at accepted nodes reproduce the stored states
        for i in (1, len(traj.xs) // 2, len(traj.xs) - 1):
            pt = PhasePoint.from_state(float(traj.xs[i]), traj.ys[:, i].tolist())
            s = traj.sample(pt.x)
            assert s.w == pytest.approx(pt.w, rel=1e-12, abs=1e-12)
            assert s.wt == pytest.approx(pt.wt, rel=1e-12, abs=1e-12)

    def test_rhs_count_matches_kernel_calls(self, monkeypatch):
        # the reported count against the calls of the vector field that
        # _make_rhs hands to the stepper, counted from outside
        calls = [0]
        make_rhs = hamiltonian_flow._make_rhs

        def counting_make_rhs(n, size):
            f, L = make_rhs(n, size)

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

    def test_kernel_wrapped_after_the_loop_is_cached(self, monkeypatch):
        # the stepping loop is generated once per state size but takes the
        # kernel as an argument, so a _make_rhs wrapped after the loop was
        # cached still sees every call; calls carrying tangent columns are
        # counted apart, and the sizes asked for are the bodies the run
        # calls: no body that dispatches on the length
        a = AsymptoticData(3, (0.3, 0.1), tuple(global_rho(3, (0.3, 0.1))))
        p = init_from_asymptotics(a, 0.01)
        y0 = p.w + p.wt + (0.0,)
        cols = (0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        for y in (y0, y0 + cols):
            hamiltonian_flow._integrate_raw(3, y, 0.01, 2.0, cfg)
        cached = hamiltonian_flow._make_stepper.cache_info()
        calls = {"all": 0, "tangent": 0}
        requested = []
        make_rhs = hamiltonian_flow._make_rhs

        def counting_make_rhs(n, size):
            requested.append((n, size))
            f, L = make_rhs(n, size)

            def counted(x, y):
                calls["all"] += 1
                calls["tangent"] += len(y) > 2 * L + 1
                return f(x, y)

            return counted, L

        monkeypatch.setattr(hamiltonian_flow, "_make_rhs", counting_make_rhs)
        for y, sizes in ((y0, [(3, 5)]), (y0 + cols, [(3, 15), (3, 5)])):
            calls.update(all=0, tangent=0)
            requested.clear()
            st = hamiltonian_flow._integrate_raw(3, y, 0.01, 2.0, cfg).stats
            assert st.n_rhs_evals == calls["all"]
            assert st.n_tangent_rhs == calls["tangent"]
            assert requested == sizes
        assert st.n_tangent_rhs == st.n_rhs_evals - 1 > 0
        info = hamiltonian_flow._make_stepper.cache_info()
        assert (info.hits, info.misses) == (cached.hits + 2, cached.misses)

    def test_initial_step_underflow_is_flagged(self):
        # the scaled derivative dwarfs the state, so the initial step
        # underflows to 0: a flagged trajectory, not ZeroDivisionError
        traj = integrate(PhasePoint(1.0, (100.0,), (0.0,)), 2.0, IntegratorConfig(), 1)
        assert traj.stop_reason == "step_underflow"
        assert traj.x_final == 1.0 and traj.stats.n_steps == 0
        # with no step taken there is nothing to interpolate, even at x0
        with pytest.raises(ValueError, match="trajectory carries no dense output"):
            traj.sample_state(1.0)

    def test_short_interval_is_stepped(self):
        # an interval below 1e-10 x stopped on step_underflow with 0 steps,
        # the step tested after its clamp to x_end - x
        x_end = 1.0 + 5e-11
        traj = integrate(PhasePoint(1.0, (0.1,), (0.0,)), x_end, IntegratorConfig(), 1)
        assert traj.stop_reason == "completed" and traj.stats.n_steps == 1
        assert traj.x_final == x_end

    def test_even_variant_integration(self):
        a = AsymptoticData(2, (0.2,), (0.1,))
        p = init_from_asymptotics(a, 0.01)
        traj = integrate(p, 1.0, IntegratorConfig(), 2)
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

    def test_power_map_is_the_polynomial_products(self):
        # the integer map built from binomials is numpy.polynomial's
        # th^(j//2 + 1) (1 - th)^((j + 1)//2), bit for bit
        poly = np.polynomial.polynomial
        T = np.zeros((7, 8))
        for j in range(7):
            coef = poly.polymul(poly.polypow([0.0, 1.0], j // 2 + 1),
                                poly.polypow([1.0, -1.0], (j + 1) // 2))
            T[j, :len(coef)] = coef
        assert hamiltonian_flow._DENSE_T.tobytes() == T[:, 1:].tobytes()

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
    # one param, so that the test ids stay those of the former
    # forward/backward pair
    @pytest.fixture(params=["forward"])
    def traj(self, near_global_traj):
        return near_global_traj

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

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_must_be_finite_and_positive(self, lam):
        # lam = inf returned NaN
        p = PhasePoint(x=1.3, w=(0.2, -0.1), wt=(0.4, 0.5))
        with pytest.raises(UnsupportedConfigError, match="lambda"):
            check_quasihomogeneity(p, lam, 3)


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

    @pytest.mark.parametrize("gamma", [(0.3, 0.1, 0.7), [0.3]])
    def test_wrong_length(self, gamma):
        # a third entry was ignored and a missing one raised IndexError
        with pytest.raises(ShapeError):
            tail_amplitude_s1(gamma)


class TestCsv:
    def test_header_and_rows(self):
        a = AsymptoticData(3, (0.0, 0.0), (0.0, 0.0))
        traj = integrate(init_from_asymptotics(a, 0.01), 1.0, IntegratorConfig(), 3)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,w0,w1,wt0,wt1,H,reg_integral"
        assert len(lines) == 1 + len(traj.xs)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.01

    def test_blowup_footer(self):
        rho = tuple(r + 0.5 for r in global_rho(3, (0.3, 0.1)))
        a = AsymptoticData(3, (0.3, 0.1), rho)
        traj = integrate(init_from_asymptotics(a, 0.01), 8.0, IntegratorConfig(), 3)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        assert buf.getvalue().strip().split("\n")[-1].startswith("# stopped: blowup")
