"""The state read path against its earlier form, bit for bit.

`sample_state_ref` and `modes_ref` keep the expressions that
`Trajectory.sample_state` and `global_solutions._modes` used before they
called the ndarray methods and ufuncs directly (`np.all`, `np.clip` and
`np.moveaxis`); the reads are compared with them by `float.hex` at every
shape the library passes.
"""

import math

import numpy as np
import pytest

from ttstar_toda import global_solutions
from ttstar_toda.global_solutions import _L, _RATES, _VECTORS, _bessel
from ttstar_toda.hamiltonian_flow import PhasePoint


def sample_state_ref(traj, x):
    if not len(traj.hs):
        raise ValueError("trajectory carries no dense output")
    xa = np.asarray(x, dtype=float)
    lo, hi = float(traj.xs[0]), float(traj.xs[-1])
    if not np.all((lo <= xa) & (xa <= hi)):
        raise ValueError(f"x={x!r} outside covered range [{lo}, {hi}]")
    k = np.clip(np.searchsorted(traj.xs, xa), 1, len(traj.hs)) - 1
    h = traj.hs[k]
    th = (xa - traj.xs[k]) / h
    P = np.multiply.accumulate(np.repeat(th[..., None], 7, axis=-1), axis=-1)
    Qp = (traj.Q[k] @ P[..., None])[..., 0]
    return traj.ys[:, k] + h * np.moveaxis(Qp, -1, 0)


def modes_ref(x, amps, growing=False):
    z = _RATES * np.asarray(x, dtype=float)[..., None]
    b, amps = _bessel(z, growing), np.asarray(amps, dtype=float)
    w = (amps * b[..., 0]) @ _VECTORS
    wt = (amps * (z if growing else -z) * b[..., 1]) @ _VECTORS
    return np.moveaxis(np.concatenate([w, wt], axis=-1), -1, 0)


def hexes(a):
    a = np.asarray(a)
    return a.shape, [float(v).hex() for v in a.ravel().tolist()]


def assert_same_bits(got, ref):
    assert hexes(got) == hexes(ref)


@pytest.fixture(scope="module")
def fwd(sol_031):
    return sol_031.forward


class TestSampleState:
    def test_scalar_at_ends_and_inside(self, fwd):
        k = len(fwd.xs) // 2
        for x in (fwd.xs[0], fwd.xs[k], fwd.xs[-1],
                  0.5 * (fwd.xs[k] + fwd.xs[k + 1]), float(fwd.xs[-1])):
            assert_same_bits(fwd.sample_state(x), sample_state_ref(fwd, x))

    def test_one_d_grid(self, fwd):
        rng = np.random.default_rng(38)
        xs = np.concatenate([fwd.xs[[0, -1]], fwd.xs[1:-1:5],
                             rng.uniform(fwd.xs[0], fwd.xs[-1], 300)])
        assert_same_bits(fwd.sample_state(xs), sample_state_ref(fwd, xs))

    def test_two_d_grid(self, fwd):
        # the (k, 6) Gauss nodes per step that classical_action reads
        nodes = np.polynomial.legendre.leggauss(6)[0]
        half = 0.5 * fwd.hs[:, None]
        x = fwd.xs[:-1, None] + half + half * nodes
        assert_same_bits(fwd.sample_state(x), sample_state_ref(fwd, x))

    @pytest.mark.parametrize("bad", ["below", "above", "nan", "array"])
    def test_out_of_range_message(self, fwd, bad):
        x = {"below": fwd.xs[0] - 1e-3, "above": float(fwd.xs[-1]) + 1.0, "nan": math.nan,
             "array": np.array([fwd.xs[0], fwd.xs[-1] + 1.0])}[bad]
        with pytest.raises(ValueError) as ref:
            sample_state_ref(fwd, x)
        with pytest.raises(ValueError) as got:
            fwd.sample_state(x)
        assert str(got.value) == str(ref.value)

    def test_phase_point_from_row(self, sol_031, fwd):
        # state() reads the row through one tolist(); the old path handed
        # __post_init__ numpy scalars
        for x in (fwd.xs[0], 0.5, 3.0, sol_031.x_switch):
            y = sample_state_ref(fwd, x)
            ref = PhasePoint(x=x, w=y[:_L], wt=y[_L:2 * _L])
            p = sol_031.state(x)
            assert [v.hex() for v in p.w + p.wt] == [v.hex() for v in ref.w + ref.wt]
            assert all(type(v) is float for v in p.w + p.wt)


class TestModes:
    def test_scalar_and_tail_array(self, sol_031):
        amps = sol_031.amps
        for x in (sol_031.x_switch, 6.0, sol_031.x_right):
            assert_same_bits(global_solutions._modes(x, amps), modes_ref(x, amps))
        xs = np.linspace(sol_031.x_switch, sol_031.x_right, 41)
        assert_same_bits(sol_031.tail_state(xs), modes_ref(xs, amps))

    @pytest.mark.parametrize("growing", [False, True])
    def test_match_columns(self, growing):
        # the shape _match passes: one mode per column on a last axis
        xs = np.linspace(*global_solutions._WINDOW, 9)[:, None]
        eye = np.eye(_L)
        assert_same_bits(global_solutions._modes(xs, eye, growing),
                         modes_ref(xs, eye, growing))

    def test_tail_quadrature_panels(self, sol_031):
        # (panels, 12) Gauss nodes, as the tail quadrature oracle of
        # test_global_solutions reads the tail
        nodes = np.polynomial.legendre.leggauss(12)[0]
        edges = np.linspace(sol_031.x_switch, sol_031.x_right, 20)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
        assert x.shape == (19, 12)
        assert_same_bits(global_solutions._modes(x, sol_031.amps), modes_ref(x, sol_031.amps))
