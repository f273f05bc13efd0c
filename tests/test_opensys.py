import bisect
import json
from pathlib import Path

import numpy as np
import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nhspec import cli, linalg, opensys
from nhspec.errors import (EOutsideWindow, ETooCloseToThreshold, NhspecError,
                           SelfConsistencyFailure)

from conftest import random_complex_symmetric

DATA = Path(__file__).parent / "data"


def standard_model(g=0.055, grid_size=2001):
    return opensys.OpenSystemModel(
        e_b=[-0.5, 0.5],
        coupling=opensys.ConstantCoupling([[g], [g]]),
        window=(-10.0, 10.0), grid_size=grid_size)


# ---------------------------------------------------------------------------
# coupling profiles

@st.composite
def tabulated_cases(draw):
    """A tabulated coupling; energies on its nodes, at and beyond both ends
    and between nodes; and its grid shifted by up to 1e-6 of its span."""
    m = draw(st.integers(2, 40))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=m - 1,
                          max_size=m - 1))
    grid = draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0],
                                                          np.cumsum(steps)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal((m, draw(st.integers(1, 4)),
                                  draw(st.integers(1, 3))))
    span = grid[-1] - grid[0]
    beyond = [grid[0] - span * draw(st.floats(1e-9, 2.0)),
              grid[-1] + span * draw(st.floats(1e-9, 2.0))]
    between = grid[0] + span * rng.uniform(0.0, 1.0, draw(st.integers(0, 20)))
    energies = np.concatenate([grid, beyond, between])
    shifted = grid + span * draw(st.floats(1e-8, 1e-6))
    return (opensys.TabulatedCoupling(grid=grid, values=values),
            [energies, shifted])


class TestTabulatedCoupling:
    @settings(max_examples=150)
    @given(tabulated_cases())
    def test_on_grid_matches_interp_per_entry(self, case):
        # the shifted grid has the tabulation's length and is allclose to
        # it, so it also checks that no node values are handed back as is
        tab, energy_sets = case
        flat = tab.values.reshape(len(tab.grid), -1)
        tol = 1e-14 * np.abs(tab.values).max()
        for energies in energy_sets:
            want = np.stack([np.interp(energies, tab.grid, col)
                             for col in flat.T], axis=1) \
                .reshape((len(energies),) + tab.values.shape[1:])
            got = tab.on_grid(energies, None)
            assert np.abs(got - want).max() <= tol
            at = np.array([tab.on_grid(np.array([e]), None)[0]
                           for e in energies])
            assert np.abs(at - want).max() <= tol

    def test_single_node_is_constant(self):
        tab = opensys.TabulatedCoupling(grid=[0.0], values=[[[0.3, -0.2]]])
        got = tab.on_grid(np.array([-5.0, 0.0, 7.0]), None)
        assert np.array_equal(got, np.tile([[[0.3, -0.2]]], (3, 1, 1)))
        assert np.array_equal(tab.on_grid(np.array([1.0]), None)[0],
                              [[0.3, -0.2]])

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_non_increasing_grid_rejected(self, grid):
        # the last two nodes equal, or out of order
        with pytest.raises(ValueError, match="strictly increasing"):
            opensys.TabulatedCoupling(grid=grid, values=np.ones((3, 1, 1)))


# ---------------------------------------------------------------------------
# principal-value integration

def mp_interpolant_pv(f, grid, energy):
    """PV int f/(E - E') dE' over the grid for the piecewise-linear
    interpolant of the samples f (M, ...), in 200-bit arithmetic.  As in
    mp_tabulated_shift, f = u + v t with t = E' - E on each cell [a, b],
    so the cell is -int (u/t + v) dt, taken exactly; on a node its ln|t| =
    ln 0 cancels with the next cell's."""
    with mp.workprec(200):
        e = mp.mpf(energy)
        t = [mp.mpf(x) - e for x in grid]
        log = [mp.log(abs(x)) if x else 0 for x in t]
        out = np.empty(f.shape[1:])
        for idx in np.ndindex(*f.shape[1:]):
            y = [mp.mpf(v) for v in f[(slice(None),) + idx]]
            total = 0
            for k in range(len(grid) - 1):
                v = (y[k + 1] - y[k]) / (t[k + 1] - t[k])
                u = y[k] - t[k] * v
                total -= u * (log[k + 1] - log[k]) + v * (t[k + 1] - t[k])
            out[idx] = float(total)
    return out


def _draw_energy(draw, grid):
    """An energy anywhere inside the window, on or within sqrt(eps) of the
    grid's scale of an interior node, or in the first or last cell next
    to the node beside the edge."""
    m, h = len(grid), grid[1] - grid[0]
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["generic", "near", "edge"]))
    if kind == "generic":
        energy = grid[0] + h * (0.51 + u * (m - 2.02))
    elif kind == "near":
        node = grid[draw(st.integers(1, m - 2))]
        scale = max(abs(grid[0]), abs(grid[-1]), abs(node))
        tol = min(max(1e-12 * h, np.sqrt(np.finfo(float).eps) * scale),
                  0.45 * h)
        energy = node + (2.0 * u - 1.0) * 0.99 * tol
    elif draw(st.booleans()):
        energy = grid[1] - 0.49 * u * h
    else:
        energy = grid[-2] + 0.49 * u * h
    return float(energy)


@st.composite
def pv_cases(draw):
    """A grid, an energy on it and a seed for matrix-valued samples."""
    m = 2 * draw(st.integers(2, 200)) + 1
    lo = draw(st.sampled_from([-2.0, 0.0, 1e5]))
    grid = np.linspace(lo, lo + draw(st.floats(0.5, 20.0)), m)
    return grid, _draw_energy(draw, grid), draw(st.integers(0, 2 ** 32 - 1))

class TestPvIntegral:
    window = (-2.0, 3.0)

    def grid(self, m=1001):
        return np.linspace(self.window[0], self.window[1], m)

    def test_constant_f_symmetric_point(self):
        # at the window midpoint the kernel is odd and the integral vanishes
        grid = np.linspace(-1.0, 1.0, 801)
        assert abs(opensys.pv_integral(np.ones(801), grid, 0.0)) < 1e-12

    def test_constant_f_closed_form(self):
        lo, hi = self.window
        e = 0.7
        oracle = np.log((e - lo) / (hi - e))
        assert abs(opensys.pv_integral(lambda x: np.ones_like(x),
                                       self.grid(), e) - oracle) < 1e-10

    def test_linear_f_closed_form(self):
        # PV int E'/(E - E') dE' = E log((E-lo)/(hi-E)) - (hi - lo)
        lo, hi = self.window
        e = 0.7
        oracle = e * np.log((e - lo) / (hi - e)) - (hi - lo)
        assert abs(opensys.pv_integral(lambda x: x, self.grid(), e)
                   - oracle) < 1e-9

    def mp_oracle(self, e):
        lo, hi = self.window
        f = lambda x: mp.exp(x / 4)
        reg = mp.quad(lambda x: (f(x) - f(e)) / (e - x), [lo, e, hi])
        return float(reg + f(e) * mp.log((e - lo) / (hi - e)))

    def test_curved_f_against_quadrature(self):
        e = 0.7
        got = opensys.pv_integral(lambda x: np.exp(x / 4), self.grid(4001), e)
        assert abs(got - self.mp_oracle(e)) < 1e-6

    def test_second_order_convergence(self):
        e = 0.7
        oracle = self.mp_oracle(e)
        errs = []
        for m in (251, 501, 1001):
            got = opensys.pv_integral(lambda x: np.exp(x / 4), self.grid(m), e)
            errs.append(abs(got - oracle))
        # halving the spacing should cut the error about fourfold
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_matrix_valued_f(self):
        grid = self.grid()
        f = np.stack([np.stack([np.ones_like(grid), grid], axis=-1),
                      np.stack([grid, grid ** 2], axis=-1)], axis=-2)
        out = opensys.pv_integral(f, grid, 0.7)
        assert out.shape == (2, 2)
        assert abs(out[0, 1] - out[1, 0]) < 1e-12
        assert abs(out[0, 0] - opensys.pv_integral(np.ones_like(grid),
                                                   grid, 0.7)) < 1e-12

    @settings(max_examples=150)
    @given(pv_cases())
    @example(case=(np.linspace(-2.0, -1.0, 5), -1.2499925231933593, 0))
    def test_against_mpmath(self, case):
        # on, near and between nodes and in the edge cells: exact for the
        # interpolant of the samples
        grid, energy, seed = case
        f = np.random.default_rng(seed).standard_normal((len(grid), 2, 2))
        got = opensys.pv_integral(f, grid, energy)
        want = mp_interpolant_pv(f, grid, energy)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(f).max()

    def test_callable_is_sampled_on_the_grid(self):
        # f callable is f(grid), bit for bit; |x - c| with c on a node is
        # its own interpolant, so the rule gives its closed form
        grid, e = self.grid(101), 0.7123
        lo, hi, c = grid[0], grid[-1], grid[37]
        for f in (lambda x: np.exp(x / 4), lambda x: np.abs(x - c)):
            for energy in (e, c, grid[1] - 0.3 * (grid[1] - grid[0])):
                assert opensys.pv_integral(f, grid, energy) \
                    == opensys.pv_integral(f(grid), grid, energy)
        oracle = (e - c) * np.log((e - c) ** 2 / ((hi - e) * (e - lo))) \
            + 2.0 * c - lo - hi
        assert abs(opensys.pv_integral(lambda x: np.abs(x - c), grid, e)
                   - oracle) < 1e-13

    def test_outside_window_rejected(self):
        with pytest.raises(EOutsideWindow):
            opensys.pv_integral(lambda x: x, self.grid(), 5.0)

    def test_threshold_proximity_rejected(self):
        grid = self.grid(101)
        with pytest.raises(ETooCloseToThreshold):
            opensys.pv_integral(lambda x: x, grid, self.window[0] + 1e-6)


# ---------------------------------------------------------------------------
# effective Hamiltonian

class TestAssembleHeff:
    def test_zero_coupling_reduces_to_bound(self):
        m = standard_model(g=0.0, grid_size=201)
        heff = opensys.assemble_heff(m, 0.3)
        assert np.abs(heff.matrix.entries - np.diag(m.e_b)).max() < 1e-14

    def test_single_state_at_center(self):
        g = 0.3
        m = opensys.OpenSystemModel(e_b=[0.0],
                                    coupling=opensys.ConstantCoupling([[g]]),
                                    window=(-10.0, 10.0), grid_size=2001)
        heff = opensys.assemble_heff(m, 0.0)
        h = heff.matrix.entries[0, 0]
        # symmetric window: no real shift; width term is g^2 / 2
        assert abs(h.real) < 1e-10
        assert abs(h.imag + 0.5 * g ** 2) < 1e-12

    def test_hermitian_outside_window(self):
        m = standard_model(grid_size=401)
        heff = opensys.assemble_heff(m, 15.0)
        e = heff.matrix.entries
        assert np.abs(e.imag).max() < 1e-14
        assert heff.matrix.symmetry_hint == linalg.HERMITIAN

    def test_complex_symmetric_inside(self):
        m = standard_model(grid_size=401)
        heff = opensys.assemble_heff(m, 0.3)
        e = heff.matrix.entries
        assert np.abs(e - e.T).max() < 1e-14
        assert (np.diag(e).imag < 0).all()

    def test_direct_interaction_enters(self):
        m = opensys.OpenSystemModel(
            e_b=[-0.5, 0.5], coupling=opensys.ConstantCoupling([[0.0], [0.0]]),
            window=(-10.0, 10.0), grid_size=201,
            v_direct=np.array([[0.0, 0.2], [0.2, 0.0]]))
        heff = opensys.assemble_heff(m, 0.3)
        assert abs(heff.matrix.entries[0, 1] - 0.2) < 1e-14


def mp_transform(profile, energy, window):
    """PV int f(E') / (E - E') dE' over the window, f = 1 for the constant
    profile and 1 - x'^2 for the semicircle: mpmath quadrature of the
    regular (f(E') - f(E)) / (E - E') plus f(E) ln|(E - lo)/(E - hi)|, at a
    precision that covers the cancellation of the two far outside."""
    with mp.workdps(30 + 2 * len(str(int(abs(energy))))):
        lo, hi, e = mp.mpf(window[0]), mp.mpf(window[1]), mp.mpf(energy)

        def f(t):
            x = (2 * t - lo - hi) / (hi - lo)
            return 1 if profile is opensys.ConstantCoupling else 1 - x * x
        cuts = [lo, e, hi] if lo < e < hi else [lo, hi]
        reg = mp.quad(lambda t: (f(t) - f(e)) / (e - t), cuts)
        return float(reg + f(e) * mp.log(abs((e - lo) / (e - hi))))


PROFILES = [opensys.ConstantCoupling, opensys.SemicircleCoupling]
FAR = [11.0, 100.0, 1e3, 1e4, 1e6, -11.0, -1e6]


class TestClosedFormShift:
    # the real shift of H_eff for the analytic profiles is their Hilbert
    # transform times a a^T, whatever the continuum grid
    amplitudes = np.array([[0.3, -0.2], [0.25, 0.4], [-0.1, 0.15]])

    def model(self, profile, grid_size):
        return opensys.OpenSystemModel(
            e_b=np.zeros(3), coupling=profile(self.amplitudes),
            window=(-10.0, 10.0), grid_size=grid_size)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("grid_size", [201, 2001])
    def test_against_mpmath(self, profile, grid_size):
        # e_b = 0: the real part of H_eff is the shift over 2 pi alone;
        # inside the window up to 0.51 cells from each threshold, outside
        # it up to 1e6
        m = self.model(profile, grid_size)
        lo, hi = m.window
        h = m.grid[1] - m.grid[0]
        aat = self.amplitudes @ self.amplitudes.T
        for energy in [lo + 0.51 * h, -7.3, -1e-3, 0.7, 3.14159, 9.9,
                       hi - 0.51 * h, hi + 1e-9, lo - 0.3, 40.0] + FAR:
            got = opensys.assemble_heff(m, energy).matrix.entries.real
            want = mp_transform(profile, energy, m.window) * aat
            assert np.abs(got * (2.0 * np.pi) - want).max() \
                <= 1e-13 * np.abs(want).max(), energy

    @pytest.mark.parametrize("profile", PROFILES)
    def test_far_outside_the_window(self, profile):
        # where (1 - x^2) ln|(1 + x)/(1 - x)| + 2x cancels to eps x^2
        aat = self.amplitudes @ self.amplitudes.T
        energies = np.array(FAR + [39.9, 40.1, -40.1, 1e8])
        got = profile(self.amplitudes).pv_shift(energies, (-10.0, 10.0))
        for energy, shift in zip(energies, got):
            want = mp_transform(profile, energy, (-10.0, 10.0)) * aat
            assert np.abs(shift - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("profile", PROFILES)
    def test_threshold_exclusion_kept(self, profile):
        # within half a cell of a threshold inside the window, and on a
        # threshold node outside it, as for the grid quadrature
        m = self.model(profile, 201)
        lo, hi = m.window
        h = m.grid[1] - m.grid[0]
        for energy in (lo + 0.49 * h, hi - 0.49 * h, lo, hi,
                       hi + 1e-13 * h):
            with pytest.raises(ETooCloseToThreshold):
                opensys.assemble_heff(m, energy)
        for energy in (lo + 0.5 * h, hi + 1e-11 * h):
            assert np.isfinite(opensys.assemble_heff(m, energy)
                               .matrix.entries).all()


def mp_tabulated_shift(tab, energy, window):
    """PV int g g^T/(E - E') dE' over the window for a tabulated coupling's
    g, linear between its nodes and constant beyond them, in mpmath.  On
    each piece [a, b] between breakpoints g = u + v t with t = E' - E, so
    the piece is -int (u u^T/t + u v^T + v u^T + v v^T t) dt, taken exactly;
    on a breakpoint its ln|t| = ln 0 cancels with the next piece's."""
    with mp.workdps(30 + 2 * len(str(int(abs(energy))))):
        lo, hi, e = (mp.mpf(v) for v in (*window, energy))
        x = [mp.mpf(t) for t in tab.grid]
        y = [mp.matrix(node.tolist()) for node in tab.values]

        def g(t):
            k = bisect.bisect_right(x, t) - 1
            if k < 0 or k == len(x) - 1:
                return y[max(k, 0)]
            return y[k] + (t - x[k]) / (x[k + 1] - x[k]) * (y[k + 1] - y[k])

        def log(t):
            return mp.log(abs(t)) if t else 0

        cuts = sorted({lo, hi, *[t for t in x if lo < t < hi]})
        out = mp.matrix(tab.values.shape[1])
        for a, b in zip(cuts[:-1], cuts[1:]):
            v = (g(b) - g(a)) / (b - a)
            u, ta, tb = g(a) + (e - a) * v, a - e, b - e
            out -= u * u.T * (log(tb) - log(ta)) \
                + (u * v.T + v * u.T) * (tb - ta) \
                + v * v.T * (tb ** 2 - ta ** 2) / 2
        return np.array(out.tolist(), float)


class TestTabulatedShift:
    # non-uniform nodes, two of them 5e-4 apart far from E = 0; the table
    # runs past the lower threshold and stops short of the upper one,
    # where g stays at its last node's value
    rng = np.random.default_rng(7)
    nodes = np.sort(np.r_[rng.uniform(-13.0, 7.0, 10), -9.5, -9.4995])
    coupling = opensys.TabulatedCoupling(
        grid=nodes, values=rng.uniform(-1, 1, (12, 2, 2)))
    model = opensys.OpenSystemModel(e_b=np.zeros(2), coupling=coupling,
                                    window=(-10.0, 10.0), grid_size=201)

    def energies(self, h):
        inside = self.nodes[(-10.0 < self.nodes) & (self.nodes < 10.0)]
        return [*inside, *(0.5 * (inside[1:] + inside[:-1])), inside[0]
                + 1e-9, inside[-1] - 1e-12, 8.5, -10.0 + 0.51 * h,
                10.0 - 0.51 * h, -10.0 - 1e-9, 10.0 + 1e-9, -10.3, 11.0,
                40.0, -1e3, 1e4, 1e6, -1e6]

    def test_against_mpmath(self):
        # e_b = 0: the real part of H_eff is the shift over 2 pi alone; on,
        # next to and between the nodes, the last of them the table's end
        # inside the window, next to each threshold on both sides, and out
        # to 1e6
        m = self.model
        for energy in self.energies(m.grid[1] - m.grid[0]):
            got = opensys.assemble_heff(m, energy).matrix.entries.real
            want = mp_tabulated_shift(self.coupling, energy, m.window)
            assert np.abs(got * (2.0 * np.pi) - want).max() \
                <= 1e-13 * np.abs(want).max(), energy

    def test_grid_size_sets_no_bit(self):
        # away from the thresholds the grid size changes nothing
        a, b = (self.model._replace(grid_size=n) for n in (201, 2001))
        for energy in self.energies(0.1):
            assert np.array_equal(
                opensys.assemble_heff(a, energy).matrix.entries,
                opensys.assemble_heff(b, energy).matrix.entries)

    def test_semicircle_tabulated_on_the_grid(self):
        # a semicircle tabulated on the continuum grid is the closed form up
        # to the error of its linear interpolation
        amplitudes = np.array([[0.3], [-0.2]])
        m = opensys.OpenSystemModel(
            e_b=np.zeros(2), coupling=opensys.SemicircleCoupling(amplitudes),
            window=(-10.0, 10.0), grid_size=2001)
        tab = m._replace(coupling=opensys.TabulatedCoupling(
            grid=m.grid, values=m.coupling.on_grid(m.grid, m.window)))
        for energy in [-9.0037, -2.5, 0.30371, 7.77, 11.0, -30.0]:
            a, b = (opensys.assemble_heff(x, energy).matrix.entries.real
                    for x in (m, tab))
            assert np.abs(a - b).max() <= 1e-5 * np.abs(a).max(), energy


def five_point(m, energy, delta):
    """Central difference of H_eff at one energy from _heff_stack, on the
    five-point stencil E +- delta, E +- 2 delta."""
    h = opensys._heff_stack(m, energy + delta * np.array([-2.0, -1.0, 1.0,
                                                          2.0]))[0]
    return (8.0 * (h[2] - h[1]) - (h[3] - h[0])) / (12.0 * delta)


class TestHeffDerivative:
    # H_eff'(E) from the kernel against a central difference of H_eff, for
    # every profile, inside and outside the window, with and without
    # v_direct; for the table also within 1e-6 of each interior node, where
    # the shift has a kink and the PV poles of the two segments cancel
    rng = np.random.default_rng(5)
    nodes = np.array([-12.0, -6.5, -1.0, 0.4, 3.3, 8.0])
    couplings = [opensys.ConstantCoupling(rng.uniform(-0.6, 0.6, (3, 2))),
                 opensys.SemicircleCoupling(rng.uniform(-0.6, 0.6, (3, 2))),
                 opensys.TabulatedCoupling(grid=nodes, values=rng.uniform(
                     -0.6, 0.6, (6, 3, 2)))]
    v_direct = np.array([[0.0, 0.2, -0.1], [0.2, 0.0, 0.3], [-0.1, 0.3, 0.0]])

    def model(self, coupling, direct):
        return opensys.OpenSystemModel(
            e_b=[-0.5, 0.2, 1.1], coupling=coupling, window=(-10.0, 10.0),
            grid_size=401, v_direct=self.v_direct if direct else None)

    @pytest.mark.parametrize("coupling", range(3))
    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("energy", [-7.3, 0.7, 9.2, -13.0, 11.5, 40.0])
    def test_against_central_difference(self, coupling, direct, energy):
        m = self.model(self.couplings[coupling], direct)
        got = opensys._heff_stack(m, np.array([energy]))[3][0]
        want = five_point(m, energy, 1e-4)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("side", [-1e-6, 1e-6])
    def test_beside_a_node(self, direct, side):
        m = self.model(self.couplings[2], direct)
        for node in self.nodes[1:-1]:
            got = opensys._heff_stack(m, np.array([node + side]))[3][0]
            want = five_point(m, node + side, 3e-8)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_on_a_node_not_finite(self):
        # exactly on a node the derivative is not finite: the solver takes
        # the damped step there
        m = self.model(self.couplings[2], False)
        assert not np.isfinite(opensys._heff_stack(
            m, self.nodes[1:-1])[3]).all(axis=(1, 2)).any()

    @pytest.mark.parametrize("name", ["standard", "strong"])
    def test_eigenvalue_derivative(self, name):
        # dz/dE = phi^T H_eff' phi / phi^T phi (Hellmann-Feynman for complex
        # symmetric H_eff) against a central difference of the eigenvalue
        # followed to the nearest one at E +- delta
        m, delta = named_model(name), 1e-5
        for energy in [*m.e_b, 0.3, -4.0, 12.0]:
            heff, _, _, dheff = opensys._heff_stack(m, np.array([energy]))
            w, u = np.linalg.eig(heff[0])
            lo, hi = (np.linalg.eigvals(opensys.assemble_heff(
                m, energy + x).matrix.entries) for x in (-delta, delta))
            for z, phi in zip(w, u.T):
                fd = (hi[np.argmin(np.abs(hi - z))]
                      - lo[np.argmin(np.abs(lo - z))]) / (2.0 * delta)
                dz = phi @ dheff[0] @ phi / (phi @ phi)
                assert abs(dz - fd) <= 1e-6 * abs(fd), (energy, z)


class TestGridOnlyForTabulated:
    # no profile takes the continuum grid: its step sets only the
    # threshold exclusion and the solver's clamp
    @pytest.mark.parametrize("profile", PROFILES + [opensys.TabulatedCoupling])
    def test_analytic_profiles_take_no_grid(self, monkeypatch, profile):
        # no grid PV rule and no profile evaluated on the continuum grid
        monkeypatch.setattr(opensys, "pv_integral",
                            lambda *a: pytest.fail("pv_integral called"))
        seen, on_grid = [], profile.on_grid
        monkeypatch.setattr(profile, "on_grid", lambda self, grid, window:
                            seen.append(grid) or on_grid(self, grid, window))
        coupling = profile([[0.3], [0.2], [0.4]]) if profile in PROFILES \
            else opensys.TabulatedCoupling(grid=[-12.0, -1.0, 0.5, 4.0],
                                           values=np.full((4, 3, 1), 0.3))
        m = opensys.OpenSystemModel(e_b=[-0.5, 0.5, 3.0], coupling=coupling,
                                    window=(-10.0, 10.0), grid_size=2001)
        states = opensys.solve_resonances(m)
        assert all(s.converged for s in states)
        for energy in (0.3, 15.0):
            opensys.assemble_heff(m, energy)
        assert seen and max(len(grid) for grid in seen) <= 5


# ---------------------------------------------------------------------------
# self-consistent resonances

def second_sheet_pole(e_b, g, window, z_seed):
    """Pole of the full coupled resolvent continued below the cut.

    det(z - H(z)) = 0 with H(z) = diag(e_b) + S(z) g g^T and the
    second-sheet self-energy S(z) = (1/2pi)(log(z-lo) - log(z-hi)) - i.
    """
    lo, hi = window
    e_b = [mp.mpf(e) for e in e_b]
    gsq = mp.mpf(g) ** 2

    def det(z):
        s = (mp.log(z - lo) - mp.log(z - hi)) / (2 * mp.pi) - 1j
        d0 = z - e_b[0] - s * gsq
        d1 = z - e_b[1] - s * gsq
        return d0 * d1 - (s * gsq) ** 2

    return complex(mp.findroot(det, mp.mpc(z_seed)))


class TestSolveResonances:
    def test_zero_coupling_trivial(self):
        m = standard_model(g=0.0, grid_size=201)
        states = [s for s in opensys.solve_resonances(m)]
        assert all(s.converged for s in states)
        assert np.allclose(sorted(s.z.real for s in states), [-0.5, 0.5],
                           atol=1e-12)
        assert all(s.width == 0.0 for s in states)

    def test_single_state_width(self):
        g = 0.1
        m = opensys.OpenSystemModel(e_b=[0.0],
                                    coupling=opensys.ConstantCoupling([[g]]),
                                    window=(-10.0, 10.0), grid_size=2001)
        s, = opensys.solve_resonances(m)
        assert s.converged
        assert abs(s.width - g ** 2) < 1e-8
        assert abs(s.z.real) < 1e-8

    def test_weak_coupling_against_pole_oracle(self):
        m = standard_model()
        states = sorted(opensys.solve_resonances(m), key=lambda s: s.z.real)
        for s in states:
            e_b = -0.5 if s.z.real < 0 else 0.5
            oracle = second_sheet_pole(m.e_b, 0.055, m.window,
                                       e_b - 0.0015j)
            assert abs(s.z - oracle) < 1e-6
            assert s.converged and s.residual < 1e-9

    def test_couplings_reported(self):
        m = standard_model()
        for s in opensys.solve_resonances(m):
            assert s.gamma_c.shape == (1,)
            assert abs(s.gamma_c[0]) > 0.05

    def test_fixture_converges_in_few_steps(self):
        doc = json.loads((DATA / "open_system.json").read_text())
        states = opensys.solve_resonances(
            cli._build_open_system(doc["parameters"]))
        assert [s.converged for s in states] == [True, True]
        assert max(s.iterations for s in states) <= 5

    def test_one_stacked_eigensolve_per_round(self, monkeypatch):
        # every round diagonalizes the unconverged states' H_eff as one
        # stack, and the final solve is one more; no left vectors are built
        stacks, eig = [], linalg.eig_stack
        monkeypatch.setattr(linalg, "eig",
                            lambda *a, **k: pytest.fail("linalg.eig called"))
        monkeypatch.setattr(linalg, "eig_stack",
                            lambda a, herm: stacks.append(len(a)) or eig(a, herm))
        states = opensys.solve_resonances(standard_model())
        assert len(stacks) == max(s.iterations for s in states) + 1
        assert stacks[0] == stacks[-1] == len(states)
        assert all(s.iterations > 1 for s in states)

    def test_converged_states_leave_the_rounds(self, monkeypatch):
        # states that converge early drop out of the later rounds
        m = opensys.OpenSystemModel(
            e_b=[-0.5, 0.5, 9.5],
            coupling=opensys.ConstantCoupling(
                [[1.0, 0.6], [0.8, -0.9], [0.7, 1.2]]),
            window=(-10.0, 10.0), grid_size=2001)
        stacks, eig = [], linalg.eig_stack
        monkeypatch.setattr(linalg, "eig_stack",
                            lambda a, herm: stacks.append(len(a)) or eig(a, herm))
        its = [s.iterations for s in opensys.solve_resonances(m)]
        assert stacks[:-1] == [sum(i >= r for i in its)
                               for r in range(1, max(its) + 1)]
        assert len(set(its)) > 1

    def test_states_read_the_kth_sorted_pair(self):
        # one rank rule: state k returns, to the bit, the k-th pair that
        # sort_pairs gives for H_eff at its energy, its vector then
        # c-normalized inside the window and made real outside it; the
        # census seeds hold bound states, a direct interaction, both
        # profiles and an unconverged state
        seen = set()
        for m in (standard_model(), *map(census_model, (1, 2, 7, 15))):
            for k, s in enumerate(opensys.solve_resonances(m)):
                heff = opensys.assemble_heff(m, s.energy).matrix
                w, u = linalg.eig_pairs(heff)
                if m.window[0] < s.energy < m.window[1]:
                    want = linalg.c_columns(u[:, k:k + 1])[0][:, 0]
                    assert s.z == w[k] and np.array_equal(s.phi, want)
                else:
                    seen.add("bound")
                    p = u[:, k].real if np.isrealobj(s.phi) else u[:, k]
                    assert s.z == complex(w[k].real, 0.0)
                    assert np.array_equal(s.phi, p / np.linalg.norm(p))
            if m.v_direct is not None:
                seen.add("v_direct")
        assert seen == {"bound", "v_direct"}

    def test_strong_coupling_is_self_consistent(self):
        m = opensys.OpenSystemModel(
            e_b=[-0.5, 0.5, 9.5],
            coupling=opensys.ConstantCoupling(
                [[1.0, 0.6], [0.8, -0.9], [0.7, 1.2]]),
            window=(-10.0, 10.0), grid_size=2001)
        scale = 10.0
        states = opensys.solve_resonances(m)
        assert all(s.converged for s in states)
        for s in states:
            z = np.linalg.eigvals(
                opensys.assemble_heff(m, s.energy).matrix.entries)
            z_k = z[np.argmin(np.abs(z - s.z))]
            assert abs(z_k - s.z) <= 1e-10 * scale
            assert abs(z_k.real - s.energy) <= 1e-10 * scale

    def test_state_outside_window_stays_bound(self):
        m = opensys.OpenSystemModel(
            e_b=[-20.0, 0.0], coupling=opensys.ConstantCoupling([[0.1], [0.1]]),
            window=(-10.0, 10.0), grid_size=401)
        states = sorted(opensys.solve_resonances(m), key=lambda s: s.z.real)
        assert states[0].z.imag == 0.0
        assert states[1].width > 0.0

    def test_root_at_threshold(self):
        # F_0 changes sign across the excluded half cell at the lower
        # threshold: the state stops at the clamp edge once the clamp holds
        # it there, unconverged, its residual |F| at that edge
        m = census_model(1)
        lo, hi = m.window
        s = opensys.solve_resonances(m)[0]
        assert not s.converged and s.iterations < 10
        assert s.energy == lo + 0.51 * (m.grid[1] - m.grid[0])
        assert s.residual == abs(s.z.real - s.energy) > 0.0

    def test_bound_state_width_is_plus_zero(self):
        # outside the window z.imag is +0.0: its width is +0.0, not -0.0;
        # the width of a resonance is -2 Im z to the bit
        m = opensys.OpenSystemModel(
            e_b=[-20.0, 0.0], coupling=opensys.SemicircleCoupling([[0.1],
                                                                   [0.1]]),
            window=(-10.0, 10.0), grid_size=401)
        bound, resonance = sorted(opensys.solve_resonances(m),
                                  key=lambda s: s.z.real)
        assert bound.width == 0.0 and not np.signbit(bound.width)
        assert resonance.width.hex() == (-2.0 * resonance.z.imag).hex()


def _scalar_heff(m, energy):
    """H_eff at one energy as a ComplexMatrix, in the per-energy form: the
    PV shift from the profile's pv_shift at this energy alone."""
    lo, hi = m.window
    e = np.array([energy])
    g_e = np.zeros((1, m.n_states, m.n_channels))
    hint = linalg.HERMITIAN
    if lo < energy < hi:
        g_e = m.coupling.on_grid(e, m.window)
        hint = linalg.COMPLEX_SYMMETRIC
    shift = m.coupling.pv_shift(e, m.window)[0] / (2.0 * np.pi)
    width = 0.5 * g_e[0] @ g_e[0].T
    return linalg.ComplexMatrix(m.h_bound() + shift - 1j * width, hint)


def _scalar_clamp(energy, lo, hi, h):
    if lo < energy < lo + 0.51 * h:
        return lo + 0.51 * h
    if hi - 0.51 * h < energy < hi:
        return hi - 0.51 * h
    return energy


def per_state_resonances(m):
    """solve_resonances one state at a time: state k iterates alone on the
    k-th smallest real part of H_eff's eigenvalues, with one H_eff, its
    E-derivative and one eigensolve per step, picked on LAPACK's own unit
    vectors, its own bracket and the same Newton, bisection or expansion
    step, then one more eigensolve at its final energy, where it reads the
    k-th sorted pair, c-normalized alone; states whose energies agree to
    the stop tolerance read their pairs at the lowest of them."""
    lo, hi = m.window
    h = m.grid[1] - m.grid[0]
    tol = 1e-10 * max(np.abs(m.e_b).max(), abs(lo), abs(hi), 1.0)
    stops = []
    for k, energy in enumerate(np.linalg.eigh(m.h_bound())[0].tolist()):
        below, above, it, resid = -np.inf, np.inf, 0, np.inf
        for it in range(1, 201):
            energy = _scalar_clamp(energy, lo, hi, h)
            heff = _scalar_heff(m, energy)
            (w,), (u,) = linalg.eig_stack(heff.entries[None], np.array(
                [heff.symmetry_hint == linalg.HERMITIAN]))
            idx = int(np.argsort(w.real)[k])
            z, phi = w[idx], u[:, idx].copy()
            f = z.real - energy
            if f > 0:
                below = energy
            if f < 0:
                above = energy
            # H_eff'(E) alone; phi^T H_eff' phi / phi^T phi as one (1, N) row
            dheff = opensys._heff_stack(m, np.array([energy]))[3]
            row = phi[None]
            with np.errstate(all="ignore"):
                dz = (row[:, None] @ dheff @ row[..., None]) \
                    / (row[:, None] @ row[..., None])
                new_e = energy - f / (dz[0, 0, 0].real - 1.0)
                if not below < new_e < above:
                    new_e = energy + 2.0 * f if np.isinf(below) \
                        or np.isinf(above) else 0.5 * below + 0.5 * above
            resid = abs(new_e - energy)
            if resid < tol:
                energy = new_e
                break
            if _scalar_clamp(new_e, lo, hi, h) == energy:   # held at the edge
                resid = abs(f)
                break
            energy = new_e
        stops.append((_scalar_clamp(energy, lo, hi, h), it, resid))
    read, last = {}, None
    for k in sorted(range(m.n_states), key=lambda k: (stops[k][0], k)):
        if last is None or stops[k][0] - last > tol:
            root = stops[k][0]
        read[k], last = root, stops[k][0]
    states = []
    for k, (_, it, resid) in enumerate(stops):
        energy = read[k]
        w, u = linalg.eig_pairs(_scalar_heff(m, energy))
        z, phi = w[k], u[:, k]
        if lo < energy < hi:
            phi = linalg.c_columns(u[:, [k]])[0][:, 0]
        else:
            z = complex(z.real, 0.0)
            phi = phi.real / np.linalg.norm(phi.real) \
                if np.abs(phi.imag).max() < 1e-12 else phi / np.linalg.norm(phi)
        g_e = m.coupling.on_grid(np.array([energy]), m.window)[0] \
            if lo < energy < hi else np.zeros((m.n_states, m.n_channels))
        states.append(opensys.ResonanceState(
            z=complex(z), phi=phi, gamma_c=np.asarray(phi @ g_e, complex),
            energy=float(energy), converged=bool(resid < tol), iterations=it,
            residual=float(resid)))
    return states


def same_state(a, b):
    """Every ResonanceState field equal to the bit, and of the same type."""
    def fields(s):
        return ([type(getattr(s, f)) for f in ("z", "energy", "converged",
                                               "iterations", "residual")],
                [float(x).hex() for x in (s.z.real, s.z.imag, s.energy,
                                          s.residual)],
                (s.converged, s.iterations),
                [(x.dtype, x.shape, x.tobytes()) for x in (s.phi, s.gamma_c)])
    return fields(a) == fields(b)


NAMED_MODELS = {
    "fixture": lambda: cli._build_open_system(json.loads(
        (DATA / "open_system.json").read_text())["parameters"]),
    "standard": standard_model,
    "strong": lambda: opensys.OpenSystemModel(
        e_b=[-0.5, 0.5, 9.5], coupling=opensys.ConstantCoupling(
            [[1.0, 0.6], [0.8, -0.9], [0.7, 1.2]]),
        window=(-10.0, 10.0), grid_size=2001),
    "outside": lambda: opensys.OpenSystemModel(
        e_b=[-20.0, 0.0], coupling=opensys.ConstantCoupling([[0.1], [0.1]]),
        window=(-10.0, 10.0), grid_size=401),
    "continuum": lambda: continuum_model(np.random.default_rng(901)),
    # a strong pair low in the window whose lower root lies below it: at
    # E = -9.91 F' > 0 sends Newton the wrong way, and the bracket's
    # expansion and bisection carry the state past the threshold
    "guard": lambda: opensys.OpenSystemModel(
        e_b=[-7.35, -7.1], coupling=opensys.ConstantCoupling([[-1.5], [1.43]]),
        window=(-10.0, 10.0), grid_size=2001)}


def continuum_model(rng):
    """perfbench's continuum shape: 10 states, 2 channels, a semicircle."""
    return opensys.OpenSystemModel(
        e_b=np.sort(rng.uniform(-8.0, 8.0, 10)),
        coupling=opensys.SemicircleCoupling(rng.uniform(0.1, 0.5, (10, 2))),
        window=(-10.0, 10.0), grid_size=2001)


def census_model(seed):
    """A model of the census draw: N <= 8 states and C <= 3 channels, levels
    on (-14, 14), constant couplings on even seeds and semicircles on odd
    ones, a direct interaction on half of them, the window (-10, 10)."""
    rng = np.random.default_rng(seed)
    n, c = rng.integers(1, 9), rng.integers(1, 4)
    e_b = rng.uniform(-14.0, 14.0, n)
    scale = 10.0 ** rng.uniform(-3.0, 0.5)
    profile = opensys.SemicircleCoupling if seed % 2 else opensys.ConstantCoupling
    coupling = profile(rng.uniform(-1.0, 1.0, (n, c)) * scale)
    v = rng.uniform(-0.5, 0.5, (n, n))
    return opensys.OpenSystemModel(
        e_b, coupling, (-10.0, 10.0), v_direct=v + v.T if rng.integers(2)
        else None, grid_size=2 * int(rng.integers(10, 201)) + 1)


def named_model(name):
    return NAMED_MODELS[name]()


@st.composite
def open_models(draw):
    """Models with N <= 8 states and C <= 3 channels, constant, semicircle
    or tabulated couplings over four decades, bound energies inside and
    outside the window (-10, 10), with and without a direct interaction.
    A tabulation has 1 to 12 nodes drawn on (-14, 14), some outside the
    window."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    e_b = draw(st.lists(st.floats(-14.0, 14.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 0.5))
    profile = draw(st.sampled_from([opensys.ConstantCoupling,
                                    opensys.SemicircleCoupling,
                                    opensys.TabulatedCoupling]))
    if profile is opensys.TabulatedCoupling:
        nodes = np.unique(rng.uniform(-14.0, 14.0, draw(st.integers(1, 12))))
        coupling = profile(grid=nodes, values=rng.uniform(
            -1.0, 1.0, (len(nodes), n, c)) * scale)
    else:
        coupling = profile(rng.uniform(-1.0, 1.0, (n, c)) * scale)
    v_direct = None
    if draw(st.booleans()):
        v = rng.uniform(-0.5, 0.5, (n, n))
        v_direct = v + v.T
    return opensys.OpenSystemModel(
        e_b=e_b, coupling=coupling, window=(-10.0, 10.0),
        grid_size=2 * draw(st.integers(10, 200)) + 1, v_direct=v_direct)


class TestRoundsAgainstPerState:
    @settings(max_examples=80)
    @given(open_models())
    def test_rounds_change_no_iterate(self, m):
        try:
            want = per_state_resonances(m)
        except NhspecError as exc:
            with pytest.raises(type(exc)):
                opensys.solve_resonances(m)
            return
        got = opensys.solve_resonances(m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert same_state(a, b), (a, b)

    @pytest.mark.parametrize("name", sorted(NAMED_MODELS))
    def test_named_models(self, name):
        m = named_model(name)
        for a, b in zip(opensys.solve_resonances(m), per_state_resonances(m)):
            assert same_state(a, b)

    def test_guard_model_converges(self):
        # Newton steps kept only from crossing a threshold do not converge on
        # its lower state within 200 rounds, and the secant took 58; the
        # bracketed step takes 13
        states = opensys.solve_resonances(named_model("guard"))
        assert all(s.converged for s in states)
        assert max(s.iterations for s in states) <= 20


class TestSelfConsistency:
    @settings(max_examples=80)
    @given(open_models())
    # models where following states by overlap put two on one root
    @example(m=census_model(3010))
    @example(m=census_model(13))
    @example(m=census_model(28))
    @example(m=census_model(64))
    @example(m=census_model(3944))
    @example(m=continuum_model(np.random.default_rng(9)))
    @example(m=continuum_model(np.random.default_rng(11)))
    @example(m=continuum_model(np.random.default_rng(24)))
    def test_converged_states_are_fixed_points(self, m):
        # re-evaluated through assemble_heff, every converged state gives
        # back its z, with Re z(E) = E, and no root (E, z) holds more
        # converged states than z has eigenvalues there: states may share
        # an energy, as a dark state beside a bright one, but not a z
        try:
            states = opensys.solve_resonances(m)
        except NhspecError:
            return
        scale = max(np.abs(m.e_b).max(), 10.0)
        roots = np.array([s.z for s in states if s.converged])
        for s in states:
            if s.converged:
                w = np.linalg.eigvals(opensys.assemble_heff(
                    m, s.energy).matrix.entries)
                z = w[np.argmin(np.abs(w - s.z))]
                assert abs(z - s.z) <= 1e-9 * scale, s
                assert abs(z.real - s.energy) <= 1e-9 * scale, s
                assert (np.abs(roots - s.z) <= 1e-7 * scale).sum() \
                    <= (np.abs(w - s.z) <= 1e-7 * scale).sum(), roots


class TestNonFiniteHeff:
    # e_b and g finite, g g^T overflows: a numerical failure naming the
    # energy, not an input error
    model = opensys.OpenSystemModel(
        e_b=[0.0, 1e308], coupling=opensys.ConstantCoupling([[1e200], [1e200]]),
        window=(-10.0, 10.0), grid_size=201)

    def test_solver_raises_self_consistency_failure(self):
        with pytest.raises(SelfConsistencyFailure, match="E = 0.0"):
            opensys.solve_resonances(self.model)

    def test_assemble_heff_raises_self_consistency_failure(self):
        with pytest.raises(SelfConsistencyFailure, match="not finite"):
            opensys.assemble_heff(self.model, 1e308)


class TestBoundHamiltonian:
    # a bound Hamiltonian that is not real symmetric is the model's fault,
    # so it is rejected on construction instead of as H_eff in the solver
    @pytest.mark.parametrize("e_b,v_direct", [
        ([-0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]]),
        ([-0.5, np.nan], None)])
    def test_rejected_on_construction(self, e_b, v_direct):
        with pytest.raises(ValueError, match=r"^diag\(e_b\) \+ v_direct must "
                           "be finite and symmetric$"):
            opensys.OpenSystemModel(
                e_b=e_b, coupling=opensys.ConstantCoupling([[0.1], [0.1]]),
                window=(-2.0, 2.0), v_direct=v_direct)


# ---------------------------------------------------------------------------
# mixing and interior rigidity

def fake_state(z, phi, gamma_c=(1.0,)):
    return opensys.ResonanceState(z=z, phi=np.asarray(phi, complex),
                                  gamma_c=np.asarray(gamma_c, complex),
                                  energy=float(np.real(z)), converged=True,
                                  iterations=1)


class TestMixing:
    def test_identity_at_zero_coupling(self):
        m = standard_model(g=0.0, grid_size=201)
        states = opensys.solve_resonances(m)
        res = opensys.mixing_coefficients(states)
        assert np.abs(np.abs(res.matrix) - np.eye(2)).max() < 1e-9
        assert res.sum_rule_residual < 1e-9
        assert not res.flagged.any()

    def test_sum_rule_weak_coupling(self):
        m = standard_model()
        states = opensys.solve_resonances(m)
        res = opensys.mixing_coefficients(states)
        assert res.sum_rule_residual < 1e-3

    def test_bound_basis_requires_model(self):
        states = [fake_state(0.1 - 0.1j, [1.0, 0.0]),
                  fake_state(-0.1 - 0.1j, [0.0, 1.0])]
        with pytest.raises(ValueError):
            opensys.mixing_coefficients(states, basis=opensys.BOUND_BASIS)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            opensys.mixing_coefficients([fake_state(0.0, [1.0])],
                                        basis="nope")

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           log_distance=st.floats(-8.0, 0.0))
    def test_sum_rule_away_from_coalescence(self, seed, n, log_distance):
        # random complex-symmetric H moved toward a matrix with an EP in its
        # leading 2x2 block; H_B = Re H spans the bound basis
        rng = np.random.default_rng(seed)
        ep = np.diag(np.arange(n, dtype=complex))
        ep[:2, :2] = [[1.0, 1j], [1j, -1.0]]
        t = 1.0 - 10.0 ** log_distance
        h = (1.0 - t) * random_complex_symmetric(rng, n) + t * ep
        sys = linalg.c_normalize(linalg.eig(
            linalg.ComplexMatrix(h, linalg.COMPLEX_SYMMETRIC)))
        assume(not sys.ep_flag.any() and sys.rigidity_r.min() >= 1e-3)
        states = [fake_state(complex(z), phi)
                  for z, phi in zip(sys.values, sys.right_vectors.T)]
        model = opensys.OpenSystemModel(
            e_b=np.zeros(n), coupling=opensys.ConstantCoupling(np.zeros((n, 1))),
            window=(-10.0, 10.0), v_direct=h.real)
        for basis in (opensys.UNPERTURBED_BASIS, opensys.BOUND_BASIS):
            res = opensys.mixing_coefficients(states, basis=basis, model=model)
            assert not res.flagged.any()
            assert res.sum_rule_residual <= 1e-10

    def test_cap_flags_large_entries(self):
        # the last state's exact zero is not capped and stays 0, with no 0/0
        states = [fake_state(0.0 - 0.1j, [3.0, 4.0]),
                  fake_state(0.2 - 0.1j, [4.0, -3.0]),
                  fake_state(0.4 - 0.1j, [0.0, 0.5])]
        res = opensys.mixing_coefficients(states, cap=1.0)
        assert res.flagged.any()
        assert np.abs(res.matrix).max() <= 1.0 + 1e-12
        assert res.matrix[2, 0] == 0 and res.matrix[2, 1] == 0.5


class TestInteriorRigidity:
    def test_single_resonance_rigid(self):
        states = [fake_state(0.0 - 0.05j, [1.0])]
        _, rho = opensys.interior_rigidity(states, 0.01)
        assert abs(rho - 1.0) < 1e-12

    def test_isolated_resonances_rigid(self):
        states = [fake_state(-1.0 - 0.001j, [1.0, 0.0]),
                  fake_state(1.0 - 0.001j, [0.0, 1.0])]
        _, rho = opensys.interior_rigidity(states, -1.0005)
        assert rho > 0.99

    def test_overlapping_resonances_mixed(self):
        # one quarter turn between the two coefficients: the c-norm cancels
        states = [fake_state(-0.1 - 1e-9j, [1.0, 0.0]),
                  fake_state(0.0 - 0.1j, [0.0, 1.0])]
        _, rho = opensys.interior_rigidity(states, 0.0)
        assert rho < 0.5


# ---------------------------------------------------------------------------
# width bifurcation

class TestToyTrapping:
    def chain(self, n=21):
        return np.linspace(-10.0, 10.0, n), np.ones(n)

    def test_alpha_zero_closed(self):
        h0, v = self.chain()
        rep = opensys.toy_trapping(h0, v, np.array([0.0, 0.1]))
        assert np.abs(rep.widths[0]).max() < 1e-12

    def test_dissipative(self):
        h0, v = self.chain()
        rep = opensys.toy_trapping(h0, v, np.linspace(0.01, 5.0, 60))
        assert (rep.widths > -1e-12).all()

    def test_trace_identity(self):
        h0, v = self.chain()
        alphas = np.linspace(0.01, 5.0, 60)
        rep = opensys.toy_trapping(h0, v, alphas)
        tr = np.outer(v, v).trace()
        for t, alpha in enumerate(alphas):
            assert abs(rep.widths[t].sum() - 2.0 * alpha * tr) \
                < 1e-9 * max(2.0 * alpha * tr, 1.0)

    def test_bifurcation_splits_widths(self):
        h0, v = self.chain()
        rep = opensys.toy_trapping(h0, v, np.linspace(0.01, 5.0, 120))
        assert rep.n_trapped == len(h0) - 1
        assert 0.1 < rep.alpha_cr < 1.0
        assert abs(rep.slope - 2.0) < 0.1
        assert rep.fit_residual < 0.01

    def test_broad_state_linear_in_alpha(self):
        h0, v = self.chain()
        alphas = np.linspace(2.0, 5.0, 40)
        rep = opensys.toy_trapping(h0, v, alphas)
        # deep in the trapping regime the short-lived state carries nearly
        # the whole sum rule, so its width grows like 2 alpha tr(V V^T)
        tr = np.outer(v, v).trace()
        assert rep.widths[-1].max() > 0.9 * 2.0 * alphas[-1] * tr

    def test_matrix_h0_accepted(self):
        h0 = np.diag([1.0, -1.0]) + 0.1 * (np.eye(2)[::-1])
        rep = opensys.toy_trapping(h0, np.ones(2)[:, None],
                                   np.array([0.0, 0.5]))
        assert rep.widths.shape == (2, 2)

    def test_validation(self):
        h0, v = self.chain(5)
        with pytest.raises(ValueError):
            opensys.toy_trapping(h0, v, np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            opensys.toy_trapping(np.array([[0.0, 1.0], [2.0, 0.0]]),
                                 np.ones(2)[:, None], np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            opensys.toy_trapping(np.diag([1.0, 2.0]), np.eye(2),
                                 np.array([0.0, 0.5]))
        for alphas in ([], [0.5]):
            with pytest.raises(ValueError, match="at least 2 points"):
                opensys.toy_trapping(h0, v, np.array(alphas))

    @pytest.mark.parametrize("alphas", [[0.1, 0.1, 0.2, 0.3],
                                        [0.5, 0.5, 0.5], [0.1, 0.3, 0.2]])
    def test_grid_must_be_strictly_monotone(self, alphas):
        h0, v = self.chain(5)
        with pytest.raises(ValueError, match="strictly monotone"):
            opensys.toy_trapping(h0, v, np.array(alphas))
