import json
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhspec import scattering
from nhspec.errors import (GridTooCoarse, NhspecError, PoleOnRealAxis,
                           SingularResolvent)

from conftest import random_real_symmetric

DATA = Path(__file__).parent / "data"


def one_pole_model(e0=0.0, gamma=0.2):
    return scattering.SMatrixModel(poles=[e0 - 0.5j * gamma],
                                   couplings=[[np.sqrt(gamma)]])


def mp_s(h_b, g, energy, channel=0):
    """S_cc = 1 - i g^T (E - H_B + (i/2) g g^T)^-1 g in 50 digits."""
    with mpmath.workdps(50):
        gm = mpmath.matrix(np.asarray(g).tolist())
        a = (mpmath.mpf(float(energy)) * mpmath.eye(len(h_b))
             - mpmath.matrix(np.asarray(h_b).tolist()) + 0.5j * gm * gm.T)
        col = gm[:, channel]
        return complex(1 - 1j * (col.T * mpmath.lu_solve(a, col))[0])


class TestModelValidation:
    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            scattering.SMatrixModel(poles=[0.0 - 0.1j],
                                    couplings=[[1.0], [1.0]])

    def test_upper_half_pole_rejected(self):
        with pytest.raises(ValueError):
            scattering.SMatrixModel(poles=[0.0 + 0.1j], couplings=[[1.0]])


class TestSMatrix:
    def test_breit_wigner_closed_form(self):
        gamma = 0.2
        m = one_pole_model(gamma=gamma)
        for e in (-0.3, 0.0, 0.05, 1.7):
            s = scattering.s_matrix_polesum(m, e)[0, 0]
            oracle = 1.0 - 1j * gamma / (e - (-0.5j * gamma))
            assert abs(s - oracle) < 1e-14
            assert abs(abs(s) - 1.0) < 1e-12

    def test_zero_coupling_identity(self):
        m = scattering.SMatrixModel(poles=[0.0 - 0.1j], couplings=[[0.0]])
        s = scattering.s_matrix_polesum(m, 0.3)
        assert np.abs(s - np.eye(1)).max() < 1e-15

    def test_polesum_matches_resolvent(self, rng):
        h_b = random_real_symmetric(rng, 4)
        g = rng.standard_normal((4, 2)) * 0.3
        m = scattering.SMatrixModel.from_effective_hamiltonian(h_b, g)
        for e in np.linspace(-3.0, 3.0, 11):
            sp = scattering.s_matrix_polesum(m, e)
            sr = scattering.s_matrix_resolvent(h_b, g, e)
            assert np.abs(sp - sr).max() < 1e-10

    def test_unitary_on_real_axis(self, rng):
        for _ in range(20):
            n, c = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            h_b = random_real_symmetric(rng, n)
            g = rng.standard_normal((n, c)) * 0.4
            s = scattering.s_matrix_resolvent(h_b, g, float(rng.normal()))
            assert np.abs(s @ s.conj().T - np.eye(c)).max() < 1e-10

    def test_symmetric(self, rng):
        h_b = random_real_symmetric(rng, 3)
        g = rng.standard_normal((3, 2))
        s = scattering.s_matrix_resolvent(h_b, g, 0.4)
        assert np.abs(s - s.T).max() < 1e-12

    def test_zero_width_pole_on_axis_rejected(self):
        m = scattering.SMatrixModel(poles=[0.5 + 0.0j], couplings=[[1.0]])
        with pytest.raises(PoleOnRealAxis):
            scattering.s_matrix_polesum(m, 0.5)

    def test_near_real_pole_is_finite(self):
        # only an exact hit raises; a pole 1e-9 below the axis gives
        # S = 1 - i g^2 / (i 1e-9) = 1 - 10
        m = scattering.SMatrixModel(poles=[0.5 - 1e-9j], couplings=[[1e-4]])
        assert scattering.s_matrix_polesum(m, 0.5)[0, 0] == pytest.approx(-9.0)

    def test_singular_resolvent_rejected(self):
        # the decoupled level at E = 0 makes E - H_B + (i/2) g g^T singular
        with pytest.raises(SingularResolvent):
            scattering.s_matrix_resolvent(np.diag([0.0, 1.0]), [[0.0], [1.0]],
                                          0.0)


class TestDoublePoleLineshape:
    def grid(self, width, span, pts_per_width=16):
        n = int(2 * span / width * pts_per_width) | 1
        return np.linspace(-span, span, n)

    def test_center_transparent(self):
        gamma = 0.2
        rep = scattering.double_pole_lineshape(0.0, gamma,
                                               self.grid(gamma, 3.0))
        assert rep.sigma_at_center < 1e-28
        # the grid center hits E_d exactly: interference closes the channel
        assert rep.sigma[len(rep.grid) // 2] < 1e-25

    def test_two_pi_phase(self):
        gamma = 0.2
        rep = scattering.double_pole_lineshape(0.0, gamma,
                                               self.grid(gamma, 40.0, 12))
        assert abs(rep.total_phase_change - 2 * np.pi) < 0.01

    def test_broader_than_breit_wigner(self):
        gamma = 0.2
        rep = scattering.double_pole_lineshape(0.0, gamma,
                                               self.grid(gamma, 3.0))
        assert rep.halfmax_span > rep.breit_wigner_span

    def test_double_dip_structure(self):
        gamma = 0.2
        rep = scattering.double_pole_lineshape(0.0, gamma,
                                               self.grid(gamma, 3.0))
        assert any(abs(x) < 1e-9 for x in rep.minima)
        assert len(rep.maxima) == 2

    @pytest.mark.parametrize("power", [-996, 1000])
    def test_energies_scaled_by_a_power_of_two(self, power):
        # S depends on (E - E_d) / Gamma_d alone; the rescaled grid is exact,
        # so every S bit and every energy feature scaled back is the same,
        # down to a width of 3e-301 and up to 2e300, where Gamma_d^2 and
        # D^2 underflow or overflow
        grid, unit = np.linspace(-3.0, 3.0, 4001), 2.0 ** power
        want = scattering.double_pole_lineshape(0.5, 0.2, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scattering.double_pole_lineshape(0.5 * unit, 0.2 * unit,
                                                   grid * unit)
        for name in ("s_values", "sigma", "phase", "total_phase_change",
                     "sigma_at_center"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("halfmax_span", "breit_wigner_span", "minima", "maxima"):
            assert np.array_equal(np.divide(getattr(got, name), unit),
                                  getattr(want, name))

    def test_validation(self):
        with pytest.raises(ValueError):
            scattering.double_pole_lineshape(0.0, 0.0, np.linspace(-3, 3, 801))
        with pytest.raises(GridTooCoarse):
            scattering.double_pole_lineshape(0.0, 0.2, np.linspace(-1, 1, 801))
        with pytest.raises(GridTooCoarse):
            scattering.double_pole_lineshape(0.0, 0.2, np.linspace(-3, 3, 51))
        for grid in ([], [0.0]):
            with pytest.raises(GridTooCoarse, match="at least 2 points"):
                scattering.double_pole_lineshape(0.0, 0.2, np.array(grid))


class TestLineshape:
    def test_single_pole_pi_phase(self):
        gamma = 0.2
        m = one_pole_model(gamma=gamma)
        grid = np.linspace(-100 * gamma, 100 * gamma, 32001)
        rep = scattering.lineshape(m, grid)
        assert abs(rep.total_phase_change - np.pi) < 0.01 * np.pi
        assert rep.sigma_at_center > 3.9   # |1 - S| = 2 on resonance

    def test_grid_too_coarse(self):
        m = one_pole_model(gamma=0.01)
        with pytest.raises(GridTooCoarse):
            scattering.lineshape(m, np.linspace(-1.0, 1.0, 101))
        for grid in ([], [0.0]):
            with pytest.raises(GridTooCoarse, match="at least 2 points"):
                scattering.lineshape(m, np.array(grid))

    def test_zero_width_pole_on_grid_rejected(self):
        m = scattering.SMatrixModel(poles=[0.5 + 0.0j, 0.0 - 0.2j],
                                    couplings=[[1.0], [np.sqrt(0.2)]])
        with pytest.raises(PoleOnRealAxis) as exc:
            scattering.lineshape(m, np.linspace(-2.0, 2.0, 401))
        assert exc.value.energy == 0.5

    def test_non_finite_s_is_refused(self):
        # gamma^2 = 1e400 overflows in the pole sum: S is refused at its
        # first energy, with no warning, by the lineshape and the BIC scan
        grid = np.linspace(-1.0, 1.0, 11)
        m = scattering.SMatrixModel(poles=[-1e-300j], couplings=[[1e200]],
                                    energy_grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NhspecError, match=r"S is not finite at "
                               r"energy -1\.0$"):
                scattering.lineshape(m, grid)
            with pytest.raises(NhspecError, match="S is not finite at "):
                scattering.detect_bic(m)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           c=st.integers(1, 3), channel=st.integers(0, 2))
    def test_batched_s_matches_polesum(self, seed, n, c, channel):
        rng = np.random.default_rng(seed)
        # distinct levels keep the pole vectors well conditioned
        levels = np.cumsum(rng.uniform(0.5, 1.5, n)) - 0.5 * n
        g = rng.uniform(0.1, 0.6, (n, c)) * rng.choice([-1.0, 1.0], (n, c))
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag(levels), g)
        channel = min(channel, c - 1)
        width = (-2.0 * m.poles.imag).min()
        center = float(m.poles.real.mean())
        grid = center + np.linspace(-200.0, 200.0, 401) * width / 10.0
        # a model from H_B is evaluated from its K-matrix (for n = 1 the grid
        # centre is the level itself), a pole list by the pole sum
        rep = scattering.lineshape(m, grid, channel=channel)
        exact = np.array([scattering.s_matrix_resolvent(np.diag(levels), g, e)
                          for e in grid])
        assert np.abs(rep.s_values - exact[:, channel, channel]).max() <= 1e-13
        poles = scattering.SMatrixModel(m.poles, m.couplings)
        rep_poles = scattering.lineshape(poles, grid, channel=channel)
        full = np.array([scattering.s_matrix_polesum(m, e) for e in grid])
        assert np.abs(rep_poles.s_values
                      - full[:, channel, channel]).max() <= 1e-13
        # real H_B: S is unitary, so with one channel S_cc is a pure phase
        defect = np.einsum("eij,ekj->eik", full, full.conj()) - np.eye(c)
        assert np.abs(defect).max() <= 1e-9
        if c == 1:
            assert np.abs(np.abs(rep.s_values) - 1.0).max() <= 1e-9


class TestKMatrix:
    def test_level_hit_is_the_k_limit(self):
        # K is infinite on a coupled level: one channel gives S = -1 there
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([-1.0, 0.5]), [[0.3], [0.4]])
        s = scattering._s_diag(m, np.array([0.5, -1.0, 0.2]), 0)
        assert s[:2].tolist() == [-1.0, -1.0]
        assert abs(s[0] - mp_s(np.diag([-1.0, 0.5]), [[0.3], [0.4]], 0.5)) \
            <= 1e-15
        assert abs(s[2] - mp_s(np.diag([-1.0, 0.5]), [[0.3], [0.4]], 0.2)) \
            <= 1e-15

    def test_decoupled_level_drops_out(self):
        # the level at 0 is a zero-width pole that does not scatter: the
        # pole sum raises there, K leaves it out
        grid = np.linspace(-2.0, 2.0, 401)
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([0.0, 1.0]), [[0.0], [1.0]], energy_grid=grid)
        assert m.levels.tolist() == [1.0]
        rep = scattering.lineshape(m, grid)
        assert grid[200] == 0.0 and grid[300] == 1.0
        k = 1.0 / np.delete(grid - 1.0, 300)
        assert np.abs(np.delete(rep.s_values, 300)
                      - (2.0 - 1j * k) / (2.0 + 1j * k)).max() <= 1e-15
        assert abs(rep.s_values[300] + 1.0) <= 1e-15
        (bic,) = scattering.detect_bic(m)
        assert bic.energy == 0.0 and abs(bic.phase_jump) < 1e-12

    def test_exact_bic_is_finite(self):
        # two coupled levels at 0.5 trap their antisymmetric state exactly;
        # S is that of the symmetric state alone, finite on the level
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([0.5, 0.5]), [[1.0], [1.0]])
        grid = np.linspace(-2.0, 2.0, 401)
        assert grid[250] == 0.5
        rep = scattering.lineshape(m, grid)
        assert rep.s_values[250] == -1.0
        for t in range(0, len(grid), 25):
            assert abs(rep.s_values[t]
                       - mp_s([[0.5]], [[np.sqrt(2.0)]], grid[t])) <= 1e-15
        # the local scan probes 0.5 itself; the state does not scatter, so
        # there is no phase jump
        (bic,) = scattering.detect_bic(m)
        assert abs(bic.energy - 0.5) <= 1e-15 and abs(bic.phase_jump) < 1e-12
        assert not bic.peak_resolved

    def test_two_channel_exact_bic_is_finite(self):
        # the level-basis resolvent is singular on the degenerate pair; its
        # null vector (1, -1, 0) is orthogonal to g, so S is that of the
        # model without it
        h_b, g = np.diag([0.5, 0.5, 1.0]), [[1.0, 2.0], [1.0, 2.0], [0.3, 0.1]]
        m = scattering.SMatrixModel.from_effective_hamiltonian(h_b, g)
        r = np.sqrt(2.0)
        for channel in (0, 1):
            s = scattering._s_diag(m, np.array([0.5, 1.0, 0.2]), channel)
            exact = [mp_s(np.diag([0.5, 1.0]), [[r, 2 * r], [0.3, 0.1]], e,
                          channel) for e in (0.5, 1.0)]
            exact.append(mp_s(h_b, g, 0.2, channel))
            assert np.abs(s - exact).max() <= 1e-14

    def test_rounded_zero_width_pole_accepted(self):
        # eig puts the exact BIC of this H_B at Im z ~ +1e-17; every pole of
        # a real H_B has Im z = -|g^T v|^2 / 2 <= 0
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([0.5, 0.5, -1.0]), [[1.0], [1.0], [0.5]])
        assert (m.poles.imag <= 0.0).all()
        assert (m.poles.imag == 0.0).sum() == 1
        (bic,) = scattering.detect_bic(m)
        assert abs(bic.energy - 0.5) <= 1e-15 and abs(bic.phase_jump) < 1e-12

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
           form=st.sampled_from(["diagonal", "rotated", "pair"]))
    def test_one_channel_unitary(self, seed, n, form):
        rng = np.random.default_rng(seed)
        levels = np.cumsum(rng.uniform(0.3, 1.2, n)) - 0.6 * n
        g = rng.uniform(0.5, 1.5, (n, 1)) * rng.choice([-1.0, 1.0], (n, 1))
        if form != "rotated":       # decoupled levels: zero-width poles
            g[rng.random(n) < 0.3] = 0.0
        if form == "pair":          # a near-BIC of width ~ delta^2 / g^2
            levels = np.append(levels, levels[0] + 10 ** rng.uniform(-8, -6))
            g = np.vstack([g, g[:1]])
        h_b = np.diag(levels)
        if form == "rotated":
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            h_b, g = q @ h_b @ q.T, q @ g
            h_b = 0.5 * (h_b + h_b.T)
        m = scattering.SMatrixModel.from_effective_hamiltonian(h_b, g)
        zero = m.poles.real[-2.0 * m.poles.imag <= 1e-12]
        grid = np.linspace(levels.min() - 2.0, levels.max() + 2.0, 201)
        near = (zero[:, None] + [-1e-12, 1e-12, -1e-13, 0.0, 1e-13]).ravel()
        energies = np.concatenate([
            grid, m.levels, np.nextafter(m.levels, np.inf), near])
        s = scattering._s_diag(m, energies, 0)
        assert np.abs(np.abs(s) - 1.0).max() <= 1e-14
        # the exact S of the same floats, to rounding in K: each term
        # g_n^2 / (E - e_n) is off by about eps of itself, which next to a
        # pair is large against K, their difference.  A rotated H_B adds
        # eigh's rounding of the levels, so it is left to unitarity.
        if form == "rotated":
            return
        lead = len(grid) + 2 * len(m.levels)
        for i in [*rng.choice(len(grid), 3, replace=False),
                  *range(len(grid), len(grid) + len(m.levels)),
                  *range(lead, len(energies), 5),       # 1e-12 either side
                  *range(lead + 1, len(energies), 5)]:  # of a zero width
            d = np.abs(energies[i] - m.levels)
            terms = m.level_couplings[d > 0, 0] ** 2 / d[d > 0]
            bound = 1e-14 + np.finfo(float).eps * terms.sum()
            assert abs(s[i] - mp_s(h_b, g, energies[i])) <= bound

    def test_bic_pair_fixture_is_exact(self):
        # the pole sum is off by 1.8e-3 here, the K form by 2.5e-16
        doc = json.loads((DATA / "bic_pair.json").read_text())
        p, grid = doc["parameters"], doc["grid"]
        h_b = np.diag(p["h_b"])
        grid = np.linspace(grid["start"], grid["stop"], grid["points"])
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            h_b, p["gamma_hat"], energy_grid=grid)
        rep = scattering.lineshape(m, grid)
        for t in range(0, len(grid), 10):
            assert abs(rep.s_values[t] - mp_s(h_b, p["gamma_hat"], grid[t])) \
                <= 1e-14


# ---------------------------------------------------------------------------
# bit identity of the phase unwrapping and of the one-channel K path

def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(want.view(float)))


def k_path_s_plain(m, energies):
    """The one-channel K path written plainly: every energy on a level set
    apart, 1j * K formed twice and -1 chosen by np.where everywhere."""
    g = m.level_couplings
    r = energies - m.levels[:, None]
    hit = (r == 0.0).any(axis=0)
    r[:, hit] = np.inf
    k = np.divide(1.0, r, out=r).T @ (g[:, :, None] * g[:, None]).reshape(
        len(g), 1)
    return np.where(hit, -1.0, (2.0 - 1j * k[:, 0]) / (2.0 + 1j * k[:, 0]))


# arg S exactly 0, -0.0, +-pi/2 and +-pi, next to the branch cut, and
# anywhere; steps between them are exactly +-pi, or near +-2 pi
ON_AXES = [1 + 0j, complex(1, -0.0), complex(0.0, -0.0), 0j, 1j, -1j,
           complex(-1, 0.0), complex(-1, -0.0), complex(-0.0, -0.0),
           complex(-1, 1e-300), complex(-1, -1e-300)]
S_VALUES = st.one_of(
    st.sampled_from(ON_AXES),
    st.builds(complex, st.floats(-2.0, -1e-3), st.floats(-1e-3, 1e-3)),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


@st.composite
def s_sequences(draw):
    """S values of length 1 to 3, of any length, or jumping across the
    branch cut of arg at every step."""
    form = draw(st.sampled_from(["short", "long", "every_step"]))
    if form == "every_step":
        eps = draw(st.floats(0.0, 1e-3))
        return [complex(-1.0, eps if k % 2 else -eps)
                for k in range(draw(st.integers(1, 40)))]
    return draw(st.lists(S_VALUES, min_size=1,
                         max_size=3 if form == "short" else 40))


class TestBitIdentity:
    @settings(max_examples=400)
    @given(s=s_sequences())
    @example(s=[complex(1, -0.0)])
    @example(s=[1 + 0j, complex(-1, 0.0)])              # a step of +pi
    @example(s=[complex(-1, 0.0), 1 + 0j, 1j, -1j])     # -pi, +pi/2, -pi
    @example(s=[complex(-1, -0.0), 1 + 0j, complex(-1, 0.0)])
    @example(s=[complex(-1, 1e-300), complex(-1, -1e-300)] * 3)
    def test_unwrapped_phase_is_numpys(self, s):
        s = np.array(s, complex)
        assert_same_bits(scattering._unwrapped_phase(s),
                         0.5 * np.unwrap(np.angle(s)))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           on_level=st.booleans())
    def test_one_channel_k_path_is_the_plain_form(self, seed, n, on_level):
        rng = np.random.default_rng(seed)
        g = rng.uniform(-1.5, 1.5, (n, 1))
        g[rng.random(n) < 0.2] = 0.0        # decoupled levels drop out
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            random_real_symmetric(rng, n), g)
        energies = np.linspace(-4.0, 4.0, 201)
        if on_level:
            energies = np.sort(np.concatenate([energies, m.levels]))
        assert_same_bits(scattering._s_cc(m, energies, 0),
                         k_path_s_plain(m, energies))


def _extrema_loop(grid, y):
    minima, maxima = [], []
    for i in range(1, len(y) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1]:
            minima.append(float(grid[i]))
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            maxima.append(float(grid[i]))
    return minima, maxima


class TestExtrema:
    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_matches_loop_with_plateaus(self, values):
        # few distinct levels make plateaus (ties) common
        y = np.array(values, float)
        grid = np.linspace(-1.0, 1.0, len(y))
        assert scattering._extrema(grid, y) == _extrema_loop(grid, y)


class TestDetectBic:
    def bic_model(self):
        grid = np.linspace(-5.0, 5.0, 1001)
        return scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([-3e-7, 3e-7]), np.array([[1.0], [1.0]]),
            energy_grid=grid)

    def test_near_degenerate_pair_traps_one_state(self):
        m = self.bic_model()
        widths = -2.0 * m.poles.imag
        assert widths.min() < 1e-12
        assert widths.max() > 1.0

    def test_bic_flagged_with_pi_jump(self):
        dets = scattering.detect_bic(self.bic_model())
        assert len(dets) == 1
        d = dets[0]
        assert abs(d.phase_jump - np.pi) < 0.05 * np.pi
        assert not d.peak_resolved

    def test_no_bic_for_broad_poles(self):
        m = one_pole_model(gamma=0.2)
        assert scattering.detect_bic(m) == []

    def test_bic_outside_grid_span_ignored(self):
        m = scattering.SMatrixModel(
            poles=[10.0 - 1e-15j, 0.0 - 0.2j],
            couplings=[[1e-7], [np.sqrt(0.2)]],
            energy_grid=np.linspace(-5.0, 5.0, 1001))
        assert scattering.detect_bic(m) == []
