"""Scattering matrix from resonance pole data.

Pole-sum, resolvent and K-matrix forms of S, the elastic cross section
|1 - S_cc|^2, unwrapped phase shifts, the second-order-pole lineshape
(transparent centre, 2 pi phase sweep) and zero-width states by their pi
phase jump.  Lineshapes and BIC scans use the pole sum for a pole list;
for a real H_B, the unitary S = (2 - iK)(2 + iK)^-1 of the real K-matrix.
Exactly on a level S is -1 for one channel and the least-squares resolvent
for more, so S of a real H_B is finite at every real energy.
"""

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (GridTooCoarse, NhspecError, PoleOnRealAxis,
                     SingularResolvent)

_ON_POLE = "requested energy coincides with a zero-width pole"


class SMatrixModel(NamedTuple("SMatrixModel", [
        ("poles", np.ndarray), ("couplings", np.ndarray),
        ("energy_grid", np.ndarray), ("levels", np.ndarray),
        ("level_couplings", np.ndarray)])):
    """Resonance poles z_k (K,) with their channel couplings (K, C)."""

    __slots__ = ()

    def __new__(cls, poles, couplings, energy_grid=None):
        poles = np.asarray(poles, complex)
        couplings = np.atleast_2d(np.asarray(couplings, complex))
        if couplings.shape[0] != len(poles):
            raise ValueError("one coupling row per pole required")
        if (poles.imag > 0).any():
            raise ValueError("resonance poles must lie in Im z <= 0")
        if energy_grid is not None:
            energy_grid = np.asarray(energy_grid, float)
        return super().__new__(cls, poles, couplings, energy_grid, None, None)

    @property
    def n_channels(self):
        return self.couplings.shape[1]

    @classmethod
    def from_effective_hamiltonian(cls, h_b, gamma_hat, energy_grid=None):
        """Poles of H_B - (i/2) g g^T; levels e_n of H_B, gamma = U^T g."""
        h_b = linalg.real_symmetric(h_b, "h_b")
        g = np.atleast_2d(np.asarray(gamma_hat, float))
        if g.ndim != 2 or len(g) != len(h_b) or not np.isfinite(g).all():
            raise ValueError("gamma_hat needs one finite row per level of h_b")
        with np.errstate(all="ignore"):     # the eigensolver refuses inf, nan
            heff = h_b - 0.5j * g @ g.T
        sys = linalg.c_normalize(linalg.eig(
            linalg.ComplexMatrix._make((heff, linalg.COMPLEX_SYMMETRIC))))
        couplings = sys.right_vectors.T @ g        # gamma_k^c = sum_i phi_ki g_ic
        z = sys.values      # Im z = -|g^T v|^2/2; eig may round 0 up to 1e-17
        e, u = np.linalg.eigh(h_b)
        gam = u.T @ g
        keep = gam.any(axis=1)          # a level with gamma_n = 0 is not in K
        m = cls(np.where(z.imag > 0, z.real, z), couplings, energy_grid)
        return m._replace(levels=e[keep], level_couplings=gam[keep])


def s_matrix_polesum(m, energy):
    """S(E) = 1 - i sum_k gamma_k^c gamma_k^c' / (E - z_k).

    Raises PoleOnRealAxis only on an exact hit E == z_k (a zero-width pole).
    """
    denom = energy - m.poles
    if (denom == 0.0).any():
        raise PoleOnRealAxis(_ON_POLE, energy=float(energy))
    c = m.n_channels
    s = np.eye(c, dtype=complex)
    return s - 1j * np.einsum("kc,kd,k->cd", m.couplings, m.couplings,
                              1.0 / denom)


def _s_diag(m, energies, channel):
    """S_cc(E) over energies, refused where K or the pole sum overflows."""
    with np.errstate(all="ignore"):     # a non-finite S is refused here
        s = _s_cc(m, energies, channel)
    if not (ok := np.isfinite(s)).all():
        raise NhspecError("S is not finite at energy "
                          f"{float(energies[~ok][0])!r}")
    return s


def _s_cc(m, energies, channel):
    """S_cc(E) over energies; K(E) = sum_n gamma_n gamma_n^T / (E - e_n)."""
    if not 0 <= channel < m.n_channels:
        raise ValueError(f"channel {channel} is not in 0..{m.n_channels - 1}")
    if m.levels is None:
        denom = energies[:, None] - m.poles              # (E, K)
        hit = (denom == 0.0).any(axis=1)
        if hit.any():
            raise PoleOnRealAxis(_ON_POLE, energy=float(energies[hit][0]))
        g = m.couplings[:, channel]
        return 1.0 - 1j * np.einsum("k,k,ek->e", g, g, 1.0 / denom)
    g, c = m.level_couplings, m.n_channels
    r = energies - m.levels[:, None]     # (N, E); inverted in place, as a
    hit = (r == 0.0).any(axis=0)         # second one costs more than K does
    if on_level := hit.any():
        r[:, hit] = np.inf               # S is set apart there
    k = np.divide(1.0, r, out=r).T @ (g[:, :, None] * g[:, None]).reshape(
        len(g), c * c)                   # K(E) as (E, C^2)
    if c == 1:                          # on a level K -> infinity, S -> -1
        s = (2.0 - (ik := 1j * k[:, 0])) / (2.0 + ik)
        return np.where(hit, -1.0, s) if on_level else s
    ik, two = 1j * k.reshape(-1, c, c), 2.0 * np.eye(c)
    s = np.linalg.solve(two + ik, (two - ik)[..., [channel]])[:, channel, 0]
    for i in np.flatnonzero(hit):
        # the resolvent in the level basis; where it is singular its null
        # vector v is real with g^T v = 0, so lstsq still gives the finite S
        a = np.diag(energies[i] - m.levels) + 0.5j * g @ g.T
        s[i] = 1.0 - 1j * g[:, channel] @ np.linalg.lstsq(a, g[:, channel])[0]
    return s


def s_matrix_resolvent(h_b, gamma_hat, energy):
    """S = 1 - i g^T (E - H_B + (i/2) g g^T)^{-1} g; unitary for real input."""
    h_b = np.asarray(h_b, float)
    g = np.atleast_2d(np.asarray(gamma_hat, float))
    n = h_b.shape[0]
    a = energy * np.eye(n) - h_b + 0.5j * g @ g.T
    try:
        x = np.linalg.solve(a, g)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"resolvent singular at E = {energy!r}") from exc
    return np.eye(g.shape[1], dtype=complex) - 1j * g.T @ x


# ---------------------------------------------------------------------------
# lineshapes

class LineshapeReport(NamedTuple):
    grid: np.ndarray
    s_values: np.ndarray
    sigma: np.ndarray
    phase: np.ndarray           # unwrapped elastic phase shift arg(S)/2
    total_phase_change: float
    sigma_at_center: float
    halfmax_span: float
    breit_wigner_span: float
    minima: list
    maxima: list


def _unwrapped_phase(s_values):
    """0.5 * np.unwrap(np.angle(s_values)) to the bit: each step dp with
    |dp| >= pi is wrapped into [-pi, pi) (to +pi where dp > 0 gives -pi), and
    p gains the running sum of the corrections, taken over those steps only:
    the +0.0 numpy adds at the others leaves a sum that is never -0.0 as is."""
    p = np.angle(s_values)
    at = np.flatnonzero(~(np.abs(d := p[1:] - p[:-1]) < np.pi))
    w = np.mod((dp := d[at]) + np.pi, 2 * np.pi) - np.pi
    w[(w == -np.pi) & (dp > 0)] = np.pi
    ends = np.concatenate(([0], at, [len(d)]))
    p[1:] += np.repeat(np.concatenate(([0.0], np.cumsum(w - dp))),
                       ends[1:] - ends[:-1])
    return np.multiply(p, 0.5, out=p)


def _extrema(grid, y):
    inner, left, mid, right = np.asarray(grid)[1:-1], y[:-2], y[1:-1], y[2:]
    return (inner[(mid < left) & (mid <= right)].tolist(),
            inner[(mid > left) & (mid >= right)].tolist())


def _halfmax_span(grid, sigma):
    idx = np.flatnonzero(sigma >= 0.5 * sigma.max())  # floats overflow quietly
    return float(grid[idx[-1]]) - float(grid[idx[0]]) if len(idx) else 0.0


def _report(grid, s, sigma_at_center=None, breit_wigner_span=0.0):
    """Cross section, phase and features of S_cc(E) on the grid."""
    with np.errstate(over="ignore"):    # finite S past |1 - S| ~ 1e154
        sigma = np.abs(1.0 - s) ** 2
    if not (ok := np.isfinite(sigma)).all():
        raise NhspecError(f"sigma overflows at energy {float(grid[~ok][0])!r}")
    phase = _unwrapped_phase(s)
    minima, maxima = _extrema(grid, sigma)
    if sigma_at_center is None:
        sigma_at_center = float(sigma[len(grid) // 2])
    total, span = float(phase[-1] - phase[0]), _halfmax_span(grid, sigma)
    if not np.isfinite([total, span]).all():
        raise NhspecError(f"halfmax_span {span!r} and total_phase_change "
                          f"{total!r} must be finite")
    return LineshapeReport(
        grid=grid, s_values=s, sigma=sigma, phase=phase, minima=minima,
        maxima=maxima, total_phase_change=total, halfmax_span=span,
        sigma_at_center=sigma_at_center, breit_wigner_span=breit_wigner_span)


def double_pole_lineshape(e_d, gamma_d, grid):
    """Lineshape of a second-order pole at E_d - (i/2) Gamma_d.

    S = 1 - 2 i Gamma_d D - Gamma_d^2 D^2 with D = 1/(E - E_d + i Gamma_d/2):
    S(E_d) = 1 exactly (the cross section vanishes by interference), the
    unwrapped phase sweeps 2 pi across the feature, and the feature is
    broader than the one-pole resonance of the same width.
    """
    if gamma_d <= 0:
        raise ValueError("gamma_d must be positive")
    grid = np.asarray(grid, float)
    if len(grid) < 2:
        raise GridTooCoarse("grid needs at least 2 points")
    if grid[0] > e_d - 10 * gamma_d or grid[-1] < e_d + 10 * gamma_d:
        raise GridTooCoarse("grid must span E_d +/- 10 Gamma_d")
    if float(grid[1]) - float(grid[0]) > gamma_d / 8.0:
        raise GridTooCoarse("grid must resolve the width by >= 8 points")
    # S depends on (E - E_d) / Gamma_d alone: in a power-of-two unit near
    # Gamma_d no term overflows, and the rescaling is exact, so S keeps the
    # bits of the unscaled formula wherever that held
    unit = float(np.ldexp(1.0, np.frexp(gamma_d)[1] - 1))
    x, g = (grid - e_d) / unit, gamma_d / unit
    d = 1.0 / (x + 0.5j * g)
    s = 1.0 - 2j * g * d - g ** 2 * d ** 2
    d_c = 1.0 / (0.0 + 0.5j * g)
    s_center = 1.0 - 2j * g * d_c - g ** 2 * d_c ** 2
    bw = np.abs(1j * g / (x + 0.5j * g)) ** 2
    return _report(grid, s, float(abs(1.0 - s_center) ** 2),
                   _halfmax_span(grid, bw))


def lineshape(m, grid, channel=0):
    """Elastic cross section and unwrapped phase for a pole model."""
    grid = np.asarray(grid, float)
    if len(grid) < 2:
        raise GridTooCoarse("grid needs at least 2 points")
    widths = -2.0 * m.poles.imag
    # zero-width states can never be resolved on a real grid; they are the
    # business of detect_bic, so only displayable widths gate the step size
    span = float(grid[-1]) - float(grid[0])    # as floats, overflow is quiet
    finite = widths[widths > 1e-12 * span]
    if len(finite) and float(grid[1]) - float(grid[0]) > finite.min() / 8.0:
        raise GridTooCoarse("grid must resolve the narrowest width by >= 8 points")
    return _report(grid, _s_diag(m, grid, channel))


# ---------------------------------------------------------------------------
# zero-width states

class BicDetection(NamedTuple):
    index: int
    energy: float
    phase_jump: float
    peak_resolved: bool


def detect_bic(m, channel=0):
    """Flag zero-width states and verify their pi phase-jump signature.

    For each state with width at most 1e-12 inside the grid span, the
    elastic phase is unwrapped on 401 local energies spanning a few widths
    around the state: it must jump by pi while the cross section shows
    no feature wider than the local window.
    """
    out = []
    widths = -2.0 * m.poles.imag
    if m.energy_grid is not None:
        span_lo, span_hi = float(m.energy_grid[0]), float(m.energy_grid[-1])
    else:
        span_lo, span_hi = -np.inf, np.inf
    for k, z in enumerate(m.poles):
        if widths[k] > 1e-12 or not (span_lo <= z.real <= span_hi):
            continue
        half = max(50.0 * max(widths[k], 1e-300), 1e-14 * max(abs(z.real), 1.0))
        local = z.real + np.linspace(-half, half, 401)
        phase = _unwrapped_phase(_s_diag(m, local, channel))
        jump = float(phase[-1] - phase[0])
        coarse = m.energy_grid if m.energy_grid is not None else local
        step = float(coarse[1]) - float(coarse[0]) if len(coarse) > 1 else half
        sig_lo, sig_hi = np.abs(1.0 - _s_diag(
            m, z.real + np.array([-0.5, 0.5]) * step, channel)) ** 2
        resolved = abs(sig_hi - sig_lo) > 0.1 * max(sig_hi, sig_lo, 1e-300)
        out.append(BicDetection(index=k, energy=float(z.real),
                                phase_jump=jump, peak_resolved=resolved))
    return out
