"""Effective Hamiltonian of a localized system coupled to a continuum.

The real part of the coupling correction is a principal-value integral
over the window [E_lo, E_hi]: in closed form for constant and semicircle
couplings, on the continuum grid for tabulated ones.  The imaginary part
is the residuum -1/2 sum_c g_i^c g_j^c inside the window, zero outside.
Includes the self-consistent resonance solver, mixing coefficients over
reference bases, the interior-wavefunction phase rigidity, and the
width-bifurcation toy model H0 - i alpha V V^T.
"""

from typing import NamedTuple

import numpy as np

from . import linalg, sweep
from .errors import (EOutsideWindow, ETooCloseToThreshold,
                     SelfConsistencyFailure)


# ---------------------------------------------------------------------------
# channel coupling profiles

class _Amplitudes(NamedTuple("_Amplitudes", [("amplitudes", np.ndarray)])):
    """Channel amplitudes (N, C), one column per channel."""

    __slots__ = ()

    def __new__(cls, amplitudes):
        amplitudes = np.atleast_2d(np.asarray(amplitudes, float))
        return super().__new__(cls, amplitudes)

    @property
    def n_channels(self):
        return self.amplitudes.shape[1]

    def pv_shift(self, energies, window, grid, g):
        """PV int g g^T/(E - E') dE' over the window, (R, N, N): H(x) a a^T."""
        lo, hi = window
        d = 2.0 * energies - (lo + hi)      # |E-lo| - |E-hi| once clipped
        log = np.sign(d) * np.log1p(np.minimum(np.abs(d), hi - lo) / np.minimum(
            np.abs(energies - lo), np.abs(energies - hi)))  # ln|(E-lo)/(E-hi)|
        return self.hilbert(d / (hi - lo), log)[:, None, None] \
            * (self.amplitudes @ self.amplitudes.T)


class ConstantCoupling(_Amplitudes):
    """Energy-independent amplitudes, one column per channel."""

    __slots__ = ()
    hilbert = staticmethod(lambda x, log: log)    # ln|(1 + x)/(1 - x)|

    def on_grid(self, grid, window):
        return np.broadcast_to(self.amplitudes,
                               (len(grid),) + self.amplitudes.shape)


class SemicircleCoupling(_Amplitudes):
    """Amplitudes modulated by a semicircular profile over the window."""

    __slots__ = ()

    def on_grid(self, grid, window):
        lo, hi = window
        x = (2.0 * np.asarray(grid, float) - (lo + hi)) / (hi - lo)
        return np.sqrt(np.clip(1.0 - x * x, 0.0, None))[:, None, None] \
            * self.amplitudes

    @staticmethod
    def hilbert(x, log):    # past |x| = 4 its series in u = 1/x: no eps x^2
        u, k = 1.0 / np.where(np.abs(x) > 4.0, x, 4.0), np.arange(12.0, 0, -1)
        return np.where(np.abs(x) > 4.0, u * np.polyval(
            4.0 / (4.0 * k * k - 1.0), u * u), (1.0 - x * x) * log + 2.0 * x)


class TabulatedCoupling(NamedTuple("TabulatedCoupling", [
        ("grid", np.ndarray), ("values", np.ndarray)])):
    """Amplitudes tabulated on the continuum grid, linear in between."""

    __slots__ = ()      # grid: (M,), values: (M, N, C)

    def __new__(cls, grid, values):
        grid, values = np.asarray(grid, float), np.asarray(values, float)
        if values.shape[0] != len(grid):
            raise ValueError("values must be tabulated on the grid")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("tabulation grid must be strictly increasing")
        return super().__new__(cls, grid, values)

    @property
    def n_channels(self):
        return self.values.shape[2]

    def on_grid(self, grid, window):
        flat = self.values.reshape(len(self.grid), -1)
        out = np.stack([np.interp(grid, self.grid, flat[:, i])
                        for i in range(flat.shape[1])], axis=1)
        return out.reshape((len(grid),) + self.values.shape[1:])

    def pv_shift(self, energies, window, grid, g):
        """On the grid: trapezoid outside, callable pv_integral rule inside."""
        inside = (window[0] < energies) & (energies < window[1])
        weights = (grid[1] - grid[0]) * np.r_[0.5, np.ones(len(grid) - 2), 0.5] \
            / np.where(inside[:, None], 1, energies[:, None] - grid)
        weights[inside], c_e, _ = _pv_weights(grid, energies[inside])
        g_grid = self.on_grid(grid, window)
        prod = g_grid @ g_grid.swapaxes(1, 2)
        shift = np.array([np.tensordot(w, prod, axes=1) for w in weights])
        shift[inside] += c_e[:, None, None] * (g @ g.swapaxes(1, 2))[inside]
        return shift


class OpenSystemModel(NamedTuple("OpenSystemModel", [
        ("e_b", np.ndarray), ("coupling", object), ("window", tuple),
        ("grid_size", int), ("v_direct", np.ndarray)])):
    """Bound basis energies, direct interaction, channel coupling, window.

    e_b (N,), a coupling profile, the window (E_lo, E_hi), the continuum
    grid size and an optional real symmetric (N, N) v_direct."""

    __slots__ = ()

    def __new__(cls, e_b, coupling, window, grid_size=201, v_direct=None):
        e_b = np.asarray(e_b, float)
        lo, hi = window
        if not lo < hi:
            raise ValueError("window thresholds must satisfy lo < hi")
        if grid_size < 3 or grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 3")
        if v_direct is not None:
            v_direct = np.asarray(v_direct, float)
            if v_direct.shape != (len(e_b), len(e_b)):
                raise ValueError("v_direct must be N x N")
        m = super().__new__(cls, e_b, coupling, window, grid_size, v_direct)
        if linalg.invalid(m.h_bound(), linalg.HERMITIAN):
            raise ValueError("diag(e_b) + v_direct must be finite and symmetric")
        return m

    @property
    def n_states(self):
        return len(self.e_b)

    @property
    def n_channels(self):
        return self.coupling.n_channels

    @property
    def grid(self):
        return np.linspace(self.window[0], self.window[1], self.grid_size)

    def h_bound(self):
        h = np.diag(self.e_b)
        if self.v_direct is not None:
            h = h + self.v_direct
        return h


# ---------------------------------------------------------------------------
# principal-value integration

def pv_integral(f, grid, energy):
    """Principal value of int f(E') / (E - E') dE' over a uniform grid.

    Subtraction method: the regularized integrand (f(E') - f(E))/(E - E')
    is integrated by the trapezoid rule (with the limit -f'(E) at the
    singular node), and the subtracted logarithmic part is added back in
    closed form.  Converges at second order in the grid spacing.  The
    rule is linear in f, so it is applied as one weight vector.
    """
    grid = np.asarray(grid, float)
    (k,), (c_e,), (v,) = _pv_weights(grid, np.array([energy], float))
    if callable(f):
        # exact f(E): interpolating it is second order in h, but within
        # ~h^2 of a node its error is amplified by 1/(E - E')
        return np.tensordot(k, np.asarray(f(grid)), axes=1) \
            + c_e * np.asarray(f(energy))
    return np.tensordot(v, np.asarray(f), axes=1)[()]  # 1-D f: scalar


def _pv_weights(grid, energies):
    """Weights (k, c_e, v) with PV int f/(E - E') = k.f + c_e f(E) = v.f,
    one row per energy, f(E) being np.interp of f on the grid.  The
    derivative limit at a near node takes f'(E) ~ the interpolated
    np.gradient(f), central inside the grid and one-sided at its ends."""
    lo, hi = float(grid[0]), float(grid[-1])
    h = grid[1] - grid[0]
    for energy in energies.tolist():
        if not (lo < energy < hi):
            raise EOutsideWindow(f"E = {energy!r} outside ({lo!r}, {hi!r})")
        if energy - lo < 0.5 * h or hi - energy < 0.5 * h:
            raise ETooCloseToThreshold(
                f"E = {energy!r} within half a grid cell of a threshold")
    m, rows = len(grid), np.arange(len(energies))
    j = np.searchsorted(grid, energies, side="right") - 1
    t = (energies - grid[j]) / (grid[j + 1] - grid[j])
    a = np.stack([1.0 - t, t], axis=1)      # np.interp's weights on the
    at = (rows[:, None], np.stack([j, j + 1], axis=1))  # nodes beside E
    denom = energies[:, None] - grid
    # nodes closer than the cancellation noise floor of f(E') - f(E) get
    # the derivative limit; anything tighter than this amplifies roundoff
    scale = np.maximum(max(abs(lo), abs(hi)), np.abs(energies))
    near_tol = np.minimum(np.maximum(1e-12 * h, np.sqrt(np.finfo(float).eps)
                                     * scale), 0.45 * h)
    d, denom[at] = denom[at], np.inf
    near = np.abs(d) < near_tol[:, None]    # no other node is within 0.45 h
    w = h * np.r_[0.5, np.ones(m - 2), 0.5]     # trapezoid rule
    k = w / denom
    log = np.log((energies - lo) / (hi - energies))
    rest = log - k.sum(axis=1)          # all nodes but the two beside E
    k[at] = w[at[1]] / np.where(near, np.inf, d)
    c_e = log - k.sum(axis=1)
    w_near = (w[at[1]] * near).sum(axis=1)      # at most one node is near
    for i in (0, 1):
        lo_i, hi_i = np.maximum(j + i - 1, 0), np.minimum(j + i + 1, m - 1)
        step = w_near * a[:, i] / ((hi_i - lo_i) * h)
        k[rows, lo_i] += step
        k[rows, hi_i] -= step
    # without a near node k_j, k_j+1 and c_e ~ h/|E - E_j| cancel in k + c_e a,
    # but t k_j = w_j / (E_j+1 - E_j), (t - 1) k_j+1 = w_j+1 / (E_j+1 - E_j)
    r = w[at[1]].sum(axis=1) / (grid[j + 1] - grid[j])
    v = k.copy()
    v[at] = np.where(near.any(axis=1)[:, None], k[at] + c_e[:, None] * a,
                     np.stack([r + (1.0 - t) * rest, t * rest - r], axis=1))
    return k, c_e, v


# ---------------------------------------------------------------------------
# effective Hamiltonian assembly

class EffectiveHamiltonian(NamedTuple):
    matrix: linalg.ComplexMatrix


def assemble_heff(m, energy):
    """Assemble the energy-dependent effective Hamiltonian at real energy.

    Re part: bound Hamiltonian plus (1/2pi) sum_c PV int g_i g_j/(E-E'), the
    coupling's pv_shift; Im part: -(1/2) sum_c g_i(E) g_j(E) inside the window,
    zero outside: complex symmetric (Hermitian outside the window).
    """
    (heff,), (inside,), _ = _heff_stack(m, np.array([energy], float), m.grid)
    return EffectiveHamiltonian(linalg.ComplexMatrix(
        heff, linalg.COMPLEX_SYMMETRIC if inside else linalg.HERMITIAN))


def _heff_stack(m, energies, grid):
    """(R, N, N) H_eff at real energies, the mask of those inside the window
    and the couplings g(E) (R, N, C), zero outside; linalg.invalid checks it
    (complex symmetric inside), raising SelfConsistencyFailure."""
    lo, hi = m.window
    n = m.n_states
    inside = (lo < energies) & (energies < hi)
    near = np.minimum(np.abs(energies - lo), np.abs(energies - hi)) < np.where(
        inside, 0.5, 1e-12) * (grid[1] - grid[0])  # half a cell; a node outside
    if near.any():
        raise ETooCloseToThreshold(f"E = {energies[near].tolist()[0]!r} within "
                                   "half a grid cell of a threshold")
    g = np.zeros((len(energies), n, m.n_channels))
    with np.errstate(all="ignore"):     # a non-finite H_eff raises below
        g[inside] = m.coupling.on_grid(energies[inside], m.window)
        heff = m.h_bound() + m.coupling.pv_shift(energies, m.window, grid, g) \
            / (2.0 * np.pi) - 1j * (0.5 * g @ g.swapaxes(1, 2))
    bad = linalg.invalid(heff, np.where(inside, linalg.COMPLEX_SYMMETRIC,
                                        linalg.HERMITIAN))
    if bad.any():
        raise SelfConsistencyFailure("H_eff is not finite or not symmetric at "
                                     f"E = {energies[bad].tolist()[0]!r}")
    return heff, inside, g


# ---------------------------------------------------------------------------
# self-consistent resonances

class ResonanceState(NamedTuple):
    z: complex
    phi: np.ndarray
    gamma_c: np.ndarray
    energy: float
    converged: bool
    iterations: int
    residual: float = 0.0

    @property
    def width(self):
        return -2.0 * self.z.imag


def solve_resonances(m):
    """Solve (H_eff(E) - z) phi = 0 self-consistently in the real energy.

    Secant steps on F(E) = Re z_k(E) - E per state, with the state
    tracked across iterations by eigenvector overlap.  The first step,
    and any whose secant is undefined, non-finite or would cross a
    threshold (a kink of H_eff), is the damped E <- (E + Re z_k(E))/2.
    Stops at a step below 1e-10 * scale, else unconverged after 200.
    States whose self-consistent energy falls outside the window come
    out with zero width and ordinary orthonormal vectors.

    The unconverged states advance together, one round per step: one
    (R, N, N) H_eff stack and one stacked eigensolve, each state's iterates
    as when solved alone; `iterations` is the round a state converged in.
    One more stacked round solves every state at its final energy.
    """
    lo, hi = m.window
    grid, n = m.grid, m.n_states            # built once per solve
    h = grid[1] - grid[0]
    scale = max(np.abs(m.e_b).max(), abs(lo), abs(hi), 1.0)
    energy, phi_ref = np.linalg.eigh(m.h_bound())
    phi_ref = phi_ref.T.astype(complex)         # row k: state k's vector
    e_prev, f_prev = np.full((2, n), np.nan)    # no previous iterate: damped
    resid, iterations = np.full(n, np.inf), np.zeros(n, int)
    converged = np.zeros(n, bool)
    for it in range(1, 201):
        act = np.flatnonzero(~converged)
        if not len(act):
            break
        e = _clamp_energy(energy[act], lo, hi, h)
        heff, inside, _ = _heff_stack(m, e, grid)
        z, phi_ref[act] = _follow(phi_ref[act], heff, inside)
        f = z.real - e
        with np.errstate(all="ignore"):     # masked where f == f_prev
            sec = e - f * (e - e_prev[act]) / (f - f_prev[act])
        new_e = np.where((f != f_prev[act]) & np.isfinite(sec)
                         & ((sec - lo) * (e - lo) > 0)
                         & ((sec - hi) * (e - hi) > 0),
                         sec, 0.5 * e + 0.5 * z.real)
        e_prev[act], f_prev[act] = e, f
        resid[act] = np.abs(new_e - e)
        energy[act], iterations[act] = new_e, it
        converged[act] = resid[act] < 1e-10 * scale
    energy = _clamp_energy(energy, lo, hi, h)
    heff, inside, g = _heff_stack(m, energy, grid)
    states = []
    for k, (z, phi) in enumerate(zip(*_follow(phi_ref, heff, inside))):
        if inside[k]:
            phi = linalg.c_columns(phi[:, None])[0][:, 0]
        else:
            z = complex(z.real, 0.0)
            phi = phi.real / np.linalg.norm(phi.real) if np.abs(phi.imag).max() \
                < 1e-12 else phi / np.linalg.norm(phi)
        states.append(ResonanceState(
            z=complex(z), phi=phi, gamma_c=np.asarray(phi @ g[k], complex),
            energy=float(energy[k]), converged=bool(converged[k]),
            iterations=int(iterations[k]), residual=float(resid[k])))
    return states


def _follow(phi_ref, heff, inside):
    """Each row's eigenpair of largest |phi_ref^H u|, u at unit norm."""
    w, u = linalg.sort_pairs(*linalg.eig_stack(heff, ~inside))
    rows = np.arange(len(w))
    idx = np.abs(phi_ref.conj()[:, None] @ u)[:, 0].argmax(axis=1)
    return w[rows, idx], u[rows, :, idx]


def _clamp_energy(energy, lo, hi, h):
    """Keep the iterates clear of the half-cell exclusion at the thresholds."""
    return np.where((lo < energy) & (energy < lo + 0.51 * h), lo + 0.51 * h,
                    np.where((hi - 0.51 * h < energy) & (energy < hi),
                             hi - 0.51 * h, energy))


# ---------------------------------------------------------------------------
# mixing coefficients

UNPERTURBED_BASIS = "unperturbed_noncoupled"
BOUND_BASIS = "bound_basis"


class MixingResult(NamedTuple):
    matrix: np.ndarray
    sum_rule_residual: float
    flagged: np.ndarray


def mixing_coefficients(states, basis=UNPERTURBED_BASIS, model=None,
                        cap=linalg.B_CAP):
    """Expansion coefficients of the resonance vectors over a reference basis.

    unperturbed_noncoupled: c-products with the eigenvectors of the
    coupled operator with its off-diagonal elements zeroed (identity
    columns), i.e. b_ij is component j of state i.  bound_basis:
    ordinary products with the orthonormal eigenvectors of the bound
    Hamiltonian.  Near a coalescence entries are capped and flagged.
    The sum rule sum_k b_ik b_jk = delta_ij is reported as a residual.
    """
    phis = np.array([s.phi for s in states])      # (K, N)
    if basis == UNPERTURBED_BASIS:
        b = phis.copy()
    elif basis == BOUND_BASIS:
        if model is None:
            raise ValueError("bound_basis requires the model")
        _, vecs = np.linalg.eigh(model.h_bound())
        b = phis @ vecs                           # a_ij = <Phi_j^B|Phi_i>
    else:
        raise ValueError(f"unknown basis {basis!r}")
    flagged = np.abs(b) > cap
    if flagged.any():
        b = np.where(flagged, cap * b / np.abs(b), b)
    residual = float(np.abs(b @ b.T - np.eye(len(states))).max())
    return MixingResult(matrix=b, sum_rule_residual=residual, flagged=flagged)


def interior_rigidity(states, energy, channel=0):
    """Expansion of the interior scattering state and its phase rigidity.

    Coefficients c_k = gamma_k^c / (sqrt(2 pi) (E - z_k)); the rigidity
    is the ratio of the c-norm to the conjugated norm of the coefficient
    vector, between 0 (fully mixed) and 1 (single-resonance).
    """
    c = np.array([s.gamma_c[channel] / (np.sqrt(2.0 * np.pi) * (energy - s.z))
                  for s in states])
    denom = float(np.sum(np.abs(c) ** 2))
    rho = float(abs(np.sum(c * c)) / denom) if denom > 0 else 1.0
    return c, rho


# ---------------------------------------------------------------------------
# width-bifurcation toy model

class TrappingReport(NamedTuple):
    alphas: np.ndarray
    values: np.ndarray          # (T, N) matched trajectories
    widths: np.ndarray          # (T, N)
    order_param: np.ndarray     # (T,) max width / N
    alpha_cr: float
    slope: float
    fit_residual: float
    n_trapped: int
    trapped_flags: np.ndarray   # (N,) at the last grid point


def toy_trapping(h0, v, alphas, trapped_fraction=0.1):
    """Diagonalize H0 - i alpha V V^T over the alpha grid.

    Trajectories are overlap-matched across alpha.  Reports the widths,
    the order parameter (largest width over the number of states), the
    kink location of its first derivative, the linear fit over the top
    half of the grid, and the count of trapped states (width below the
    given fraction of its own maximum over the grid).
    """
    h0 = np.asarray(h0, float)
    if h0.ndim == 1:
        h0 = np.diag(h0)
    v = np.atleast_2d(np.asarray(v, float))
    if v.shape[0] != len(h0):
        v = v.T
    n = len(h0)
    if v.shape[1] >= n:
        raise ValueError("number of channels must be below the matrix size")
    alphas = np.asarray(alphas, float)
    if (alphas < 0).any():
        raise ValueError("alpha grid must be non-negative")
    dal = np.diff(alphas)
    if not ((dal > 0).all() or (dal < 0).all()):
        raise ValueError("alpha grid must be strictly monotone")
    values = np.concatenate([b.values[b.on_grid] for b in sweep._track(
        sweep._SecularPencil(h0, v), alphas)])

    widths = -2.0 * values.imag
    gamma0 = widths.max(axis=1)
    order = gamma0 / n

    deriv = np.diff(gamma0) / dal
    if len(deriv) >= 2:
        jumps = np.abs(np.diff(deriv))
        alpha_cr = float(alphas[int(np.argmax(jumps)) + 1])
    else:
        alpha_cr = float(alphas[0])

    top = alphas >= 0.5 * (alphas[0] + alphas[-1])
    if top.sum() < 2:
        top[-2:] = True
    coef = np.polyfit(alphas[top], order[top], 1)
    fit = np.polyval(coef, alphas[top])
    fit_residual = float(np.abs(fit - order[top]).max()
                         / max(np.abs(order[top]).max(), 1e-300))

    own_max = widths.max(axis=0)
    trapped = widths[-1] < trapped_fraction * np.maximum(own_max, 1e-300)
    return TrappingReport(alphas=alphas, values=values, widths=widths,
                          order_param=order, alpha_cr=alpha_cr,
                          slope=float(coef[0]), fit_residual=fit_residual,
                          n_trapped=int(trapped.sum()), trapped_flags=trapped)
