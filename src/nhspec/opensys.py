"""Effective Hamiltonian of a localized system coupled to a continuum.

The coupling window [E_lo, E_hi] carries a discretized continuum; the
real part of the coupling correction is a principal-value integral over
the window, the imaginary part is the residuum -1/2 sum_c g_i^c g_j^c
inside the window and zero outside.  Includes the self-consistent
resonance solver, mixing coefficients over reference bases, the
interior-wavefunction phase rigidity, and the width-bifurcation toy
model H0 - i alpha V V^T.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, sweep
from .errors import EOutsideWindow, ETooCloseToThreshold


# ---------------------------------------------------------------------------
# channel coupling profiles

@dataclass(frozen=True)
class _Amplitudes:
    amplitudes: np.ndarray      # (N, C), one column per channel

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           np.atleast_2d(np.asarray(self.amplitudes, float)))

    @property
    def n_channels(self):
        return self.amplitudes.shape[1]


@dataclass(frozen=True)
class ConstantCoupling(_Amplitudes):
    """Energy-independent amplitudes, one column per channel."""

    def at(self, energy, window):
        return self.amplitudes

    def on_grid(self, grid, window):
        return np.broadcast_to(self.amplitudes,
                               (len(grid),) + self.amplitudes.shape)


@dataclass(frozen=True)
class SemicircleCoupling(_Amplitudes):
    """Amplitudes modulated by a semicircular profile over the window."""

    def _shape(self, energy, window):
        lo, hi = window
        x = (2.0 * np.asarray(energy, float) - (lo + hi)) / (hi - lo)
        return np.sqrt(np.clip(1.0 - x * x, 0.0, None))

    def at(self, energy, window):
        return self.amplitudes * self._shape(energy, window)

    def on_grid(self, grid, window):
        s = self._shape(grid, window)
        return s[:, None, None] * self.amplitudes


@dataclass(frozen=True)
class TabulatedCoupling:
    """Amplitudes tabulated on the continuum grid, linear in between."""

    grid: np.ndarray            # (M,)
    values: np.ndarray          # (M, N, C)

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, float))
        object.__setattr__(self, "values", np.asarray(self.values, float))
        if self.values.shape[0] != len(self.grid):
            raise ValueError("values must be tabulated on the grid")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("tabulation grid must be strictly increasing")

    @property
    def n_channels(self):
        return self.values.shape[2]

    def at(self, energy, window):
        return self.on_grid(np.array([energy], float), window)[0]

    def on_grid(self, grid, window):
        flat = self.values.reshape(len(self.grid), -1)
        out = np.stack([np.interp(grid, self.grid, flat[:, i])
                        for i in range(flat.shape[1])], axis=1)
        return out.reshape((len(grid),) + self.values.shape[1:])


@dataclass(frozen=True)
class OpenSystemModel:
    """Bound basis energies, direct interaction, channel coupling, window."""

    e_b: np.ndarray             # (N,)
    coupling: object            # coupling profile
    window: tuple               # (E_lo, E_hi)
    grid_size: int = 201
    v_direct: np.ndarray = None  # (N, N) real symmetric, optional

    def __post_init__(self):
        object.__setattr__(self, "e_b", np.asarray(self.e_b, float))
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("window thresholds must satisfy lo < hi")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 3")
        if self.v_direct is not None:
            v = np.asarray(self.v_direct, float)
            if v.shape != (self.n_states, self.n_states):
                raise ValueError("v_direct must be N x N")
            object.__setattr__(self, "v_direct", v)

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
    k, c_e, a = _pv_weights(grid, energy)
    if callable(f):
        # exact f(E): interpolating it is second order in h, but within
        # ~h^2 of a node its error is amplified by 1/(E - E')
        return np.tensordot(k, np.asarray(f(grid)), axes=1) \
            + c_e * np.asarray(f(energy))
    return np.tensordot(k + c_e * a, np.asarray(f), axes=1)[()]  # 1-D f: scalar


def _pv_weights(grid, energy):
    """Weights (k, c_e, a) with PV int f/(E - E') = k.f + c_e f(E).

    `a` holds np.interp's two node weights, f(E) ~ a.f.  The derivative
    limit at a near node takes f'(E) ~ a.np.gradient(f), whose stencil
    is central inside the grid and one-sided at its ends.
    """
    lo, hi = grid[0], grid[-1]
    h = grid[1] - grid[0]
    if not (lo < energy < hi):
        raise EOutsideWindow(f"E = {energy!r} outside ({lo!r}, {hi!r})")
    if energy - lo < 0.5 * h or hi - energy < 0.5 * h:
        raise ETooCloseToThreshold(
            f"E = {energy!r} within half a grid cell of a threshold")
    m = len(grid)
    j = int(np.searchsorted(grid, energy, side="right")) - 1
    t = (energy - grid[j]) / (grid[j + 1] - grid[j])
    a = np.zeros(m)
    a[j], a[j + 1] = 1.0 - t, t
    denom = energy - grid
    # nodes closer than the cancellation noise floor of f(E') - f(E) get
    # the derivative limit; anything tighter than this amplifies roundoff
    scale = max(abs(lo), abs(hi), abs(energy))
    near_tol = min(max(1e-12 * h, np.sqrt(np.finfo(float).eps) * scale),
                   0.45 * h)
    near = np.abs(denom) < near_tol
    w = np.full(m, h)
    w[[0, -1]] = 0.5 * h
    k = w / np.where(near, np.inf, denom)
    c_e = np.log((energy - lo) / (hi - energy)) - k.sum()
    w_near = w[near].sum()
    for i in (j, j + 1):
        lo_i, hi_i = max(i - 1, 0), min(i + 1, m - 1)
        step = w_near * a[i] / ((hi_i - lo_i) * h)
        k[lo_i] += step
        k[hi_i] -= step
    return k, c_e, a


def _plain_integral(f, grid, energy):
    """Ordinary int f(E')/(E - E') dE' for E outside the grid span."""
    grid = np.asarray(grid, float)
    h = grid[1] - grid[0]
    denom = energy - grid
    if np.abs(denom).min() < 1e-12 * h:
        raise ETooCloseToThreshold(
            f"E = {energy!r} coincides with a continuum grid node")
    w = np.full(len(grid), h)
    w[[0, -1]] = 0.5 * h
    return np.tensordot(w / denom, np.asarray(f), axes=1)


# ---------------------------------------------------------------------------
# effective Hamiltonian assembly

@dataclass
class EffectiveHamiltonian:
    matrix: linalg.ComplexMatrix


def assemble_heff(m, energy):
    """Assemble the energy-dependent effective Hamiltonian at real energy.

    Re part: bound Hamiltonian plus (1/2pi) sum_c PV int g_i g_j/(E-E');
    Im part: -(1/2) sum_c g_i(E) g_j(E) inside the window, zero outside,
    making the matrix complex symmetric (Hermitian outside the window).
    """
    return _heff_at(m)(energy)


def _heff_at(m):
    """energy -> EffectiveHamiltonian, with g g^T on the grid built once."""
    grid = m.grid
    lo, hi = m.window
    g_grid = m.coupling.on_grid(grid, m.window)          # (M, N, C)
    prod = np.einsum("mic,mjc->mij", g_grid, g_grid)     # (M, N, N)
    h_b = m.h_bound()

    def at(energy):
        if lo < energy < hi:
            shift = pv_integral(prod, grid, energy) / (2.0 * np.pi)
            g_e = m.coupling.at(energy, m.window)        # (N, C)
            width = 0.5 * g_e @ g_e.T
            hint = linalg.COMPLEX_SYMMETRIC
        else:
            shift = _plain_integral(prod, grid, energy) / (2.0 * np.pi)
            width = np.zeros((m.n_states, m.n_states))
            hint = linalg.HERMITIAN
        return EffectiveHamiltonian(
            linalg.ComplexMatrix(h_b + shift - 1j * width, hint))

    return at


# ---------------------------------------------------------------------------
# self-consistent resonances

@dataclass
class ResonanceState:
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
    """
    lo, hi = m.window
    h = m.grid[1] - m.grid[0]
    scale = max(np.abs(m.e_b).max(), abs(lo), abs(hi), 1.0)
    eb_vals, eb_vecs = np.linalg.eigh(m.h_bound())
    heff_at = _heff_at(m)
    states = []
    for k in range(m.n_states):
        energy = float(eb_vals[k])
        phi_ref = eb_vecs[:, k].astype(complex)
        converged, it, resid = False, 0, np.inf
        e_prev = f_prev = np.nan    # no previous iterate: first step damped
        for it in range(1, 201):
            energy = _clamp_energy(energy, lo, hi, h)
            w, u = linalg.eig_pairs(heff_at(energy).matrix)
            idx = int(np.argmax(np.abs(phi_ref.conj() @ u)))
            z, phi_ref = w[idx], u[:, idx]
            f = z.real - energy
            new_e = 0.5 * energy + 0.5 * z.real
            if f != f_prev:
                sec = energy - f * (energy - e_prev) / (f - f_prev)
                if np.isfinite(sec) and (sec - lo) * (energy - lo) > 0 \
                        and (sec - hi) * (energy - hi) > 0:
                    new_e = sec
            e_prev, f_prev = energy, f
            resid = abs(new_e - energy)
            energy = new_e
            if resid < 1e-10 * scale:
                converged = True
                break
        energy = _clamp_energy(energy, lo, hi, h)
        sys = linalg.eig(heff_at(energy).matrix)
        if lo < energy < hi:
            sys = linalg.c_normalize(sys)
        u = sys.right_vectors
        idx = int(np.argmax(np.abs(phi_ref.conj()
                                   @ (u / np.linalg.norm(u, axis=0)))))
        z, phi = sys.values[idx], u[:, idx]
        if not (lo < energy < hi):
            z = complex(z.real, 0.0)
            phi = phi.real / np.linalg.norm(phi.real) if np.abs(phi.imag).max() \
                < 1e-12 else phi / np.linalg.norm(phi)
        g_e = m.coupling.at(energy, m.window) if lo < energy < hi \
            else np.zeros((m.n_states, m.n_channels))
        gamma_c = phi @ g_e
        states.append(ResonanceState(z=complex(z), phi=phi,
                                     gamma_c=np.asarray(gamma_c, complex),
                                     energy=float(energy), converged=converged,
                                     iterations=it, residual=float(resid)))
    return states


def _clamp_energy(energy, lo, hi, h):
    """Keep the iterate clear of the half-cell exclusion at the thresholds."""
    if lo < energy < lo + 0.51 * h:
        return lo + 0.51 * h
    if hi - 0.51 * h < energy < hi:
        return hi - 0.51 * h
    return energy


# ---------------------------------------------------------------------------
# mixing coefficients

UNPERTURBED_BASIS = "unperturbed_noncoupled"
BOUND_BASIS = "bound_basis"


@dataclass
class MixingResult:
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

@dataclass
class TrappingReport:
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
    frames = sweep._track(sweep._SecularPencil(h0, v), alphas)
    values = np.array([f.values for f in frames if f.on_grid])

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
