"""Effective Hamiltonian of a localized system coupled to a continuum.

The real part of the coupling correction is a principal-value integral
over the window [E_lo, E_hi], in closed form for every coupling profile:
g g^T is a quadratic on each segment of the window.  pv_integral takes
the same closed form for the linear interpolant of a sampled function.
The imaginary part is the residuum -1/2 sum_c g_i^c g_j^c inside the
window, zero outside.
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
        return super().__new__(cls, np.atleast_2d(np.asarray(amplitudes, float)))

    @property
    def n_channels(self):
        return self.amplitudes.shape[1]

    def on_grid(self, grid, window):    # g = sqrt(alpha + gamma x^2) a
        lo, hi = window
        x = (2.0 * np.asarray(grid, float) - (lo + hi)) / (hi - lo)
        return np.sqrt(np.maximum(1.0 + self._abc[2] * x * x, 0.0))[
            :, None, None] * self.amplitudes

    def segments(self, window):
        """The window and g g^T's (3, N, N) alpha, beta, gamma on it."""
        aat = self.amplitudes @ self.amplitudes.T
        return np.array(window, float), np.multiply.outer(self._abc, aat)

    def pv_shift(self, energies, window):
        """PV int g g^T/(E - E') dE' over the window, (R, N, N)."""
        return _pv_kernel(*self.segments(window))(energies)[0]


class ConstantCoupling(_Amplitudes):
    """Energy-independent amplitudes, one column per channel."""

    __slots__ = ()
    _abc = (1.0, 0.0, 0.0)      # g g^T = a a^T


class SemicircleCoupling(_Amplitudes):
    """Amplitudes modulated by a semicircular profile over the window."""

    __slots__ = ()
    _abc = (1.0, 0.0, -1.0)     # g g^T = (1 - x^2) a a^T


class TabulatedCoupling(NamedTuple("TabulatedCoupling", [
        ("grid", np.ndarray), ("values", np.ndarray)])):
    """Amplitudes on their own nodes, interpolated as np.interp does."""

    __slots__ = ()      # grid: (M,), values: (M, N, C)
    pv_shift = _Amplitudes.pv_shift

    def __new__(cls, grid, values):
        grid, values = np.asarray(grid, float), np.asarray(values, float)
        if values.shape[0] != len(grid):
            raise ValueError("values must be tabulated on the grid")
        if np.any(grid[1:] <= grid[:-1]):  # a diff of 1e308 nodes overflows
            raise ValueError("tabulation grid must be strictly increasing")
        return super().__new__(cls, grid, values)

    @property
    def n_channels(self):
        return self.values.shape[2]

    def on_grid(self, grid, window):
        out = np.stack([np.interp(grid, self.grid, col) for col in
                        self.values.reshape(len(self.grid), -1).T], axis=1)
        return out.reshape((len(grid),) + self.values.shape[1:])

    def segments(self, window):
        """Edges: the window's and the nodes inside it; g = p + q x on each
        segment, so alpha, beta, gamma = p p^T, p q^T + q p^T, q q^T."""
        (lo, hi), x = window, self.grid
        edges = np.r_[lo, x[(lo < x) & (x < hi)], hi]
        g = self.on_grid(edges, window)
        p, q = 0.5 * (g[1:] + g[:-1]), 0.5 * (g[1:] - g[:-1])
        pp, pq, qq = (u @ v.swapaxes(1, 2) for u, v in ((p, p), (p, q), (q, q)))
        return edges, np.concatenate([pp, pq + pq.swapaxes(1, 2), qq])


class OpenSystemModel(NamedTuple("OpenSystemModel", [
        ("e_b", np.ndarray), ("coupling", object), ("window", tuple),
        ("grid_size", int), ("v_direct", np.ndarray)])):
    """Bound energies e_b (N,), a coupling profile, the window (E_lo, E_hi),
    grid_size, whose grid step sets only how close to a threshold H_eff is
    taken, and an optional real symmetric (N, N) direct interaction v_direct."""

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
        if coupling[-1].shape[-2] != len(e_b):  # (N, C) or (M, N, C) values
            raise ValueError("coupling must have one row per entry of e_b")
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
        return h if self.v_direct is None else h + self.v_direct


# ---------------------------------------------------------------------------
# principal-value integration

def _pv_kernel(edges, abc):
    """E -> PV int f(E')/(E - E') dE' over the edges' span, (R, ...), where f
    is alpha + beta x + gamma x^2, x in [-1, 1], on each segment [a, b] and
    abc stacks its J alphas, betas and gammas (3J, ...), of any trailing
    shape.  A segment gives Q0 alpha + Q1 beta + Q2 gamma with y = (2E - a -
    b)/(b - a), Q0 = ln|(y + 1)/(y - 1)|, Q1 = y Q0 - 2, Q2 = y Q1.  Also
    (2R, ...) E-derivatives: its own, Q0' = (b - a)/((E - a)(b - E)) (poles
    that cancel at a node, inf on it), Q1' = y' Q0 + y Q0', Q2' = y' Q1 + y
    Q1', y' = 2/(b - a), and f's, (beta + 2 gamma y) y' on the segment
    holding E, zero outside."""
    a, b, flat = edges[:-1], edges[1:], abc.reshape(len(abc), -1)
    s, w = a + b, b - a     # t: the rounding of s (TwoSum)
    t, log_w, k = (a - (s - (s - a))) + (b - (s - a)), np.log(w), 2.0 / w

    def kernel(energies):
        d = 2.0 * (e := energies[:, None]) - s - t  # y to ulps, short or not
        dist, y = np.minimum(np.abs(e - a), np.abs(e - b)), d / w
        with np.errstate(all="ignore"):     # |E-a| - |E-b| is d, clipped to w
            q0 = np.sign(d) * np.where(dist > 0, np.log1p(  # on a node ln w:
                np.minimum(np.abs(d), w) / dist), log_w)  # ln|E-node| cancels
            q2, far = y * (q1 := y * q0 - 2.0), np.abs(y) > 4.0
            if far.any():   # past |y| = 4 Q2 from its series in 1/y: no eps y^2
                u = 1.0 / y[far]
                q2[far] = u * np.polyval(2.0 / np.arange(29.0, 2.0, -2.0), u * u)
                q1[far] = u * q2[far]
            dq0, on = w / (e - a) / (b - e), k * ((a < e) & (e < b))
            dq = np.concatenate((dq0, dq1 := k * q0 + y * dq0, k * q1 + y
                                 * dq1, 0.0 * on, on, 2.0 * y * on), 1)
            q = np.concatenate((q0, q1, q2), 1)[:, None]  # rows apart: bits
            return [(c @ flat).reshape((-1,) + abc.shape[1:])  # as if alone
                    for c in (q, dq.reshape(len(e), 2, -1))]
    return kernel


def pv_integral(f, grid, energy):
    """Principal value of int f(E') / (E - E') dE' over a uniform grid.

    Exact for the piecewise-linear interpolant of f's samples on the grid
    (f callable: f(grid)), f = alpha + beta x on each cell, through the
    kernel of every coupling profile.  Converges at second order in the
    grid spacing; f may be (M,) or (M, ...) matrix-valued.
    """
    grid, energy = np.asarray(grid, float), float(energy)
    lo, hi = float(grid[0]), float(grid[-1])
    h = grid[1] - grid[0]
    if not (lo < energy < hi):
        raise EOutsideWindow(f"E = {energy!r} outside ({lo!r}, {hi!r})")
    if energy - lo < 0.5 * h or hi - energy < 0.5 * h:
        raise ETooCloseToThreshold(
            f"E = {energy!r} within half a grid cell of a threshold")
    f = np.asarray(f(grid) if callable(f) else f)
    p, q = 0.5 * (f[1:] + f[:-1]), 0.5 * (f[1:] - f[:-1])
    return _pv_kernel(grid, np.concatenate([p, q, 0 * q]))(
        np.array([energy]))[0][0]     # its E-derivatives go unused


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
    (heff,), (inside,), *_ = _heff_stack(m, np.array([energy], float))
    return EffectiveHamiltonian(linalg.ComplexMatrix._make((   # finite above
        heff, linalg.COMPLEX_SYMMETRIC if inside else linalg.HERMITIAN)))


def _heff_consts(m):     # per solve: the grid step, h_bound(), the PV kernel
    with np.errstate(all="ignore"):     # a non-finite H_eff raises later
        grid, kernel = m.grid, _pv_kernel(*m.coupling.segments(m.window))
    if not np.isfinite(h := grid[1] - grid[0]):     # hi - lo overflows
        raise SelfConsistencyFailure(f"grid step of window {m.window} overflows")
    return h, m.h_bound(), kernel


def _heff_stack(m, energies, consts=None):
    """(R, N, N) H_eff at real energies, the terms of _heff_consts(m) plus
    their own, the mask of those inside the window, g(E) (R, N, C), zero
    outside, and H_eff'; a non-finite H_eff raises SelfConsistencyFailure."""
    lo, hi = m.window
    h, h_b, kernel = consts or _heff_consts(m)
    inside = (lo < energies) & (energies < hi)
    near = np.minimum(np.abs(energies - lo), np.abs(energies - hi)) < np.where(
        inside, 0.5, 1e-12) * h     # half a cell; a node outside
    if near.any():
        raise ETooCloseToThreshold(f"E = {energies[near].tolist()[0]!r} within "
                                   "half a grid cell of a threshold")
    g = np.zeros((len(energies), m.n_states, m.n_channels))
    with np.errstate(all="ignore"):     # a non-finite H_eff raises below
        g[inside] = m.coupling.on_grid(energies[inside], m.window)
        shift, dq = kernel(energies)
        heff = h_b + shift / (2.0 * np.pi) - 1j * (0.5 * g @ g.swapaxes(1, 2))
    if (bad := ~np.isfinite(heff).all(axis=(1, 2))).any():
        raise SelfConsistencyFailure(
            f"H_eff is not finite at E = {energies[bad].tolist()[0]!r}")
    return heff, inside, g, dq[::2] / (2.0 * np.pi) - 0.5j * dq[1::2]


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
        return 0.0 - 2.0 * self.z.imag     # +0.0, not -0.0, when bound


def solve_resonances(m):
    """Solve (H_eff(E) - z) phi = 0 self-consistently in the real energy.

    State k solves F(E) = Re z(E) - E for the eigenvalue z of H_eff(E) of
    rank k in (Re, Im) order, from the k-th level of h_bound(), in a bracket
    that each F narrows (F > 0: the root lies above E): a Newton step (F'
    by Hellmann-Feynman) where it lands strictly inside, else the midpoint,
    else E + 2F while an end is infinite.  Stops at a step below 1e-10 *
    scale, after 200 rounds, or where the threshold clamp holds the next
    iterate in place (unconverged, a root in the excluded half cell, the
    residual |F| at the clamp edge).  All states advance together, one
    stacked eigensolve per round, each as if solved alone.  A final round
    reads the k-th pair at state k's energy, the lowest of those within
    1e-10 * scale; states outside the window have zero width.
    """
    lo, hi = m.window
    h, h_b, *_ = consts = _heff_consts(m)
    n, tol = m.n_states, 1e-10 * np.abs([*m.e_b, lo, hi, 1.0]).max()
    energy = _clamp_energy(np.linalg.eigh(h_b)[0], lo, hi, h)
    below, above = np.full(n, -np.inf), np.full(n, np.inf)  # root brackets
    act, resid, iterations = np.arange(n), np.full(n, np.inf), np.zeros(n, int)
    for it in range(1, 201):
        heff, inside, _, dheff = _heff_stack(m, e := energy[act], consts)
        z, u = _kth_pairs(heff, inside, act)
        f, v, col = z.real - e, u[:, None], u[..., None]
        a = below[act] = np.where(f > 0, e, below[act])
        b = above[act] = np.where(f < 0, e, above[act])
        with np.errstate(all="ignore"):     # not finite on a node or an EP
            new_e = e - f / ((v @ dheff @ col / (v @ col))[:, 0, 0].real - 1.0)
            new_e = np.where((a < new_e) & (new_e < b), new_e, np.where(
                np.isinf(a) | np.isinf(b), e + 2.0 * f, 0.5 * a + 0.5 * b))
        energy[act] = _clamp_energy(new_e, lo, hi, h)
        done = (step := np.abs(new_e - e)) < tol
        held = (energy[act] == e) & ~done   # put back by the threshold clamp
        resid[act], iterations[act] = np.where(held, np.abs(f), step), it
        act = act[~(done | held)]
        if not len(act):
            break
    s = energy[order := np.argsort(energy, kind="stable")]  # states within
    with np.errstate(over="ignore"):    # inf > tol: a float range apart
        s[1:] = np.where(np.diff(s) > tol, s[1:], -np.inf)  # tol of each other
    energy[order] = np.maximum.accumulate(s)            # read at the lowest
    heff, inside, g, _ = _heff_stack(m, energy, consts)
    z, phis = _kth_pairs(heff, inside, np.arange(n))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)     # as sort_pairs
    phis[inside] = linalg.c_columns(phis[inside].T)[0].T
    states = []
    for k, (z, phi, e, r) in enumerate(zip(z.tolist(), phis, energy.tolist(),
                                           resid.tolist())):
        if not inside[k]:
            z = complex(z.real, 0.0)
            phi = phi.real / np.linalg.norm(phi.real) if np.abs(phi.imag).max() \
                < 1e-12 else phi / np.linalg.norm(phi)
        states.append(ResonanceState(z, phi, np.asarray(phi @ g[k], complex),
                                     e, bool(r < tol), iterations[k].item(), r))
    return states


def _kth_pairs(heff, inside, k):    # row r's pair of rank k[r] in (Re, Im)
    w, u = linalg.eig_stack(heff, ~inside)
    idx = np.lexsort((w.imag, w.real), axis=-1)[rows := np.arange(len(k)), k]
    return w[rows, idx], u[rows, :, idx]    # LAPACK's vector, a contiguous row


def _clamp_energy(energy, lo, hi, h):   # clear of the half-cell exclusion
    return np.where((lo < energy) & (energy < hi), np.minimum(np.maximum(
        energy, lo + 0.51 * h), hi - 0.51 * h), energy)


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
    b[flagged] = cap * b[flagged] / np.abs(b[flagged])
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
    h0 = linalg.real_symmetric(h0, "h0")
    n = len(h0)
    v = np.atleast_2d(np.asarray(v, float))
    if v.shape[0] != n:
        v = v.T
    if v.shape[0] != n or v.shape[1] >= n or not np.isfinite(v).all():
        raise ValueError("v needs one finite row per level of h0, and fewer "
                         "columns (channels) than levels")
    alphas = np.asarray(alphas, float)
    if len(alphas) < 2:
        raise ValueError("alphas needs at least 2 points")
    dal = np.diff(alphas)
    if (alphas < 0).any() or not ((dal > 0).all() or (dal < 0).all()):
        raise ValueError("alphas must be non-negative and strictly monotone")
    values = np.concatenate([b.values[b.on_grid] for b in sweep._track(
        sweep._SecularPencil(h0, v), alphas)])

    widths = -2.0 * values.imag
    gamma0 = widths.max(axis=1)
    order = gamma0 / n

    jumps = np.abs(np.diff(np.diff(gamma0) / dal))  # of the first derivative
    alpha_cr = float(alphas[int(np.argmax(jumps)) + 1 if len(jumps) else 0])

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
