"""Closed-form physics of the two-level non-Hermitian problem.

Covers the eigenvalue formula with its half-gap Z, coalescence loci,
the balanced gain/loss variant, the avoided-crossing model with its
four regimes, the basis-mixing diagnostic, and the source-term identity
that turns the coupled problem into a nonlinear Schroedinger equation.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AtExceptionalPoint, DegenerateInput, GridTooCoarse, NotAtEP


@dataclass(frozen=True)
class TwoLevelModel:
    """Two levels eps1, eps2 coupled through the continuum by omega."""

    eps1: complex
    eps2: complex
    omega: complex

    @classmethod
    def from_widths(cls, e1, gamma1, e2, gamma2, omega):
        """Dissipative construction eps_k = e_k - i*gamma_k/2, gamma_k >= 0."""
        if gamma1 < 0 or gamma2 < 0:
            raise ValueError("widths must be non-negative")
        return cls(e1 - 0.5j * gamma1, e2 - 0.5j * gamma2, omega)

    def matrix(self):
        h = np.array([[self.eps1, self.omega], [self.omega, self.eps2]])
        return linalg.ComplexMatrix(h, linalg.COMPLEX_SYMMETRIC)

    @property
    def scale(self):
        return max(abs(self.eps1), abs(self.eps2), abs(self.omega), 1.0)


@dataclass(frozen=True)
class PTTwoLevelModel:
    """Balanced gain/loss pair: common energy e, rate gamma, real coupling."""

    e: float
    gamma: float
    omega: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def matrix(self):
        h = np.array([[self.e - 0.5j * self.gamma, self.omega],
                      [self.omega, self.e + 0.5j * self.gamma]])
        return linalg.ComplexMatrix(h, linalg.COMPLEX_SYMMETRIC)


@dataclass(frozen=True)
class AvoidedCrossingModel:
    """Two affine energy levels e_k(a) with fixed widths and coupling.

    e1(a) = e1_0 + e1_slope * a and likewise for level 2; the level
    energies must intersect at exactly one a (non-parallel slopes).
    """

    e1_0: float
    e1_slope: float
    e2_0: float
    e2_slope: float
    gamma1_0: float
    gamma2_0: float
    omega: complex

    def __post_init__(self):
        if self.e1_slope == self.e2_slope:
            raise ValueError("level energies must be non-parallel in a")
        if self.gamma1_0 < 0 or self.gamma2_0 < 0:
            raise ValueError("widths must be non-negative")

    @property
    def a_cr(self):
        return (self.e2_0 - self.e1_0) / (self.e1_slope - self.e2_slope)

    def model_at(self, a, width_scale=1.0):
        e1 = self.e1_0 + self.e1_slope * a
        e2 = self.e2_0 + self.e2_slope * a
        return TwoLevelModel.from_widths(e1, width_scale * self.gamma1_0,
                                         e2, width_scale * self.gamma2_0,
                                         self.omega)

    def matrix(self, a, width_scale=1.0):
        return self.model_at(a, width_scale).matrix()


def eigenvalues(m):
    """Eigenvalue pair and half-gap: ((eps1+eps2)/2 +/- Z, Z).

    Z = sqrt((eps1-eps2)^2 + 4 omega^2)/2 on the principal branch; the
    trajectories coalesce exactly when Z = 0.
    """
    mean = 0.5 * (m.eps1 + m.eps2)
    z = 0.5 * np.sqrt(complex((m.eps1 - m.eps2) ** 2 + 4.0 * m.omega ** 2))
    return mean + z, mean - z, z


def ep_locations(eps1, eps2):
    """Both couplings omega = +/- i (eps1 - eps2)/2 where the pair coalesces."""
    if eps1 == eps2:
        raise DegenerateInput("eps1 == eps2: coalescence locus degenerates")
    w = 0.5j * (eps1 - eps2)
    return w, -w


@dataclass
class CoalescenceReport:
    """Componentwise eigenvector ratio at (or near) a coalescence."""

    ratio: np.ndarray
    sign: int          # +1 for ratio ~ +i, -1 for ratio ~ -i
    max_deviation: float
    half_gap: complex


def coalescence_relation_check(m, z_tol=None):
    """Check that the two c-normalized eigenvectors merge as phi1 -> +/- i phi2.

    Uses the closed-form eigenvectors (omega, -d +/- Z) with d =
    (eps1-eps2)/2; the componentwise ratio of the two c-normalized
    vectors tends to +/- i as Z -> 0 and stays finite at Z = 0 because
    the divergent c-norm factors cancel in the ratio.
    """
    _, _, z = eigenvalues(m)
    if z_tol is None:
        z_tol = 0.05 * m.scale
    if abs(z) > z_tol:
        raise NotAtEP(f"half-gap |Z| = {abs(z):.3e} exceeds threshold {z_tol:.3e}")
    d = 0.5 * (m.eps1 - m.eps2)
    if abs(d) == 0.0 and abs(m.omega) == 0.0:
        raise NotAtEP("model is diagonal-degenerate, not defective")
    # v_plus = (omega, -d + Z), v_minus = (omega, -d - Z);
    # v_pm^T v_pm = 2 Z (Z -/+ d), so the c-normalized component ratios are
    #   first:  sqrt(Z + d) / sqrt(Z - d)
    #   second: -(sqrt(Z - d) / sqrt(Z + d))
    r1 = np.sqrt(z + d) / np.sqrt(z - d)
    r2 = -np.sqrt(z - d) / np.sqrt(z + d)
    ratio = np.array([r1, r2])
    # Both components agree up to O(Z/d); classify against +i / -i.
    mean = ratio.mean()
    sign = 1 if abs(mean - 1j) <= abs(mean + 1j) else -1
    dev = float(np.abs(ratio - sign * 1j).max())
    return CoalescenceReport(ratio=ratio, sign=sign, max_deviation=dev,
                             half_gap=z)


def pt_eigenvalues(m):
    """Eigenvalues of the gain/loss matrix and whether the symmetry is broken.

    The spectrum is e +/- sqrt(4 omega^2 - gamma^2)/2: entirely real iff
    |omega| >= gamma/2, otherwise a complex-conjugate pair.
    """
    disc = 4.0 * m.omega ** 2 - m.gamma ** 2
    z = 0.5 * np.sqrt(complex(disc))
    broken = disc < 0.0
    return m.e + z, m.e - z, bool(broken)


def nonlinear_source_residual(m, defect_tol=linalg.DEFECT_TOL):
    """Residual of the source-term expansion of the coupled two-level equation.

    Verifies (H0 - eps_n) phi_n = sum_k <phi_k|W|phi_n> { A_k phi_k +
    sum_{l != k} B_k^l phi_l } with W the (negated) off-diagonal coupling
    block, for both eigenstates; returns the maximum componentwise
    residual.
    """
    sys = linalg.c_normalize(linalg.eig(m.matrix()), defect_tol=defect_tol)
    if sys.ep_flag.any():
        raise AtExceptionalPoint("source-term expansion diverges at coalescence")
    h0 = np.diag([m.eps1, m.eps2])
    w_mat = -np.array([[0.0, m.omega], [m.omega, 0.0]])
    worst = 0.0
    vecs = [sys.right_vectors[:, k] for k in range(2)]
    a_k = sys.norms_A
    for n in range(2):
        phi_n = vecs[n]
        lhs = (h0 - sys.values[n] * np.eye(2)) @ phi_n
        rhs = np.zeros(2, dtype=complex)
        for k in range(2):
            amp = vecs[k].conj() @ (w_mat @ phi_n)
            term = a_k[k] * vecs[k]
            for l in range(2):
                if l != k:
                    term = term + (vecs[k].conj() @ vecs[l]) * vecs[l]
            rhs = rhs + amp * term
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


FREE_CROSSING = "free_crossing"
EXCEPTIONAL_POINT = "exceptional_point"
AVOIDED_CROSSING = "avoided_crossing"
DISCRETE_AVOIDED = "discrete_avoided"


@dataclass
class CrossingClassification:
    kind: str
    gamma1_cr: float | None
    min_gap: float


def _min_gap_over_a(model, a_grid, width_scale):
    """Minimum over a of the full complex eigenvalue gap 2|Z|."""
    from scipy.optimize import minimize_scalar

    gaps = np.array([abs(2.0 * eigenvalues(model.model_at(a, width_scale))[2])
                     for a in a_grid])
    i = int(np.argmin(gaps))
    lo = a_grid[max(i - 1, 0)]
    hi = a_grid[min(i + 1, len(a_grid) - 1)]
    if lo == hi:
        return gaps[i]
    res = minimize_scalar(
        lambda a: abs(2.0 * eigenvalues(model.model_at(a, width_scale))[2]),
        bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-13 * max(abs(hi - lo), 1.0)})
    return min(float(res.fun), float(gaps[i]))


def find_critical_width(model, a_grid, tol=1e-10):
    """Width gamma1 (scaling both widths proportionally) where the min gap closes.

    Bracketing bisection-style minimization of the minimum spectral gap
    over a, as a function of the common width scale.
    """
    from scipy.optimize import minimize_scalar

    if model.gamma1_0 <= 0.0:
        return None
    s_hi = max(1.0, 8.0 * abs(model.omega) / model.gamma1_0)
    # expand until the gap at the upper end is increasing with s
    for _ in range(60):
        if (_min_gap_over_a(model, a_grid, s_hi)
                > _min_gap_over_a(model, a_grid, 0.75 * s_hi)):
            break
        s_hi *= 2.0
    res = minimize_scalar(lambda s: _min_gap_over_a(model, a_grid, s),
                          bounds=(0.0, s_hi), method="bounded",
                          options={"xatol": tol / max(model.gamma1_0, 1e-300)})
    return float(res.x) * model.gamma1_0


def classify_crossing(m, a_grid, rel_tol=1e-6):
    """Classify the crossing regime of the avoided-crossing model.

    free_crossing: energies cross at a_cr while the widths stay apart
    (gamma1 above critical); exceptional_point: both cross (gamma1 at
    critical); avoided_crossing: energies repel while the widths cross
    (gamma1 below critical); discrete_avoided: both widths vanish.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    a_cr = m.a_cr
    if not (a_grid.min() < a_cr < a_grid.max()):
        raise GridTooCoarse("a grid does not bracket the level crossing")
    if m.gamma1_0 == 0.0 and m.gamma2_0 == 0.0:
        return CrossingClassification(DISCRETE_AVOIDED, None,
                                      _min_gap_over_a(m, a_grid, 1.0))
    gamma1_cr = find_critical_width(m, a_grid)
    min_gap = _min_gap_over_a(m, a_grid, 1.0)
    scale = max(abs(m.omega), m.gamma1_0, m.gamma2_0, 1e-300)
    if gamma1_cr is not None and abs(m.gamma1_0 - gamma1_cr) <= rel_tol * scale:
        kind = EXCEPTIONAL_POINT
    elif gamma1_cr is not None and m.gamma1_0 > gamma1_cr:
        kind = FREE_CROSSING
    else:
        kind = AVOIDED_CROSSING
    return CrossingClassification(kind, gamma1_cr, min_gap)


@dataclass
class DeltaReport:
    """Basis-mixing diagnostic |b_ii|^2 - |b_ij|^2 with the full b matrix."""

    delta: float
    b: np.ndarray
    flagged: bool


def delta_diagnostic(m, a, cap=linalg.B_CAP):
    """Mixing of the coupled eigenvectors over the uncoupled (omega=0) basis.

    b_ij are the c-products of the coupled eigenvectors with the
    uncoupled basis (identity columns for the diagonal reference), so
    b_ij is simply the j-th component of the c-normalized i-th vector.
    At a coalescence the entries diverge; they are capped and flagged.
    """
    from scipy.optimize import linear_sum_assignment

    sys = linalg.c_normalize(linalg.eig(m.matrix(a)))
    flagged = bool(sys.ep_flag.any())
    b = sys.right_vectors.T.copy()     # b[i, j] = component j of state i
    big = np.abs(b) > cap
    if big.any():
        b[big] = cap * b[big] / np.abs(b[big])
        flagged = True
    _, cols = linear_sum_assignment(-np.abs(b))
    b = b[:, cols]
    diag = np.abs(b[0, 0]) ** 2
    off = np.abs(b[0, 1]) ** 2
    return DeltaReport(delta=float(diag - off), b=b, flagged=flagged)
