"""Closed-form physics of the two-level non-Hermitian problem.

Covers the eigenvalue formula with its half-gap Z, coalescence loci,
the balanced gain/loss variant, the avoided-crossing model with its
four regimes, the basis-mixing diagnostic, and the source-term identity
that turns the coupled problem into a nonlinear Schroedinger equation.
"""

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import AtExceptionalPoint, DegenerateInput, GridTooCoarse, NotAtEP


class TwoLevelModel(NamedTuple):
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


class PTTwoLevelModel(NamedTuple("PTTwoLevelModel", [
        ("e", float), ("gamma", float), ("omega", float)])):
    """Balanced gain/loss pair: common energy e, rate gamma, real coupling."""

    __slots__ = ()

    def __new__(cls, e, gamma, omega):
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        return super().__new__(cls, e, gamma, omega)

    def matrix(self):
        h = np.array([[self.e - 0.5j * self.gamma, self.omega],
                      [self.omega, self.e + 0.5j * self.gamma]])
        return linalg.ComplexMatrix(h, linalg.COMPLEX_SYMMETRIC)


class AvoidedCrossingModel(NamedTuple("AvoidedCrossingModel", [
        ("e1_0", float), ("e1_slope", float), ("e2_0", float),
        ("e2_slope", float), ("gamma1_0", float), ("gamma2_0", float),
        ("omega", complex)])):
    """Two affine energy levels e_k(a) with fixed widths and coupling.

    e1(a) = e1_0 + e1_slope * a and likewise for level 2; the level
    energies must intersect at exactly one a (non-parallel slopes).
    """

    __slots__ = ()

    def __new__(cls, e1_0, e1_slope, e2_0, e2_slope, gamma1_0, gamma2_0,
                omega):
        if e1_slope == e2_slope:
            raise ValueError("level energies must be non-parallel in a")
        if gamma1_0 < 0 or gamma2_0 < 0:
            raise ValueError("widths must be non-negative")
        return super().__new__(cls, e1_0, e1_slope, e2_0, e2_slope, gamma1_0,
                               gamma2_0, omega)

    @property
    def a_cr(self):
        return (self.e2_0 - self.e1_0) / (self.e1_slope - self.e2_slope)

    def model_at(self, a):
        e1 = self.e1_0 + self.e1_slope * a
        e2 = self.e2_0 + self.e2_slope * a
        return TwoLevelModel.from_widths(e1, self.gamma1_0, e2, self.gamma2_0,
                                         self.omega)


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


class CoalescenceReport(NamedTuple):
    """Componentwise eigenvector ratio at (or near) a coalescence."""

    ratio: np.ndarray
    sign: int          # +1 for ratio ~ +i, -1 for ratio ~ -i
    max_deviation: float
    half_gap: complex


def coalescence_relation_check(m):
    """Check that the two c-normalized eigenvectors merge as phi1 -> +/- i phi2.

    Uses the closed-form eigenvectors (omega, -d +/- Z) with d =
    (eps1-eps2)/2; the componentwise ratio of the two c-normalized
    vectors tends to +/- i as Z -> 0 and stays finite at Z = 0 because
    the divergent c-norm factors cancel in the ratio.
    """
    _, _, z = eigenvalues(m)
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


def nonlinear_source_residual(m):
    """Residual of the source-term expansion of the coupled two-level equation.

    Verifies (H0 - eps_n) phi_n = sum_k <phi_k|W|phi_n> { A_k phi_k +
    sum_{l != k} B_k^l phi_l } with W the (negated) off-diagonal coupling
    block, for both eigenstates; returns the maximum componentwise
    residual.  Raises AtExceptionalPoint where the eigensolver flags a
    vanishing c-norm, or where the pair's backward error
    (linalg.coalescence_error) is at roundoff level: the eigensolver can
    split an exact coalescence by sqrt(eps).
    """
    sys = linalg.c_normalize(linalg.eig(m.matrix()))
    if sys.ep_flag.any() or linalg.coalescence_error(
            sys.matrix.entries) <= 32.0 * np.finfo(float).eps:
        raise AtExceptionalPoint("source-term expansion diverges at coalescence")
    v = sys.right_vectors                   # columns phi_k
    w_mat = -np.array([[0.0, m.omega], [m.omega, 0.0]])
    lhs = np.diag([m.eps1, m.eps2]) @ v - v * sys.values
    # A_k phi_k + sum_l!=k B_k^l phi_l = sum_l <phi_k|phi_l> phi_l
    rhs = v @ (v.conj().T @ v).T @ (v.conj().T @ w_mat @ v)
    return float(np.abs(lhs - rhs).max())


FREE_CROSSING = "free_crossing"
EXCEPTIONAL_POINT = "exceptional_point"
AVOIDED_CROSSING = "avoided_crossing"
DISCRETE_AVOIDED = "discrete_avoided"


class CrossingClassification(NamedTuple):
    kind: str
    gamma1_cr: float | None
    min_gap: float


# |gamma1_0 - gamma1_cr| within this fraction of the model's scale is an EP
_EP_REL_TOL = 1e-6


def _min_gap(m, a_lo, a_hi):
    """Exact minimum of the gap 2|Z| at width scale 1 over a in [a_lo, a_hi].

    With x = e1(a) - e2(a) and p, q = i(dgamma/2 +/- 2 omega), (2Z)^2 =
    (x - p)(x - q).  |x - p|^2 |x - q|^2 is a quartic in x, so the minimum
    sits at an end of the x-range or at a real root of its derivative.
    """
    ends = m.e1_0 - m.e2_0 + (m.e1_slope - m.e2_slope) * np.array([a_lo, a_hi])
    half = 0.5 * (m.gamma1_0 - m.gamma2_0)
    p, q = 1j * (half + 2.0 * m.omega), 1j * (half - 2.0 * m.omega)
    quartic = np.polymul([1.0, -2.0 * p.real, abs(p) ** 2],
                         [1.0, -2.0 * q.real, abs(q) ** 2])
    x = np.clip(np.roots(np.polyder(quartic)).real, ends.min(), ends.max())
    x = np.append(x, ends)
    return float(np.sqrt(np.abs(x - p) * np.abs(x - q)).min())


def find_critical_width(model, a_grid):
    """Width gamma1, both widths scaled by one s >= 0, where the pair coalesces.

    The EP condition eps1 - eps2 = 2i sigma omega (sigma = +/-1) fixes a by
    its real part, e1(a) - e2(a) = -2 sigma Im omega, and s by its
    imaginary part, s (gamma1_0 - gamma2_0) = -4 sigma Re omega; sigma is
    the sign that gives s >= 0.  Returns s * gamma1_0, or None when
    gamma1_0 <= 0; when gamma1_0 == gamma2_0, so that no s fixes the
    imaginary part; or when that a lies outside the a grid.
    """
    dgamma = model.gamma1_0 - model.gamma2_0
    if model.gamma1_0 <= 0.0 or dgamma == 0.0:
        return None
    w = complex(model.omega)
    for sigma in (1.0, -1.0):
        s = -sigma * 4.0 * w.real / dgamma
        a = model.a_cr - sigma * 2.0 * w.imag / (model.e1_slope - model.e2_slope)
        if s >= 0.0 and np.min(a_grid) <= a <= np.max(a_grid):
            return s * model.gamma1_0
    return None


def classify_crossing(m, a_grid):
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
    min_gap = _min_gap(m, a_grid.min(), a_grid.max())
    if m.gamma1_0 == 0.0 and m.gamma2_0 == 0.0:
        return CrossingClassification(DISCRETE_AVOIDED, None, min_gap)
    gamma1_cr = find_critical_width(m, a_grid)
    scale = max(abs(m.omega), m.gamma1_0, m.gamma2_0, 1e-300)
    if gamma1_cr is not None and abs(m.gamma1_0 - gamma1_cr) <= _EP_REL_TOL * scale:
        kind = EXCEPTIONAL_POINT
    elif gamma1_cr is not None and m.gamma1_0 > gamma1_cr:
        kind = FREE_CROSSING
    else:
        kind = AVOIDED_CROSSING
    return CrossingClassification(kind, gamma1_cr, min_gap)


class DeltaReport(NamedTuple):
    """Basis-mixing diagnostic |b_ii|^2 - |b_ij|^2 with the full b matrix."""

    delta: float
    b: np.ndarray
    flagged: bool


def delta_diagnostic(m, a):
    """Mixing of the coupled eigenvectors over the uncoupled (omega=0) basis.

    b_ij are the c-products of the coupled eigenvectors with the
    uncoupled basis (identity columns for the diagonal reference), so
    b_ij is simply the j-th component of the c-normalized i-th vector.
    At a coalescence they diverge, up to 1/sqrt(DEFECT_TOL), and are flagged.
    """
    sys = linalg.c_normalize(linalg.eig(m.model_at(a).matrix()))
    b = sys.right_vectors.T            # b[i, j] = component j of state i
    b = b[:, linalg._assign(np.abs(b))]
    delta = float(np.abs(b[0, 0]) ** 2 - np.abs(b[0, 1]) ** 2)
    return DeltaReport(delta=delta, b=b, flagged=bool(sys.ep_flag.any()))
