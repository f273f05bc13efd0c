"""Complex dense linear algebra for small non-Hermitian problems.

Provides the general eigendecomposition with biorthogonal left/right
pairing, the c-normalization phi^T phi = 1 used for complex-symmetric
matrices, and Jordan chains at defective eigenvalues.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonConvergence, NotDefective

GENERAL = "general"
COMPLEX_SYMMETRIC = "complex_symmetric"
HERMITIAN = "hermitian"

_SYMMETRY_TOL = 1e-12
DEFECT_TOL = 1e-12
# magnitude cap on mixing coefficients, which diverge at a coalescence
B_CAP = 1e12


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense square complex matrix with an optional symmetry hint."""

    entries: np.ndarray
    symmetry_hint: str = GENERAL

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must be a square matrix with n >= 1")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", a)
        scale = max(np.abs(a).max(), 1.0)
        if self.symmetry_hint == COMPLEX_SYMMETRIC:
            if np.abs(a - a.T).max() > _SYMMETRY_TOL * scale:
                raise ValueError("matrix is not complex symmetric")
        elif self.symmetry_hint == HERMITIAN:
            if np.abs(a - a.conj().T).max() > _SYMMETRY_TOL * scale:
                raise ValueError("matrix is not Hermitian")
        elif self.symmetry_hint != GENERAL:
            raise ValueError(f"unknown symmetry hint {self.symmetry_hint!r}")

    @property
    def n(self):
        return self.entries.shape[0]


def as_matrix(a, symmetry_hint=None):
    """Coerce an array or ComplexMatrix, auto-detecting symmetry if unset."""
    if isinstance(a, ComplexMatrix):
        return a
    a = np.asarray(a, dtype=complex)
    if symmetry_hint is None:
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.conj().T).max() <= _SYMMETRY_TOL * scale:
            symmetry_hint = HERMITIAN
        elif np.abs(a - a.T).max() <= _SYMMETRY_TOL * scale:
            symmetry_hint = COMPLEX_SYMMETRIC
        else:
            symmetry_hint = GENERAL
    return ComplexMatrix(a, symmetry_hint)


@dataclass
class EigenSystem:
    """Eigenvalues with paired right/left eigenvectors and diagnostics.

    right_vectors holds eigenvectors as columns; left_vectors holds the
    matched left eigenvectors as rows, scaled so left @ right = I for
    every unflagged pair.  norms_A and rigidity_r are filled in by
    c_normalize; flagged (coalesced) pairs carry A = inf, r = 0.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    matrix: ComplexMatrix
    norms_A: np.ndarray | None = None
    rigidity_r: np.ndarray | None = None
    ep_flag: np.ndarray = field(default=None)
    jordan_vectors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ep_flag is None:
            self.ep_flag = np.zeros(len(self.values), dtype=bool)

    @property
    def n(self):
        return len(self.values)


def _match_by_value(w_ref, w_other):
    """Greedy proximity assignment of one eigenvalue list onto another."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(w_ref[:, None] - w_other[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty_like(cols)
    perm[rows] = cols
    return perm


def eig_stack(a, hermitian):
    """Unsorted eigenvalues and right eigenvectors of a (T, n, n) stack.

    One LAPACK call per kind: eigh for the frames flagged in the boolean
    `hermitian` (T,), eig for the rest.  Batched calls return the same
    bits as one call per frame.
    """
    try:
        if not hermitian.any():
            return np.linalg.eig(a)
        w = np.empty(a.shape[:-1], dtype=complex)
        vr = np.empty_like(a)
        w[hermitian], vr[hermitian] = np.linalg.eigh(a[hermitian])
        rest = ~hermitian
        if rest.any():
            w[rest], vr[rest] = np.linalg.eig(a[rest])
        return w, vr
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc


def sort_pairs(w, vr):
    """Eigenpairs ordered ascending by (Re, Im), vectors at unit norm."""
    order = np.lexsort((w.imag, w.real))
    vr = vr[:, order]
    return w[order], vr / np.linalg.norm(vr, axis=0)


def eig(H, defect_tol=DEFECT_TOL):
    """Full eigendecomposition with biorthogonally paired left vectors.

    Eigenvalues are sorted ascending by (Re, Im).  For complex-symmetric
    input the left vectors are the transposed right vectors; for general
    input they come from a separate decomposition of H^T matched by
    eigenvalue proximity.  Pairs whose left/right product is numerically
    zero are flagged as coalesced instead of being rescaled.
    """
    H = as_matrix(H)
    a = H.entries
    w, vr = eig_stack(a[None], np.array([H.symmetry_hint == HERMITIAN]))
    w, vr = sort_pairs(w[0], vr[0])

    n = H.n
    ep_flag = np.zeros(n, dtype=bool)

    if H.symmetry_hint == HERMITIAN:
        vl = vr.conj().T
    elif H.symmetry_hint == COMPLEX_SYMMETRIC:
        vl = vr.T.copy()
        for k in range(n):
            c = vl[k] @ vr[:, k]
            if abs(c) < defect_tol:
                ep_flag[k] = True
            else:
                vl[k] = vl[k] / c
    else:
        wl, ul = np.linalg.eig(a.T)
        perm = _match_by_value(w, wl)
        vl = ul[:, perm].T
        for k in range(n):
            c = vl[k] @ vr[:, k]
            if abs(c) < defect_tol:
                ep_flag[k] = True
            else:
                vl[k] = vl[k] / c

    return EigenSystem(values=w, right_vectors=vr, left_vectors=vl,
                       matrix=H, ep_flag=ep_flag)


def _fix_residual_sign(u, prev_vec):
    """Resolve the +/- left by the principal square root.

    With a predecessor, keep the sign maximizing Re of the c-overlap;
    otherwise put the phase of the largest-magnitude component in [0, pi).
    """
    if prev_vec is not None:
        if (prev_vec @ u).real < 0.0:
            return -u
        return u
    j = int(np.argmax(np.abs(u)))
    ph = np.angle(u[j])
    if not (0.0 <= ph < np.pi):
        return -u
    return u


def c_normalize(sys, prev=None, defect_tol=DEFECT_TOL):
    """Scale eigenvectors to the c-norm phi^T phi = 1.

    Records A_k = <phi_k|phi_k> (conjugated norm) and the phase rigidity
    r_k = 1/A_k.  Vectors whose c-norm vanishes before scaling are
    flagged; their A is divergent and Jordan data is attached instead.
    Requires a complex-symmetric source matrix.
    """
    if sys.matrix.symmetry_hint not in (COMPLEX_SYMMETRIC, HERMITIAN):
        raise ValueError("c_normalize requires a complex-symmetric matrix")
    n = sys.n
    vr = sys.right_vectors.copy()
    vl = np.empty_like(sys.left_vectors)
    norms = np.empty(n)
    rigid = np.empty(n)
    flags = np.zeros(n, dtype=bool)
    jordan = {}
    for k in range(n):
        v = vr[:, k]
        v = v / np.linalg.norm(v)
        c = v @ v
        if abs(c) < defect_tol:
            flags[k] = True
            norms[k] = np.inf
            rigid[k] = 0.0
            vr[:, k] = v
            vl[k] = v
            try:
                jordan[k] = jordan_chain(sys.matrix, sys.values[k])
            except NotDefective:
                pass
            continue
        u = v / np.sqrt(c)
        prev_vec = None
        if prev is not None and k < prev.n and not prev.ep_flag[k]:
            prev_vec = prev.right_vectors[:, k]
        u = _fix_residual_sign(u, prev_vec)
        vr[:, k] = u
        vl[k] = u
        norms[k] = (u.conj() @ u).real
        rigid[k] = 1.0 / norms[k]
    return replace(sys, right_vectors=vr, left_vectors=vl, norms_A=norms,
                   rigidity_r=rigid, ep_flag=flags, jordan_vectors=jordan)


def overlap_B(sys, k, l):
    """Conjugated cross overlap <phi_k|phi_l> of c-normalized vectors."""
    return sys.right_vectors[:, k].conj() @ sys.right_vectors[:, l]


def jordan_chain(H, z0, tol=1e-8):
    """Jordan pair (phi, phi_a) at a defective eigenvalue z0.

    phi spans the one-dimensional kernel of H - z0; phi_a is the
    minimal-norm solution of (H - z0) phi_a = phi, which is orthogonal
    to phi in the conjugated inner product.  Raises NotDefective when
    the kernel is two-dimensional or z0 is a simple eigenvalue.
    """
    H = as_matrix(H)
    a = H.entries - z0 * np.eye(H.n)
    scale = max(np.abs(H.entries).max(), 1.0)
    u_svd, s, vh = np.linalg.svd(a)
    null_tol = max(tol * scale, 1e3 * np.finfo(float).eps * scale)
    if H.n >= 2 and s[-2] < null_tol:
        raise NotDefective("geometric multiplicity is at least 2 at z0")
    phi = vh[-1].conj()
    phi = _fix_residual_sign(phi / np.linalg.norm(phi), None)
    phi_a = np.linalg.pinv(a, rcond=1e-10) @ phi
    res = np.linalg.norm(a @ phi_a - phi)
    if res > tol * scale:
        raise NotDefective(
            f"no associated vector: residual {res:.3e} exceeds tolerance")
    return phi, phi_a
