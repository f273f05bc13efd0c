"""Complex dense linear algebra for small non-Hermitian problems.

Provides the eigendecomposition with biorthonormal left vectors (for a
general matrix, the rows of the inverse of the right-vector matrix, so
one decomposition gives both), the c-normalization phi^T phi = 1 used for
complex-symmetric matrices, and Jordan chains at defective eigenvalues.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotDefective

GENERAL = "general"
COMPLEX_SYMMETRIC = "complex_symmetric"
HERMITIAN = "hermitian"

_SYMMETRY_TOL = 1e-12
DEFECT_TOL = 1e-12
# magnitude cap on mixing coefficients, which diverge at a coalescence
B_CAP = 1e12


def invalid(a, hint):
    """Mask of the matrices of the (..., n, n) stack a that are not finite,
    or differ from their transpose (hint COMPLEX_SYMMETRIC) or conjugate
    transpose (HERMITIAN) by over _SYMMETRY_TOL * max(max |a|, 1); one hint
    for the whole stack (GENERAL: finiteness alone)."""
    finite = np.isfinite(a.view(float))
    bad = np.zeros(a.shape[:-2], bool) if finite.all() \
        else ~finite.all(axis=(-2, -1))
    if hint != GENERAL:
        t = a.swapaxes(-1, -2)
        with np.errstate(all="ignore"):     # inf - inf, or |a| overflowing
            off = np.abs(a - (t.conj() if hint == HERMITIAN else t))
            scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
            bad |= ~(off.max(axis=(-2, -1)) <= _SYMMETRY_TOL * scale)
    return bad


def real_symmetric(a, name):
    """Input a (a 1-d a: its diagonal) as a real symmetric (n, n), n >= 1,
    checked as invalid checks; a ValueError names it."""
    a = np.asarray(np.diag(a) if np.ndim(a) == 1 else a, float)
    if a.ndim != 2 or not 1 <= len(a) == a.shape[1] \
            or invalid(a, COMPLEX_SYMMETRIC):
        raise ValueError(f"{name} must be a finite real symmetric matrix")
    return a


class ComplexMatrix(NamedTuple("ComplexMatrix", [("entries", np.ndarray),
                                                  ("symmetry_hint", str)])):
    """Dense square complex matrix with an optional symmetry hint."""

    __slots__ = ()
    _BROKEN = {GENERAL: "entries must be finite",
               COMPLEX_SYMMETRIC: "matrix is not complex symmetric",
               HERMITIAN: "matrix is not Hermitian"}

    def __new__(cls, entries, symmetry_hint=GENERAL):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must be a square matrix with n >= 1")
        if symmetry_hint not in cls._BROKEN:
            raise ValueError(f"unknown symmetry hint {symmetry_hint!r}")
        if invalid(a, symmetry_hint):
            raise ValueError(cls._BROKEN[GENERAL if invalid(a, GENERAL)
                                         else symmetry_hint])
        return super().__new__(cls, a, symmetry_hint)

    @property
    def n(self):
        return self.entries.shape[0]


def as_matrix(a):
    """Coerce an array or ComplexMatrix, auto-detecting its symmetry."""
    if isinstance(a, ComplexMatrix):
        return a
    m = ComplexMatrix(a)
    for hint in (HERMITIAN, COMPLEX_SYMMETRIC):
        if not invalid(m.entries, hint):
            return m._replace(symmetry_hint=hint)   # skips the constructor
    return m


class EigenSystem(NamedTuple):
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
    ep_flag: np.ndarray
    norms_A: np.ndarray | None = None
    rigidity_r: np.ndarray | None = None


def _assign(score, cost=None):
    """Columns cols maximizing sum_i score[i, cols[i]] over permutations.

    Row maxima in distinct columns are optimal as they stand.  A 2x2
    collision compares both sums in closed form (within 4 ulp a tie, which
    swaps only to a smaller summed `cost`); larger ones go to the
    Hungarian method, in numpy so that no command loads scipy for it.
    """
    cols = score.argmax(axis=1)
    if len(set(cols.tolist())) == len(cols):
        return cols
    if len(cols) == 2:
        keep, swap = score[0, 0] + score[1, 1], score[0, 1] + score[1, 0]
        if abs(keep - swap) <= 4 * np.spacing(max(abs(keep), abs(swap))):
            keep, swap = (0, 0) if cost is None else (   # lower cost wins
                cost[0, 1] + cost[1, 0], cost[0, 0] + cost[1, 1])
        return np.array([1, 0]) if swap > keep else np.arange(2)
    # shortest augmenting paths with potentials u, v, adding one row at a
    # time; column 0 is the root, row_of[j] the row holding column j
    if not np.isfinite(score).all():        # the search below needs finite
        raise NoConvergence("assignment scores must be finite")
    n = len(score)
    c = np.hstack([np.zeros((n, 1)), -score])
    u, v = np.zeros(n), np.zeros(n + 1)
    row_of, way = np.full(n + 1, -1), np.zeros(n + 1, dtype=int)
    for i in range(n):
        row_of[0], j = i, 0
        minv, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while row_of[j] >= 0:
            used[j], r = True, row_of[j]
            reduced = c[r] - u[r] - v
            closer = ~used & (reduced < minv)
            minv[closer], way[closer] = reduced[closer], j
            j = np.where(used, np.inf, minv).argmin()
            delta = minv[j]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j:
            row_of[j], j = row_of[way[j]], way[j]
    cols[row_of[1:]] = np.arange(n)
    return cols


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
        raise NoConvergence(f"eigensolver failed: {exc}") from exc


def _two_sum(x, y):
    """x + y and its rounding error, componentwise (Knuth)."""
    s = x + y
    return s, (x - (s - (z := s - x))) + (y - z)


def _dot2(s, c, pairs):
    """(s, c) plus u.view(float) * v.view(float) for each pair of complex
    arrays (u, v), real parts times real parts and imaginary parts times
    imaginary parts, summed as if in twice the precision into a new (s, c)
    with Dekker's exact products (Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26 (2005) 1955)."""
    for u, v in pairs:
        u, v = u.view(float), v.view(float)
        (uh, ul), (vh, vl) = ((h, x - h) for x in (u, v) for t in
                              [134217729.0 * x] for h in [t - (t - x)])
        s, q = _two_sum(s, p := u * v)
        c = c + (q + (((uh * vh - p) + uh * vl + ul * vh) + ul * vl))
    return s, c


def eig2_stack(a):
    """The largest entry magnitudes and eig_stack of a (T, 2, 2) stack
    [[a, b], [c, d]] in closed form, vectors at unit norm.  Each matrix is
    scaled by a power of 2 near its largest entry; the eigenvalues are
    (a + d)/2 +/- r, r^2 = D = ((a - d)/2)^2 + bc, with the sums and D as
    if in twice the precision and one Newton step on D - r^2; each vector
    is the longer of (b, z - a) and (z - d, c), so a coalesced pair has two
    equal columns, and a scalar matrix has e1 and e2.  A non-finite entry
    is refused with LAPACK's message."""
    if not np.isfinite(a.view(float)).all():
        raise NoConvergence("eigensolver failed: Array must not contain "
                            "infs or NaNs")
    a, b, c, d = a.reshape(-1, 4).T.copy()
    peaks = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(c), abs(d)))
    k = np.clip(np.frexp(np.fmin(peaks, 1e308))[1], -1020, 1020)
    with np.errstate(all="ignore"):     # underflow, and inf eigenvalues
        a, b, c, d = (x * np.ldexp(1.0, -k) for x in (a, b, c, d))
        (m, dm), (h, dh) = _two_sum(a, d), _two_sum(a, -d)
        m, dm, h, hd = 0.5 * m, 0.5 * dm, 0.5 * h, 0.5 * h * dh
        # (a - d)/2 = h + dh/2, so D = h^2 + hd + bc + O(dh^2), with parts
        # Re D = hr hr - hi hi + br cr - bi ci, Im D = 2 hr hi + bi cr + br ci
        D = _dot2(hd.view(float), 0.0, [
            (h.real * (1 + 2j), h), (b, c.real * (1 + 1j)),
            (1j * b.real - h.imag, h.imag + 1j * c.imag),
            (-b.imag + 0j, c.imag + 0j)])
        r = np.sqrt(sum(D).view(complex))  # to r + lo, lo = (D - r^2) / 2r
        D = _dot2(*D, [(r.real * (-1 - 2j), r), (r.imag + 0j, r.imag + 0j)])
        lo = np.where(r != 0, sum(D).view(complex) / (2 * r), 0)
        z, dz = _two_sum(m[:, None], np.stack([r, -r], 1))
        z, dz = _two_sum(z, dz + (dm[:, None] + np.stack([lo, -lo], 1)))
        x = np.broadcast_arrays(b[:, None], (z - a[:, None]) + dz)
        y = np.broadcast_arrays((z - d[:, None]) + dz, c[:, None])
        nx, ny = (np.hypot(abs(p), abs(q)) for p, q in (x, y))
        v = np.where(nx >= ny, x, y) / np.maximum(nx, ny)   # [row, t, root]
        v = np.where(np.isfinite(v), v, np.eye(2)[:, None]).transpose(1, 2, 0)
        return (peaks, z * np.ldexp(1.0, k)[:, None],
                np.ascontiguousarray(v).swapaxes(1, 2))     # unit columns


def sort_pairs(w, vr):
    """Eigenpairs ordered ascending by (Re, Im), vectors at unit norm."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    # sorted on the transpose: columns stay contiguous, as in vr[:, order]
    ut = np.take_along_axis(vr.swapaxes(-1, -2), order[..., None], axis=-2)
    return (np.take_along_axis(w, order, axis=-1),
            (ut / np.linalg.norm(ut, axis=-1, keepdims=True)).swapaxes(-1, -2))


def eig_pairs(H):
    """sort_pairs of the eigendecomposition of one ComplexMatrix."""
    w, vr = eig_stack(H.entries[None], np.array([H.symmetry_hint == HERMITIAN]))
    return sort_pairs(w[0], vr[0])


def closest_pair(w):
    """(i, j), i < j, of the closest pair in w; the first in triu order."""
    if len(w) < 2:
        raise ValueError(f"no eigenvalue pair among {len(w)} eigenvalue(s)")
    i, j = divmod(np.flatnonzero(~np.tri(len(w), dtype=bool)), len(w))
    k = np.argmin(np.abs(w[i] - w[j]))
    return i[k], j[k]


def coalescence_error(a):
    """Backward error of a coalescence of the closest eigenvalue pair of a.

    |z_i - z_j| * s / scale with scale = max(max |a|, 1) and s the larger
    of |y^H x| over the pair, for unit right vectors x and unit left
    vectors y (rows of the inverse of the right-vector matrix).  To first
    order a perturbation of norm |z_i - z_j| * s makes the pair coincide.
    Near a coalescence s shrinks with the gap, so the error is O(gap^2)
    and reaches eps where a dense eigensolver leaves the gap at sqrt(eps);
    for a normal pair s = 1 and it is gap / scale.  Parallel right
    vectors give 0.  A LAPACK failure raises NoConvergence.
    """
    try:
        w, vr = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    i, j = closest_pair(w)
    try:
        rows = np.linalg.inv(vr)[[i, j]]
    except np.linalg.LinAlgError:
        return 0.0
    s = 1.0 / (np.linalg.norm(rows, axis=1)
               * np.linalg.norm(vr[:, [i, j]], axis=0))
    return float(abs(w[i] - w[j]) * s.max() / max(np.abs(a).max(), 1.0))


def eig(H):
    """Full eigendecomposition with biorthonormal left vectors.

    Eigenvalues are sorted ascending by (Re, Im), right vectors x_k have
    unit norm.  For Hermitian input the left vectors are the conjugated
    right vectors; for complex-symmetric input the transposed ones, each
    divided by x_k^T x_k.  For general input they are the rows y_k of
    inv(x), biorthonormal as they come from the one decomposition, and
    1/|y_k| is |y_k x_k| for unit left and right vectors.  A pair whose
    product is below DEFECT_TOL is flagged as coalesced instead of being
    rescaled; every pair is, if the right vectors are singular.
    """
    H = as_matrix(H)
    w, vr = eig_pairs(H)

    ep_flag = np.zeros(H.n, dtype=bool)

    if H.symmetry_hint == HERMITIAN:
        vl = vr.conj().T
    elif H.symmetry_hint == COMPLEX_SYMMETRIC:
        c = np.einsum("ik,ik->k", vr, vr)
        ep_flag = np.abs(c) < DEFECT_TOL
        vl = vr.T / np.where(ep_flag, 1.0, c)[:, None]
    else:
        # |y_k| overflows at a coalescence; a non-finite one is flagged
        with np.errstate(all="ignore"):
            try:
                vl = np.linalg.inv(vr)
                ep_flag = ~(1.0 / np.linalg.norm(vl, axis=1) >= DEFECT_TOL)
            except np.linalg.LinAlgError:
                vl = np.full_like(vr, np.nan)
                ep_flag[:] = True

    return EigenSystem(values=w, right_vectors=vr, left_vectors=vl,
                       matrix=H, ep_flag=ep_flag)


def _fix_residual_sign(u):
    """Resolve the +/- left by the principal square root: the phase of the
    largest-magnitude component of the vector u, or of each column of u,
    goes in [0, pi)."""
    ph = np.angle(np.take_along_axis(u, np.abs(u).argmax(0)[None], 0)[0])
    return np.where((0.0 <= ph) & (ph < np.pi), u, -u)


def c_normalize(sys):
    """Scale eigenvectors to the c-norm phi^T phi = 1.

    Records A_k = <phi_k|phi_k> (conjugated norm) and the phase rigidity
    r_k = 1/A_k.  Vectors whose c-norm vanishes before scaling are
    flagged, with A = inf and r = 0; linalg.jordan_chain gives their
    Jordan pair.
    Requires a complex-symmetric source matrix.
    """
    if sys.matrix.symmetry_hint not in (COMPLEX_SYMMETRIC, HERMITIAN):
        raise ValueError("c_normalize requires a complex-symmetric matrix")
    vr, norms = c_columns(sys.right_vectors)
    return sys._replace(right_vectors=vr, left_vectors=vr.T.copy(),
                        norms_A=norms, rigidity_r=1.0 / norms,
                        ep_flag=np.isinf(norms))


def c_columns(vr):
    """The columns of vr at unit c-norm, as a C-ordered copy, and their
    conjugated norms A_k; a column whose c-norm vanishes is left at unit
    norm with A = inf."""
    v = np.asfortranarray(vr)   # contiguous columns: the same sums for any count
    v = v / np.linalg.norm(v, axis=0)
    c = np.einsum("ik,ik->k", v, v)
    flat = np.abs(c) < DEFECT_TOL
    u = np.where(flat, v, _fix_residual_sign(v / np.sqrt(np.where(flat, 1, c))))
    norms = np.einsum("ik,ik->k", u.conj(), u).real
    return np.ascontiguousarray(u), np.where(flat, np.inf, norms)


def overlap_B(sys, k, l):
    """Conjugated cross overlap <phi_k|phi_l> of c-normalized vectors."""
    return sys.right_vectors[:, k].conj() @ sys.right_vectors[:, l]


def jordan_chain(H, z0):
    """Jordan pair (phi, phi_a) at a defective eigenvalue z0.

    phi spans the one-dimensional kernel of H - z0; phi_a is the
    minimal-norm solution of (H - z0) phi_a = phi, which is orthogonal
    to phi in the conjugated inner product.  Raises NotDefective when
    the kernel is two-dimensional or z0 is a simple eigenvalue, both
    judged at 1e-8 times the largest entry of H (at least 1).
    """
    H = as_matrix(H)
    a = H.entries - z0 * np.eye(H.n)
    scale = max(np.abs(H.entries).max(), 1.0)
    u_svd, s, vh = np.linalg.svd(a)
    null_tol = max(1e-8 * scale, 1e3 * np.finfo(float).eps * scale)
    if H.n >= 2 and s[-2] < null_tol:
        raise NotDefective("geometric multiplicity is at least 2 at z0")
    phi = vh[-1].conj()
    phi = _fix_residual_sign(phi / np.linalg.norm(phi))
    phi_a = np.linalg.pinv(a, rcond=1e-10) @ phi
    res = np.linalg.norm(a @ phi_a - phi)
    if res > 1e-8 * scale:
        raise NotDefective(
            f"no associated vector: residual {res:.3e} exceeds tolerance")
    return phi, phi_a
