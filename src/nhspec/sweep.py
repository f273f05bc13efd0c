"""Parameter sweeps with eigenpair continuation.

Trajectories are continued by overlap matching (eigenvalues collide
near coalescence points; eigenvectors disambiguate longer), coalescence
points are located in two real parameters by Newton on the squared pair
gap, and closed contours transport the eigenframe to read off the
swap/phase pattern of the branch point.
"""

from typing import NamedTuple

import numpy as np

from . import linalg, twolevel
from .errors import (AtExceptionalPoint, DegenerateInput, MatchingAmbiguous,
                     NhspecError, NoConvergence, SaddleRejected)

MATCH_THRESHOLD = 0.5
# an interval whose best overlap stays below MATCH_THRESHOLD is bisected
# at most this deep (1/256 of its length) before continuation gives up
MAX_BISECT = 8
# matrices are diagonalized in stacks of about this many bytes: one solver
# call per stack, without holding a whole long grid in memory at once
_STACK_BYTES = 1 << 20
DEFAULT_GAP_TOL = 1e-8
# the bound on the backward error of a coalescing pair: of locate_ep at its
# returned point, and of a sweep row for an ep_candidate
EP_BACKWARD_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter families

class MatrixFamily:
    """One-parameter family of matrices t -> H(t)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        return linalg.as_matrix(self.fn(t))

    def stack(self, ts):
        """(T, n, n) array of the family over ts, with each Hermitian flag."""
        mats = [self(t) for t in ts]
        return (np.stack([m.entries for m in mats]),
                np.array([m.symmetry_hint == linalg.HERMITIAN for m in mats]))

    def pairs(self, ts):
        """Largest entries over ts, then the eigenpairs in the solver's order,
        with unit vectors: in closed form for n = 2 (linalg.eig2_stack),
        else from LAPACK."""
        mats, hermitian = self.stack(ts)
        n2 = len(mats[0]) == 2
        peaks, w, vr = linalg.eig2_stack(mats) if n2 else (
            np.abs(mats).max(axis=(1, 2)), *linalg.eig_stack(mats, hermitian))
        del mats
        if not (ok := np.isfinite(w).all(axis=1)).all():  # unmatchable
            raise NoConvergence("eigenvalue not finite at param "
                                f"{float(ts[~ok][0])!r}")
        if n2:                  # unit vectors, laid out as below
            return peaks.tolist(), w, vr
        vr = np.ascontiguousarray(vr.swapaxes(1, 2))  # unit as in sort_pairs
        vr /= np.linalg.norm(vr, axis=-1, keepdims=True)
        return peaks.tolist(), w, vr.swapaxes(1, 2)


class _Pencil(MatrixFamily):
    """Affine family t -> A + c(t) B (c the identity unless given).  A and B
    come from checked input and are not checked again, nor are their sums:
    a non-finite one fails in the eigensolver (pairs) as NoConvergence."""

    def __init__(self, a, b, hint, coef=None):
        super().__init__(fn=lambda t: linalg.ComplexMatrix._make((
            self.a + self.coef(t) * self.b, hint)))
        self.a, self.b = (np.asarray(x, complex) for x in (a, b))
        self.hint, self.coef = hint, coef or (lambda t: t)

    def stack(self, ts):
        with np.errstate(all="ignore"):     # the eigensolver refuses inf, nan
            s = self.a + self.coef(np.asarray(ts))[:, None, None] * self.b
        return s, np.full(len(s), self.hint == linalg.HERMITIAN)


class _SecularPencil(_Pencil):
    """t -> H0 - i t V V^T (H0 real symmetric, V real (n, K)).  For K = 1,
    n <= 75 (zhseqr's unblocked path, same eigenvalue bits with no vectors)
    LAPACK gives eigenvalues alone, each vector x = Q (D - z)^-1 W for
    H0 = Q D Q^T, W = Q^T V (Sokolov-Zelevinsky); chunks eigvals refuses or
    with x not finite (z on a level of D) or |(H - z) x| > 1e-8 max|H| |x|
    take eig_stack's."""

    def __init__(self, h0, v):
        with np.errstate(all="ignore"):     # the eigensolver refuses inf, nan
            super().__init__(h0, -1j * (v @ v.T), linalg.COMPLEX_SYMMETRIC)
        self.d, self.q = np.linalg.eigh(h0)
        self.w = self.q.T @ v

    def pairs(self, ts):
        if self.w.shape[1] > 1 or len(self.w) > 75:
            return super().pairs(ts)
        mats, _ = self.stack(ts)
        peaks = np.abs(mats).max(axis=(1, 2))
        try:
            z = np.linalg.eigvals(mats)
        except np.linalg.LinAlgError:   # for eig_stack to retry or report
            return super().pairs(ts)
        del mats
        w = self.w[:, 0]
        with np.errstate(all="ignore"):      # non-finite chunks fall back
            y = w / (self.d - z[..., None])  # row j: (D - z_j)^-1 W
            norm = np.sqrt((y.real ** 2 + y.imag ** 2).sum(-1))
            y /= norm[..., None]
            # (H - z) x = W (1 / norm - i t W^T x) in the D basis
            r = np.abs(1 / norm - 1j * np.asarray(ts)[:, None] * (y @ w))
        if not (r * np.linalg.norm(w) <= 1e-8 * peaks[:, None]).all():
            del y
            return super().pairs(ts)
        return peaks.tolist(), z, (y @ self.q.T).swapaxes(1, 2)


_COMPLEX_FIELDS = {"omega", "eps1", "eps2"}


def _set_path(model, path, value):
    """The model with one parameter path set to value: 'a' of an avoided
    crossing (its two-level model at a), a field of the model, or the 're'
    or 'im' part of its omega, eps1 or eps2; the copy is checked again."""
    if not isinstance(path, str):
        raise ValueError(f"parameter path {path!r} is not a string")
    if path == "a" and isinstance(model, twolevel.AvoidedCrossingModel):
        return model.model_at(value)
    fields = model._fields
    name, _, part = path.partition("_")
    if name in _COMPLEX_FIELDS.intersection(fields) and part in ("re", "im"):
        old = complex(getattr(model, name))
        path, value = name, complex(value, old.imag) if part == "re" \
            else complex(old.real, value)
    elif path not in fields:
        raise ValueError(f"unknown parameter path {path!r}")
    return type(model)(**{**model._asdict(), path: value})


def _affine(model, paths):
    """Entries A of the model's matrix with every path at 0, the slope B_k
    of each path there, and the symmetry hint.  Paths whose slopes do not
    add up, as ('e1_slope', 'a'), are an input error, seen at all x_k = 1.
    An avoided crossing's 'a' keeps its exact slope in the entries it moves
    (not those a later path overwrites); any other B_k is M(x_k = 1) - A,
    in which the entries that do not move cancel exactly."""
    def at(*x, m=model):
        for path, value in zip(paths, x):
            m = _set_path(m, path, value)
        if isinstance(m, twolevel.AvoidedCrossingModel):
            raise ValueError("an avoided_crossing model needs 'a' among its "
                             "parameter paths")
        return m.matrix()

    base, before, slopes = at(*[0.0] * len(paths)), model, []
    for k, path in enumerate(paths):     # before: earlier paths set to 0
        x = np.eye(len(paths))[k]
        if path == "a" and isinstance(before, twolevel.AvoidedCrossingModel):
            # at zero offsets e_k(0) = 0 a move is the slope, never rounded off
            flat = _set_path(_set_path(before, "e1_0", 0.0), "e2_0", 0.0)
            moves = at(*x, m=flat).entries != at(*0 * x, m=flat).entries
            exact = np.diag([before.e1_slope, before.e2_slope])
            slopes.append(np.where(moves, exact, 0))
        else:
            slopes.append(at(*x).entries - base.entries)
        before = _set_path(before, path, 0.0)
    if not np.array_equal(at(*[1.0] * len(paths)).entries,  # raises on inf
                          sum(slopes, base.entries)):  # before this overflows
        raise ValueError(f"parameter paths {paths} give no pencil A + x B")
    return base.entries, slopes, base.symmetry_hint


def make_family(model, parameter):
    """The pencil A + t B of a model over one parameter path (_set_path)."""
    a, (b,), hint = _affine(model, (parameter,))
    return _Pencil(a, b, hint)


class PlaneFamily:
    """Two-parameter family (p1, p2) -> H(p1, p2)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, p1, p2):
        return linalg.as_matrix(self.fn(p1, p2))


# ---------------------------------------------------------------------------
# continuation core

def _match(u_prev, u_new, z0=None, z1=None):
    # Hermitian overlap: the unconjugated product collapses near a
    # coalescence along with the phase rigidity and cannot identify states;
    # columns in (Re, Im) order of z1 break a tie alike in any input order
    order = np.arange(len(u_new)) if z1 is None \
        else np.lexsort((z1.imag, z1.real))
    ov = np.abs(u_prev.conj().T @ u_new.T[order].T)
    with np.errstate(over="ignore"):    # values a float range apart: inf
        cols = linalg._assign(ov, None if z0 is None
                              else abs(z0[:, None] - z1[order]))
    return order[cols], float(ov[np.arange(len(cols)), cols].min())


class _Frame(NamedTuple):
    t: float
    values: np.ndarray      # eigenvalues, in continuation order once matched
    vectors: np.ndarray     # unit right eigenvectors as columns, same order
    on_grid: bool           # False for a bisection midpoint
    peak: float             # largest entry magnitude of the matrix at t


def _frame_at(family, t, on_grid=True, pairs=None):  # sorted as sort_pairs
    peaks, w, vr = pairs or family.pairs(np.array([t]))
    order = np.lexsort((w[0].imag, w[0].real))
    return _Frame(t, w[0, order], vr[0][:, order], on_grid, peaks[0])


def _step(family, f0, f1, depth=0):
    """Frames after the continued frame f0 up to and including f1, matched
    by overlap, and the order of f1; an ambiguous interval is bisected,
    MAX_BISECT deep."""
    perm, best = _match(f0.vectors, f1.vectors, f0.values, f1.values)
    if best >= MATCH_THRESHOLD:
        return [_Frame(f1.t, f1.values[perm], f1.vectors[:, perm],
                       f1.on_grid, f1.peak)], perm
    if depth == MAX_BISECT:
        raise MatchingAmbiguous(
            f"overlap {best:.3f} below threshold at param {float(f1.t)!r}",
            best_overlap=best)
    mid = _frame_at(family, 0.5 * (f0.t + f1.t), on_grid=False)
    left, _ = _step(family, f0, mid, depth=depth + 1)
    right, perm = _step(family, left[-1], f1, depth=depth + 1)
    return left + right, perm


def _track(family, ts):
    """Continue the eigenpairs of a MatrixFamily along the parameters ts,
    yielding the matched frames in blocks: _Frames of arrays, one row per
    frame, bisection midpoints included before their grid rows.  Chunks
    are diagonalized and overlap-matched in batch, in solver order: where
    the row maxima of |U_{k-1}^H U_k| are distinct columns, all at least
    MATCH_THRESHOLD, the order is P_k = cols_k[P_{k-1}], as _match finds;
    any other row k takes P_k from _step, from row k - 1 in order P_{k-1}."""
    # at most five chunk-sized arrays are live, inside family.pairs: LAPACK's
    # vectors, then their transposed copy and the two temporaries of its
    # norm, and the block the caller holds; the rest has been released
    size = max(1, _STACK_BYTES // (5 * family.stack(ts[:1])[0].nbytes))
    for lo in range(0, len(ts), size):
        chunk = ts[lo:lo + size]
        peaks, w, vr = family.pairs(chunk)
        if lo == 0:     # the first frame: row 0 of pairs from ts[0]
            prev = _frame_at(family, chunk[0], pairs=(peaks, w, vr))
            yield _Frame._make(np.array([x]) for x in prev)
            chunk, peaks, w, vr = chunk[1:], peaks[1:], w[1:], vr[1:]
            if not len(chunk):
                continue
        ov = np.concatenate([prev.vectors[None], vr[:-1]]).conj()
        # |U_{k-1}^H U_k|, for n = 2 summed entrywise: no BLAS call per frame
        ov = np.abs(sum(ov[:, k, :, None] * vr[:, k, None] for k in range(2))
                    if len(vr[0]) == 2 else ov.swapaxes(1, 2) @ vr)
        perms, ident = ov.argmax(axis=2), np.arange(ov.shape[2])
        top = np.take_along_axis(ov, perms[..., None], 2)
        if np.count_nonzero(tied := ov == top) != perms.size:
            # a tied maximum takes its first column in (Re, Im) order, as _match
            for k in np.flatnonzero(tied.sum(axis=(1, 2)) > len(ident)):
                order = np.lexsort((w[k].imag, w[k].real))
                perms[k] = order[ov[k][:, order].argmax(axis=1)]
        clean = np.zeros(perms.shape, bool)     # a column two rows pick: False
        np.put_along_axis(clean, perms, top[..., 0] >= MATCH_THRESHOLD, 1)
        clean = clean.all(axis=1)
        del ov, top, tied
        p, last, mids = ident, 0, []
        for k in np.flatnonzero(~clean | (perms != ident).any(axis=1)):
            perms[last:k] = p           # the rows between act on no column
            if clean[k]:
                p = perms[k][p]
            else:
                if k:                   # row k - 1 in continued order
                    prev = _Frame(chunk[k - 1], w[k - 1, p], vr[k - 1][:, p],
                                  True, peaks[k - 1])
                steps, p = _step(family, prev, _Frame(chunk[k], w[k], vr[k],
                                                      True, peaks[k]))
                mids += [(k, f) for f in steps[:-1]]
            perms[k], last = p, k + 1
        perms[last:] = p
        if not (perms == ident).all():
            w, vr = (np.take_along_axis(w, perms, 1),
                     np.take_along_axis(vr, perms[:, None], 2))
        block = _Frame(chunk, w, np.ascontiguousarray(vr),  # C-ordered
                       np.ones(len(chunk), bool), np.array(peaks))
        del w, vr
        if mids:
            at, fs = zip(*mids)
            block = _Frame(*(np.insert(x, at, y, axis=0)
                             for x, y in zip(block, zip(*fs))))
        prev = _Frame._make(x[-1] for x in block)
        yield block


# ---------------------------------------------------------------------------
# sweeps

class SweepSpec(NamedTuple("SweepSpec", [
        ("model", object), ("parameter", str), ("start", float),
        ("stop", float), ("steps", int)])):
    __slots__ = ()

    def __new__(cls, model, parameter, start, stop, steps):
        if steps < 2:
            raise ValueError("steps must be >= 2")
        if start == stop:
            raise ValueError("start and stop must differ")
        return super().__new__(cls, model, parameter, start, stop, steps)


SweepRow = NamedTuple("SweepRow", [
    ("param", float), ("values", np.ndarray), ("norms_A", np.ndarray),
    ("rigidity_r", np.ndarray), ("min_gap", float)])


class Event(NamedTuple):
    kind: str
    param: float
    indices: tuple


class SweepResult(NamedTuple):
    params: np.ndarray      # (T,) grid points and bisection midpoints
    values: np.ndarray      # (T, n) eigenvalues in continuation order
    norms_A: np.ndarray     # (T, n) A = 1/r
    rigidity_r: np.ndarray  # (T, n) phase rigidity r
    min_gap: np.ndarray     # (T,) smallest pair gap, inf for one level
    events: list

    @property
    def rows(self):
        """Transitional SweepRows of the arrays, read nowhere in nhspec; they
        go, with SweepRow, once the benchmark's checks read the arrays."""
        return list(map(SweepRow._make, zip(self.params.tolist(), self.values,
                    self.norms_A, self.rigidity_r, self.min_gap.tolist())))


def linspace(start, stop, num):     # halved where stop - start overflows
    k = 2.0 if np.isinf(float(stop) - float(start)) else 1.0
    return k * np.linspace(start / k, stop / k, num)


def sweep(spec):
    """Sweep a model parameter, continuing eigenpairs by overlap matching.

    Events: sign changes of the energy (width) differences and interior
    local minima of the energy gap staying above DEFAULT_GAP_TOL times the
    largest matrix entry over the sweep (at least 1), and, for a
    complex-symmetric family, pairs whose backward error of coalescence is
    at most EP_BACKWARD_TOL.  They are evaluated one row of the pair
    triangle at a time, the pairs (i, j > i) in triu_indices order, so
    memory beyond _track's chunks of _STACK_BYTES is O(T n).
    """
    family = spec.model
    if not isinstance(family, MatrixFamily):
        # the model's own checks at both ends cover the affine path between
        for t in (spec.start, spec.stop):
            _set_path(spec.model, spec.parameter, t)
        family = make_family(spec.model, spec.parameter)
    # phase rigidity r = |u^T u| of the unit vectors, A = 1/r; both are
    # flagged (r = 0, A = inf) where the c-norm has numerically vanished
    blocks = [(b.t, b.values, np.abs(np.einsum("tik,tik->tk", b.vectors,
                                               b.vectors)), b.on_grid, b.peak)
              for b in _track(family, linspace(spec.start, spec.stop,
                                               spec.steps))]
    params, values, r, on_grid, peak = map(np.concatenate, zip(*blocks))
    del blocks
    scale = max(peak[on_grid].max(), 1.0)
    r[r < linalg.DEFECT_TOL] = 0.0
    with np.errstate(divide="ignore"):
        norms = 1.0 / r
    gaps, events = np.full(len(params), np.inf), []
    finite = np.ones(len(params), bool)
    cs = getattr(family, "hint", None) == linalg.COMPLEX_SYMMETRIC
    for i in range(values.shape[1] - 1):
        diff, gap, near = _pair_row(values, r, peak, i)
        finite &= np.isfinite(gap).all(axis=1)  # an overflow is raised below
        np.minimum(gaps, gap.min(axis=1), out=gaps)
        events += _detect_events(params, i, diff, near & cs,
                                 DEFAULT_GAP_TOL * scale)
    if not finite.all():
        raise NhspecError("eigenvalue pair gap overflows at param "
                          f"{float(params[~finite][0])!r}")
    events.sort(key=lambda e: (e.param, e.kind, e.indices))
    return SweepResult(params, values, norms, r, gaps, events)


def _pair_row(values, r, peak, i):
    """z_i - z_j of the pairs (i, j > i), their gaps (inf past overflow) and
    the EP test gap max(r_i, r_j) <= EP_BACKWARD_TOL max(peak, 1): that is
    linalg.coalescence_error for complex-symmetric H, left vector conj(u)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is no EP
        gap = np.abs(diff := values[:, i, None] - values[:, i + 1:])
        return diff, gap, gap * np.maximum(r[:, i, None], r[:, i + 1:]) \
            <= EP_BACKWARD_TOL * np.maximum(peak, 1.0)[:, None]


def _first_of_runs(mask):
    """True at the first sample (axis 0) of every run of True."""
    starts = mask.copy()
    starts[1:] &= ~mask[:-1]
    return starts


def _crossings(gap, tol):
    """Event count per sample for zero crossings of gap (T, P).

    A run of near-zero gaps counts as a single crossing at its start;
    sign changes are only counted between samples clearly off zero, at
    the sample nearer to zero.
    """
    mag = np.abs(gap)
    zero = mag <= tol
    count = _first_of_runs(zero).view(np.int8)     # at most 2 per sample
    pos = gap > 0.0
    flip = (pos[:-1] != pos[1:]) & ~zero[:-1] & ~zero[1:]
    left = mag[:-1] <= mag[1:]
    count[:-1] += flip & left
    count[1:] += flip & ~left
    return count


def _local_minima(gap, tol):
    """Interior samples where gap (T, P) has a local minimum above tol."""
    found = np.zeros(gap.shape, dtype=bool)
    mid = gap[1:-1]
    found[1:-1] = (mid < gap[:-2]) & (mid <= gap[2:]) & (mid > tol)
    return found


def _detect_events(params, i, diff, near, gap_tol):
    """Unsorted events of the pairs (i, j > i) of n levels, whose
    differences z_i - z_j are diff, (T, n - 1 - i); near: the EP test."""
    found = [
        ("energy_crossing", _crossings(diff.real, gap_tol)),
        ("width_crossing", _crossings(diff.imag, gap_tol)),
        ("avoided_crossing", _local_minima(np.abs(diff.real), gap_tol)),
        ("ep_candidate", _first_of_runs(near)),
    ]
    events = []
    for kind, count in found:
        ts, ks = np.nonzero(count)
        for t, k, c in zip(ts.tolist(), ks.tolist(), count[ts, ks].tolist()):
            events += [Event(kind, float(params[t]), (i, i + 1 + k))
                       for _ in range(c)]
    return events


# ---------------------------------------------------------------------------
# coalescence localization

class EpLocation(NamedTuple):
    """A located coalescence (p1, p2) with eigenvalue z0 and its certificate.

    gap is the eigenvalue gap |z_i - z_j| there; from a dense eigensolver
    it cannot fall below about sqrt(eps) * scale.  backward_error is
    linalg.coalescence_error of the pair: to first order the matrix at
    (p1, p2) is within backward_error * scale of one where the pair
    coincides.  step estimates the error in (p1, p2): the last Newton
    correction when it fell below 4 ulp, else the last step taken (for
    the two-level coupling plane, the move to the closed-form locus);
    iterations counts Newton steps.  At the cap, iterations == 60, step
    is only the last step taken and bounds nothing.
    """

    p1: float
    p2: float
    z0: complex
    gap: float
    backward_error: float
    step: float
    iterations: int


def _pair_state(family, points):
    """(gap, squared difference, mean) of the closest pair at each point."""
    states = []
    with np.errstate(all="ignore"):     # a non-finite pair raises below
        try:
            ws = np.linalg.eigvals(np.stack([family(*q).entries
                                             for q in points]))
        except np.linalg.LinAlgError as exc:
            if len(points) > 1:         # the first failing point raises
                return [s for q in points for s in _pair_state(family, [q])]
            point = tuple(map(float, points[0]))
            raise NoConvergence(f"eigensolver failed at {point}: {exc}",
                                point=point) from exc
        for q, w in zip(points, ws):
            i, j = linalg.closest_pair(w)
            diff = w[i] - w[j]
            states.append((float(abs(diff)), diff ** 2, 0.5 * (w[i] + w[j])))
            if not (np.isfinite(w).all() and np.isfinite(states[-1]).all()):
                point = tuple(map(float, q))
                raise NoConvergence(f"eigenvalues not finite at {point}",
                                    point=point)
    return states


def locate_ep(family, seed, p1=None, p2=None):
    """Locate a point in two real parameters where two eigenvalues coalesce.

    Accepts either a PlaneFamily or a model plus two parameter paths, for
    the pencil A + p1 B1 + p2 B2, with the model checked at the result.
    Newton iterates from the seed on the squared gap of the closest pair,
    which is smooth through the coalescence.  For the closed-form
    two-level model in the coupling plane the exact locus nearest the
    Newton point is the final step.  The search succeeds when the
    backward error at the returned point is at most EP_BACKWARD_TOL, a
    bound on distance to a coalescence relative to the matrix scale, not
    on the eigenvalue gap; otherwise it raises SaddleRejected where the
    line search stalled with the backward error far above it, and else
    NoConvergence naming the backward error or Newton's breakdown.
    """
    model = None
    if not isinstance(family, PlaneFamily):
        if p1 == p2:
            raise ValueError(f"p1 and p2 are the same parameter path {p1!r}")
        model, (a, (b1, b2), hint) = family, _affine(family, (p1, p2))
        family = PlaneFamily(fn=lambda x1, x2: linalg.ComplexMatrix._make((
            a + x1 * b1 + x2 * b2, hint)))
    p, (gap, _, z0), step, iterations, stall = _newton_on_sq_gap(
        family, seed)
    exact = _closed_form_polish(model, (p1, p2), p)
    if exact is not None:
        step = float(np.hypot(*(exact[0] - p)))
        p, (gap, z0) = exact
    if model is not None:
        _set_path(_set_path(model, p1, p[0]), p2, p[1])
    eta = linalg.coalescence_error(family(p[0], p[1]).entries)
    if not eta <= EP_BACKWARD_TOL:
        if stall == "local minimum" and eta > 1e4 * EP_BACKWARD_TOL:
            raise SaddleRejected(
                f"local minimum with gap {gap:.3e} above tolerance",
                point=tuple(p), residual=gap)
        raise NoConvergence(
            f"backward error {eta:.3e} (gap {gap:.3e}) above tolerance "
            f"{EP_BACKWARD_TOL:.3e}" if stall in (None, "local minimum")
            else f"{stall} at {tuple(p.tolist())} with gap {gap:.3e}",
            point=tuple(p), residual=gap)
    return EpLocation(p1=float(p[0]), p2=float(p[1]), z0=complex(z0),
                      gap=gap, backward_error=eta, step=step,
                      iterations=iterations)


def _closed_form_polish(model, parameters, p):
    """The exact two-level locus nearest p in the (omega_re, omega_im)
    plane with the pair's gap and mean there, or None for any other
    model or plane."""
    if not isinstance(model, twolevel.TwoLevelModel) \
            or parameters != ("omega_re", "omega_im"):
        return None
    try:
        w_plus, w_minus = twolevel.ep_locations(model.eps1, model.eps2)
    except DegenerateInput:
        return None
    cur = complex(p[0], p[1])
    w = w_plus if abs(w_plus - cur) <= abs(w_minus - cur) else w_minus
    lam_p, lam_m, z = twolevel.eigenvalues(model._replace(omega=w))
    return (np.array([w.real, w.imag]),
            (float(abs(2.0 * z)), 0.5 * (lam_p + lam_m)))


def _newton_on_sq_gap(family, p):
    """Newton from p on F(p) = (z_i - z_j)^2 of the closest pair.

    F is analytic through a coalescence, where z_i - z_j is not, and a
    dense eigensolver gives it to O(eps * scale^2).  The Jacobian J is a
    central difference.  Where F depends on one combination of the two
    parameters only, sigma2 / sigma1 of J is difference noise (1e-10 to
    4e-9, against at least 1e-6 on regular planes); below 1e-7 the step
    is the minimum-norm one, which ends near the seed's projection onto
    the EP set instead of dividing |F| by that noise.  A step that does
    not lower |F| is halved, up to 30 times, and in at most 60 iterations
    the search has converged once a full step is within 4 ulp of p; where
    full steps halve, as at the double root of a crossing, the doubled
    step is tried first.  Returns the point, its _pair_state, the step
    estimate of EpLocation, the iteration count and why Newton stalled:
    None, "singular Jacobian", "non-finite Newton step", or "local
    minimum" where the line search found no lower |F|.
    """
    p = np.asarray(p, dtype=float)
    (state,), step, last = _pair_state(family, [p]), 0.0, np.inf
    for it in range(1, 61):
        width = max(np.abs(p).max(), 1.0)
        h, ulps = 1e-7 * width, 4.0 * np.finfo(float).eps * width
        f, f4 = state[1], [s[1] for s in _pair_state(family, [  # one eigvals
            q for dp in h * np.eye(2) for q in (p + dp, p - dp)])]
        d = [(f4[k] - f4[k + 1]) / (2.0 * h) for k in (0, 2)]
        jac = [[d[0].real, d[1].real], [d[0].imag, d[1].imag]]
        try:
            sv = np.linalg.svd(jac, compute_uv=False)
            if sv[1] < 1e-7 * sv[0]:
                s = np.linalg.lstsq(jac, [-f.real, -f.imag], rcond=1e-7)[0]
            else:
                s = np.linalg.solve(jac, [-f.real, -f.imag])
        except np.linalg.LinAlgError:
            return p, state, step, it, "singular Jacobian"
        with np.errstate(over="ignore"):    # an overflowing step: not finite
            full = float(np.hypot(*s))
        if not np.isfinite(full):
            return p, state, step, it, "non-finite Newton step"
        if full <= ulps:
            return p, state, full, it, None
        t, last = 2.0 if 0.4 <= full / last <= 0.6 else 1.0, full
        while True:
            (trial,) = _pair_state(family, [p + t * s])
            if abs(trial[1]) < abs(f):
                break
            t *= 0.5
            if t < 2.0 ** -30 or t * full <= ulps:
                return p, state, step, it, "local minimum"
        p, state, step = p + t * s, trial, t * full
    return p, state, step, it, None


# ---------------------------------------------------------------------------
# contour encircling

class EncircleSpec(NamedTuple("EncircleSpec", [
        ("center", complex), ("radius", float), ("steps_per_cycle", int),
        ("cycles", int)])):
    __slots__ = ()

    def __new__(cls, center, radius, steps_per_cycle=256, cycles=4):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if steps_per_cycle < 64:
            raise ValueError("steps_per_cycle must be >= 64")
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        if steps_per_cycle * cycles >= 2 ** 60 - 1:     # numpy's grid limit
            raise ValueError("cycles is too large for steps_per_cycle")
        return super().__new__(cls, center, radius, steps_per_cycle, cycles)


class CycleRecord(NamedTuple):
    permutation: tuple
    phases: np.ndarray


class CycleReport(NamedTuple):
    cycles: list
    encloses_ep: bool
    eigenvalue_period: int | None
    eigenvector_period: int | None
    theta: np.ndarray           # (T,) the contour's grid angles
    values: np.ndarray          # (T, n) eigenvalues there


def encircle(spec, model):
    """Transport the eigenframe around a closed contour in the coupling plane
    of a model: its omega pencil, with omega = center + radius exp(i theta).

    Reports the eigenvalue permutation and accumulated eigenvector phase
    after each cycle.  Around a coalescence the eigenvalues swap each
    cycle (restored after two) and the vectors pick up the
    +/-i, -1, -/+i, +1 pattern (restored after four).  encloses_ep: the
    first cycle swaps the pair, as around one (not both) of the EPs omega =
    +/-i (eps1 - eps2) / 2.  A contour through an EP (sweep's test on any
    row) raises AtExceptionalPoint."""
    family = make_family(model, "omega")
    steps = spec.steps_per_cycle
    thetas = 2 * np.pi * np.arange(steps * spec.cycles + 1) / steps
    track = _Frame._make(map(np.concatenate, zip(*_track(_Pencil(
        family.a, family.b, family.hint,
        coef=lambda th: spec.center + spec.radius * np.exp(1j * th)),
        thetas))))
    n = track.values.shape[1]
    start, norms = linalg.c_columns(track.vectors[0])
    if np.isinf(norms).any():       # no c-normalized frame to transport
        raise AtExceptionalPoint("c-norm vanishes at the contour's start")
    r = np.abs(np.einsum("tik,tik->tk", track.vectors, track.vectors))
    if (near := _pair_row(track.values, r, track.peak, 0)[2][:, 0]).any():
        raise AtExceptionalPoint("the contour passes through a coalescence "
                                 f"at theta {float(track.t[near][0])!r}")
    h0 = np.linalg.norm(start, axis=0)
    w, s = _transport(track.vectors, start / h0, (1.0 / h0).astype(complex))
    cycles = []
    # grid rows k * steps close the cycles; bisection midpoints lie between
    for row in np.flatnonzero(track.on_grid)[steps::steps].tolist():
        perm, _ = _match(w[row], w[0])  # perm[k]: start index matching k
        # the continued c-normalized frames phi give a sign per state;
        # swapped states carry the half-turn of the norm branch, written as
        # a factor i so two swap cycles compose to the measured -1
        phi = w[[0, row]] / s[[0, row], None]
        phases = np.array([phi[0][:, p] @ phi[1][:, k]
                           for k, p in enumerate(perm.tolist())])
        cycles.append(CycleRecord(permutation=tuple(perm.tolist()),
                                  phases=np.where(perm != np.arange(n),
                                                  1j * phases, phases)))

    ident = [c for c, rec in enumerate(cycles, start=1)
             if rec.permutation == tuple(range(n))]
    phased = [c for c in ident if np.allclose(cycles[c - 1].phases, 1.0,
                                              atol=1e-3)]
    return CycleReport(cycles=cycles,
                       encloses_ep=cycles[0].permutation != tuple(range(n)),
                       eigenvalue_period=(ident + [None])[0],
                       eigenvector_period=(phased + [None])[0],
                       theta=track.t[track.on_grid],
                       values=track.values[track.on_grid])


def _transport(vectors, w0, s0):
    """Every row's Hermitian-unit frame and norm branch, carried from (w0, s0)
    along the matched frames vectors[1:], all columns at once: each phased
    so that its overlap with the last is real positive, each root of its
    unconjugated norms signed as the nearer to the last (+ at a tie).
    frame / branch is the continued c-normalized frame, half-windings too."""
    w = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    w[0] = w0
    for new, last in zip(w[1:], w):
        z = np.vecdot(new, last, axis=0)        # np.vdot's bits
        new *= z / np.hypot(z.real, z.imag)     # abs(z)'s bits
    cols = w[1:, None].swapaxes(1, 3)           # x @ x's bits, per column
    s = np.insert(np.sqrt(cols.swapaxes(2, 3) @ cols)[..., 0, 0], 0, s0, 0)
    d, e = s[1:] - s[:-1], s[1:] + s[:-1]
    near, far = np.hypot(d.real, d.imag), np.hypot(e.real, e.imag)
    # a root is negated where an odd number of flips follows the last tie
    flips = np.cumsum(np.insert(~(near <= far), 0, False, 0), axis=0)
    tie = np.maximum.accumulate(np.insert(np.where(
        near == far, np.arange(1, len(s))[:, None], 0), 0, 0, 0))
    odd = (flips - np.take_along_axis(flips, tie, 0)) % 2 == 1
    return w, np.negative(s, out=s, where=odd)
