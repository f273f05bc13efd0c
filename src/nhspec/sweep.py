"""Parameter sweeps with eigenpair continuation.

Trajectories are continued by overlap matching (eigenvalues collide
near coalescence points; eigenvectors disambiguate longer), coalescence
points are located in two real parameters by a simplex stage followed
by Newton on the squared pair gap, and closed contours transport the
eigenframe to read off the swap/phase pattern of the branch point.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from . import linalg, twolevel
from .errors import MatchingAmbiguous, NoConvergence, SaddleRejected

MATCH_THRESHOLD = 0.5
# an interval whose best overlap stays below MATCH_THRESHOLD is bisected
# at most this deep (1/256 of its length) before continuation gives up
MAX_BISECT = 8
# matrices are diagonalized in stacks of about this many bytes: one LAPACK
# call per stack, without holding a whole long grid in memory at once
_STACK_BYTES = 1 << 20
DEFAULT_GAP_TOL = 1e-8
DEFAULT_EP_GAP_TOL = 1e-10
DEFAULT_BIC_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter families

@dataclass
class MatrixFamily:
    """One-parameter family of matrices t -> H(t)."""

    fn: object
    model: object = None
    parameter: str = None
    window: tuple = None

    def __call__(self, t):
        return linalg.as_matrix(self.fn(t))


_COMPLEX_FIELDS = {"omega", "eps1", "eps2"}


def _set_path(model, path, value):
    if path in ("a", "alpha"):
        return model.model_at(value) if hasattr(model, "model_at") else value
    name, _, part = path.partition("_")
    if name in _COMPLEX_FIELDS and part in ("re", "im"):
        old = complex(getattr(model, name))
        new = complex(value, old.imag) if part == "re" else complex(old.real, value)
        return dataclasses.replace(model, **{name: new})
    if hasattr(model, path):
        return dataclasses.replace(model, **{path: value})
    raise ValueError(f"unknown parameter path {path!r}")


def make_family(model, parameter, window=None):
    """Family over a named parameter path of a two-level style model.

    Paths: 'a' for the avoided-crossing sweep variable, 'omega_re',
    'omega_im', 'eps1_re', ... for real/imaginary parts, or any real
    dataclass field name.
    """
    if parameter == "a":
        fn = lambda t: model.matrix(t)
    else:
        fn = lambda t: _set_path(model, parameter, t).matrix()
    return MatrixFamily(fn=fn, model=model, parameter=parameter, window=window)


@dataclass
class PlaneFamily:
    """Two-parameter family (p1, p2) -> H(p1, p2)."""

    fn: object
    model: object = None
    parameters: tuple = None

    def __call__(self, p1, p2):
        return linalg.as_matrix(self.fn(p1, p2))


def make_plane_family(model, p1, p2):
    def fn(x1, x2):
        m = _set_path(model, p1, x1)
        m = _set_path(m, p2, x2)
        return m.matrix()
    return PlaneFamily(fn=fn, model=model, parameters=(p1, p2))


# ---------------------------------------------------------------------------
# continuation core

def _match(u_prev, u_new):
    # Hermitian overlap: the unconjugated product collapses near a
    # coalescence along with the phase rigidity and cannot identify states
    ov = np.abs(u_prev.conj().T @ u_new)
    _, cols = linear_sum_assignment(-ov)
    chosen = ov[np.arange(len(cols)), cols]
    return cols, float(chosen.min())


def _min_pair_gap(values):
    """Smallest distance between two eigenvalues along the last axis."""
    n = values.shape[-1]
    d = np.abs(values[..., :, None] - values[..., None, :])
    d[..., np.arange(n), np.arange(n)] = np.inf
    return d.min(axis=(-2, -1))


class _Frame(NamedTuple):
    t: float
    values: np.ndarray      # eigenvalues, in continuation order once matched
    vectors: np.ndarray     # unit right eigenvectors as columns, same order
    on_grid: bool           # False for a bisection midpoint
    peak: float             # largest entry magnitude of the matrix at t


def _solve(family, ts):
    """Unmatched frames of family(t) for each t, with eigenpairs sorted
    by linalg.sort_pairs, from stacked eigensolves of bounded size."""
    mats = []
    for k, t in enumerate(ts):
        mats.append(family(t))
        full = len(mats) * mats[0].entries.nbytes >= _STACK_BYTES
        if not full and k + 1 < len(ts):
            continue
        stack = np.stack([m.entries for m in mats])
        hermitian = np.array([m.symmetry_hint == linalg.HERMITIAN
                              for m in mats])
        peaks = np.abs(stack).max(axis=(1, 2))
        w, vr = linalg.eig_stack(stack, hermitian)
        del stack
        for t_k, z, u, peak in zip(ts[k + 1 - len(mats):k + 1], w, vr, peaks):
            yield _Frame(t_k, *linalg.sort_pairs(z, u), True, float(peak))
        mats = []


def _step(family, f0, f1, depth=0):
    """Frames after the continued frame f0 up to and including f1, matched
    by overlap; an ambiguous interval is bisected, MAX_BISECT deep."""
    perm, best = _match(f0.vectors, f1.vectors)
    if best >= MATCH_THRESHOLD:
        return [f1._replace(values=f1.values[perm],
                            vectors=f1.vectors[:, perm])]
    if depth == MAX_BISECT:
        raise MatchingAmbiguous(
            f"overlap {best:.3f} below threshold at param {f1.t!r}",
            best_overlap=best)
    mid = next(_solve(family, [0.5 * (f0.t + f1.t)]))._replace(on_grid=False)
    left = _step(family, f0, mid, depth + 1)
    return left + _step(family, left[-1], f1, depth + 1)


def _track(family, ts):
    """Continue the eigenpairs of family(t) along the parameters ts,
    yielding the matched frames in order, bisection midpoints included."""
    frames = _solve(family, ts)
    prev = next(frames)
    yield prev
    for f in frames:
        for prev in _step(family, prev, f):
            yield prev


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepSpec:
    model: object
    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.start == self.stop:
            raise ValueError("start and stop must differ")


@dataclass
class SweepRow:
    param: float
    values: np.ndarray
    norms_A: np.ndarray
    rigidity_r: np.ndarray
    min_gap: float


@dataclass
class Event:
    kind: str
    param: float
    indices: tuple


@dataclass
class SweepResult:
    rows: list
    events: list
    vectors: list = field(default_factory=list, repr=False)


def sweep(spec, gap_tol=None, ep_gap_tol=None, bic_tol=None):
    """Sweep a model parameter, continuing eigenpairs by overlap matching.

    Events: sign changes of the energy (width) differences, interior
    local minima of the energy gap staying above tolerance, full complex
    gaps below the coalescence tolerance, and vanishing widths inside
    the coupling window when the family declares one.
    """
    if isinstance(spec.model, MatrixFamily):
        family = spec.model
    else:
        family = make_family(spec.model, spec.parameter)
    frames = list(_track(family, np.linspace(spec.start, spec.stop,
                                             spec.steps)))
    scale = max(max(f.peak for f in frames if f.on_grid), 1.0)
    gap_tol = DEFAULT_GAP_TOL * scale if gap_tol is None else gap_tol
    ep_gap_tol = DEFAULT_EP_GAP_TOL * scale if ep_gap_tol is None else ep_gap_tol

    params = np.array([f.t for f in frames])
    values = np.array([f.values for f in frames])        # (T, n)
    vectors = [f.vectors for f in frames]
    # phase rigidity r = |u^T u| of the unit vectors, A = 1/r; both are
    # flagged (r = 0, A = inf) where the c-norm has numerically vanished
    r = np.array([np.abs(np.einsum("ik,ik->k", u, u)) for u in vectors])
    r[r < linalg.DEFECT_TOL] = 0.0
    with np.errstate(divide="ignore"):
        norms = 1.0 / r
    gaps = _min_pair_gap(values)
    rows = [SweepRow(param=float(t), values=values[k], norms_A=norms[k],
                     rigidity_r=r[k], min_gap=float(gaps[k]))
            for k, t in enumerate(params)]

    if bic_tol is None:
        max_width = max(-2.0 * values.imag.min(), 0.0)
        bic_tol = DEFAULT_BIC_TOL * max(max_width, 1e-300)
    events = _detect_events(params, values, family.window, gap_tol,
                            ep_gap_tol, bic_tol)
    return SweepResult(rows=rows, events=events, vectors=vectors)


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
    zero = np.abs(gap) <= tol
    count = _first_of_runs(zero).astype(int)
    sgn = np.where(zero, 0.0, np.sign(gap))
    flip = sgn[:-1] * sgn[1:] < 0.0
    left = np.abs(gap[:-1]) <= np.abs(gap[1:])
    count[:-1] += flip & left
    count[1:] += flip & ~left
    return count


def _local_minima(gap, tol):
    """Interior samples where gap (T, P) has a local minimum above tol."""
    found = np.zeros(gap.shape, dtype=bool)
    mid = gap[1:-1]
    found[1:-1] = (mid < gap[:-2]) & (mid <= gap[2:]) & (mid > tol)
    return found


def _detect_events(params, zs, window, gap_tol, ep_gap_tol, bic_tol):
    """Events over the (sample x level pair) grid of the values zs (T, n)."""
    n = zs.shape[1]
    i, j = np.triu_indices(n, 1)
    pairs = list(zip(i.tolist(), j.tolist()))
    diff = zs[:, i] - zs[:, j]                       # (T, pairs)
    found = [
        ("energy_crossing", _crossings(diff.real, gap_tol), pairs),
        ("width_crossing", _crossings(diff.imag, gap_tol), pairs),
        ("avoided_crossing", _local_minima(np.abs(diff.real), gap_tol), pairs),
        ("ep_candidate", _first_of_runs(np.abs(diff) < ep_gap_tol), pairs),
    ]
    if window is not None:
        inside = (zs.real >= window[0]) & (zs.real <= window[1])
        vanishing = (-2.0 * zs.imag < bic_tol) & inside
        found.append(("bic", _first_of_runs(vanishing),
                      [(k,) for k in range(n)]))
    events = []
    for kind, count, indices in found:
        ts, ks = np.nonzero(count)
        for t, k, c in zip(ts.tolist(), ks.tolist(), count[ts, ks].tolist()):
            events += [Event(kind, float(params[t]), indices[k])
                       for _ in range(c)]
    events.sort(key=lambda e: (e.param, e.kind, e.indices))
    return events


# ---------------------------------------------------------------------------
# coalescence localization

@dataclass
class EpLocation:
    p1: float
    p2: float
    z0: complex
    gap: float
    iterations: int


def _closest_pair(values):
    n = len(values)
    best = (np.inf, 0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(values[i] - values[j])
            if d < best[0]:
                best = (d, i, j)
    return best


def _pair_state(family, p):
    w = np.linalg.eigvals(family(p[0], p[1]).entries)
    gap, i, j = _closest_pair(w)
    return gap, (w[i] - w[j]) ** 2, 0.5 * (w[i] + w[j])


def locate_ep(family, seed, p1=None, p2=None, gap_tol=1e-10, maxiter=400,
              polish=True):
    """Locate a point in two real parameters where two eigenvalues coalesce.

    Accepts either a PlaneFamily or a model plus two parameter paths.
    A derivative-free simplex stage shrinks the pair gap, then Newton
    iterates on the squared gap (which is smooth through the
    coalescence).  For the closed-form two-level model in the coupling
    plane the exact locus is used as the final polish; otherwise a
    high-precision characteristic-polynomial polish removes the
    square-root noise floor of the dense eigensolver.
    """
    if not isinstance(family, PlaneFamily):
        family = make_plane_family(family, p1, p2)
    scale = max(np.abs(family(seed[0], seed[1]).entries).max(), 1.0)
    tol = gap_tol * scale

    res = minimize(lambda p: _pair_state(family, p)[0], np.asarray(seed, float),
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": maxiter})
    p = np.asarray(res.x, dtype=float)

    exact = _closed_form_polish(family, p)
    if exact is not None:
        p, z0, gap = exact
        if gap <= tol:
            return EpLocation(p1=float(p[0]), p2=float(p[1]), z0=z0,
                              gap=gap, iterations=int(res.nit))

    p, stalled = _newton_on_sq_gap(family, p, scale)
    gap, _, z0 = _pair_state(family, p)
    if polish and gap > tol:
        try:
            p, gap, z0 = _hp_polish(family, p)
        except Exception:
            pass
    if gap > tol:
        if stalled and gap > 1e4 * tol:
            raise SaddleRejected(
                f"local minimum with gap {gap:.3e} above tolerance",
                point=tuple(p), residual=gap)
        raise NoConvergence(f"gap {gap:.3e} above tolerance {tol:.3e}",
                            point=tuple(p), residual=gap)
    return EpLocation(p1=float(p[0]), p2=float(p[1]), z0=complex(z0),
                      gap=float(gap), iterations=int(res.nit))


def _closed_form_polish(family, p):
    model = family.model
    if not isinstance(model, twolevel.TwoLevelModel):
        return None
    if family.parameters != ("omega_re", "omega_im"):
        return None
    try:
        w_plus, w_minus = twolevel.ep_locations(model.eps1, model.eps2)
    except Exception:
        return None
    cur = complex(p[0], p[1])
    w = w_plus if abs(w_plus - cur) <= abs(w_minus - cur) else w_minus
    m = dataclasses.replace(model, omega=w)
    lam_p, lam_m, z = twolevel.eigenvalues(m)
    return (np.array([w.real, w.imag]), 0.5 * (lam_p + lam_m),
            float(abs(2.0 * z)))


def _newton_on_sq_gap(family, p, scale, iters=60):
    """Newton on F(p) = (z_i - z_j)^2, smooth and ~linear near the locus."""
    h = 1e-7 * max(np.abs(p).max(), 1.0)
    stalled = False
    for _ in range(iters):
        _, f0, _ = _pair_state(family, p)
        if abs(f0) < (1e-15 * scale) ** 2:
            break
        jac = np.empty((2, 2))
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            _, fp, _ = _pair_state(family, p + dp)
            _, fm, _ = _pair_state(family, p - dp)
            d = (fp - fm) / (2.0 * h)
            jac[0, k] = d.real
            jac[1, k] = d.imag
        rhs = -np.array([f0.real, f0.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            stalled = True
            break
        if not np.all(np.isfinite(step)):
            stalled = True
            break
        p = p + step
        if np.linalg.norm(step) < 1e-14 * max(np.abs(p).max(), 1.0):
            stalled = abs(f0) > (1e-10 * scale) ** 2
            break
    return p, stalled


def _hp_polish(family, p, dps=50, iters=25):
    """High-precision Newton on the squared pair gap via the char poly."""
    import mpmath as mp

    def pair_sq(px, py, prec):
        with mp.workdps(prec):
            a = family(float(px), float(py)).entries
            roots = _mp_roots(a, mp)
            gap, i, j = _closest_pair_mp(roots, mp)
            return (roots[i] - roots[j]) ** 2, gap, (roots[i] + roots[j]) / 2

    px, py = mp.mpf(repr(float(p[0]))), mp.mpf(repr(float(p[1])))
    h = mp.mpf("1e-20")
    with mp.workdps(dps):
        for _ in range(iters):
            f0, gap, z0 = pair_sq(px, py, dps)
            if abs(f0) < mp.mpf("1e-30"):
                break
            fx = (pair_sq(px + h, py, dps)[0] - pair_sq(px - h, py, dps)[0]) / (2 * h)
            fy = (pair_sq(px, py + h, dps)[0] - pair_sq(px, py - h, dps)[0]) / (2 * h)
            jac = mp.matrix([[mp.re(fx), mp.re(fy)], [mp.im(fx), mp.im(fy)]])
            rhs = mp.matrix([-mp.re(f0), -mp.im(f0)])
            try:
                step = mp.lu_solve(jac, rhs)
            except Exception:
                break
            px += step[0]
            py += step[1]
        f0, gap, z0 = pair_sq(px, py, dps)
    return (np.array([float(px), float(py)]), float(gap),
            complex(float(mp.re(z0)), float(mp.im(z0))))


def _mp_roots(a, mp):
    n = a.shape[0]
    m = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = mp.mpc(a[i, j].real, a[i, j].imag)
    # Faddeev-LeVerrier characteristic polynomial
    coeffs = [mp.mpc(1)]
    mk = mp.eye(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -sum(mk[i, i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i, i] += ck
    return mp.polyroots(coeffs, maxsteps=200, extraprec=80)


def _closest_pair_mp(roots, mp):
    best = (mp.inf, 0, 1)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if d < best[0]:
                best = (d, i, j)
    return best


# ---------------------------------------------------------------------------
# contour encircling

@dataclass(frozen=True)
class EncircleSpec:
    center: complex
    radius: float
    steps_per_cycle: int = 256
    cycles: int = 4

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.steps_per_cycle < 64:
            raise ValueError("steps_per_cycle must be >= 64")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


@dataclass
class CycleRecord:
    permutation: tuple
    phases: np.ndarray


@dataclass
class CycleReport:
    cycles: list
    encloses_ep: bool
    eigenvalue_period: int | None
    eigenvector_period: int | None
    contour: list = field(default_factory=list, repr=False)


def make_omega_family(model):
    """Family over complex coupling for contour transport."""
    return MatrixFamily(
        fn=lambda w: dataclasses.replace(model, omega=w).matrix(),
        model=model, parameter="omega")


def encircle(spec, family):
    """Transport the eigenframe around a closed contour in the coupling plane.

    Reports the eigenvalue permutation and accumulated eigenvector phase
    after each cycle.  Around a coalescence the eigenvalues swap each
    cycle (restored after two) and the vectors pick up the
    +/-i, -1, -/+i, +1 pattern (restored after four).
    """
    if not isinstance(family, MatrixFamily):
        family = make_omega_family(family)
    steps = spec.steps_per_cycle
    total = steps * spec.cycles

    def point(theta):
        return spec.center + spec.radius * np.exp(1j * theta)

    sys0 = linalg.c_normalize(linalg.eig(family(point(0.0))))
    n = sys0.n
    h0 = np.linalg.norm(sys0.right_vectors, axis=0)
    init_w = sys0.right_vectors / h0
    init_s = (1.0 / h0).astype(complex)

    gap_center = _min_pair_gap(np.linalg.eigvals(
        family(spec.center).entries))
    contour_gaps = [
        _min_pair_gap(np.linalg.eigvals(family(point(th)).entries))
        for th in np.linspace(0.0, 2 * np.pi, 16, endpoint=False)]
    encloses = gap_center < min(contour_gaps) / 10.0

    thetas = 2 * np.pi * np.arange(total + 1) / steps
    frames = _track(lambda th: family(point(th)), thetas)
    next(frames)
    cur_w, cur_s = init_w, init_s
    contour = [(0.0, sys0.values.copy())]
    cycles = []
    for f in frames:
        cur_w, cur_s = _carry(cur_w, cur_s, f.vectors)
        if not f.on_grid:
            continue
        contour.append((float(f.t), f.values))
        turns = f.t / (2 * np.pi)
        if abs(turns - round(turns)) < 1e-12:
            perm, phases = _compare_to_start(init_w, init_s, cur_w, cur_s)
            # the continued c-normalized frame gives a sign per state;
            # swapped states carry the half-turn of the norm branch, written
            # as a factor i so two swap cycles compose to the measured -1
            swapped = perm != np.arange(n)
            phases = np.where(swapped, 1j * phases, phases)
            cycles.append(CycleRecord(permutation=tuple(int(x) for x in perm),
                                      phases=phases))

    val_period = None
    vec_period = None
    for c, rec in enumerate(cycles, start=1):
        ident = rec.permutation == tuple(range(n))
        if ident and val_period is None:
            val_period = c
        if ident and np.allclose(rec.phases, 1.0, atol=1e-3) \
                and vec_period is None:
            vec_period = c
    return CycleReport(cycles=cycles, encloses_ep=encloses,
                       eigenvalue_period=val_period,
                       eigenvector_period=vec_period, contour=contour)


def _carry(w, s, u):
    """Carry (w, s) onto the matched frame u: a Hermitian-unit frame with
    phase continuity and the branch-continuous square root of its
    unconjugated norms.  The analytically continued c-normalized frame is
    w / s, which picks up the half-winding factors of the norm branch."""
    new = u / np.linalg.norm(u, axis=0)
    s_new = np.empty_like(s)
    for k in range(new.shape[1]):
        z = np.vdot(new[:, k], w[:, k])
        new[:, k] = new[:, k] * (z / abs(z))
        cand = np.sqrt(new[:, k] @ new[:, k])
        s_new[k] = cand if abs(cand - s[k]) <= abs(cand + s[k]) else -cand
    return new, s_new


def _compare_to_start(init_w, init_s, cur_w, cur_s):
    perm, _ = _match(cur_w, init_w)   # perm[k]: start index matching current k
    phi0 = init_w / init_s
    phi1 = cur_w / cur_s
    phases = np.array([phi0[:, perm[k]] @ phi1[:, k]
                       for k in range(len(perm))])
    return perm, phases
