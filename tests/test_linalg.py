import importlib
import inspect
import itertools
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import nhspec
from nhspec import linalg
from nhspec.errors import NoConvergence, NotDefective

from conftest import random_complex_symmetric

T_DEFECTIVE = np.array([[1.0, 1j], [1j, -1.0]])


def c_normalized(h):
    return linalg.c_normalize(linalg.eig(linalg.as_matrix(h)))


class TestComplexMatrix:
    def test_symmetry_hint_validated(self):
        with pytest.raises(ValueError):
            linalg.ComplexMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]),
                                 linalg.COMPLEX_SYMMETRIC)

    def test_hermitian_hint_validated(self):
        with pytest.raises(ValueError):
            linalg.ComplexMatrix(np.array([[0.0, 1j], [1j, 0.0]]),
                                 linalg.HERMITIAN)

    def test_as_matrix_detects_symmetry(self):
        m = linalg.as_matrix(T_DEFECTIVE)
        assert m.symmetry_hint == linalg.COMPLEX_SYMMETRIC

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.ComplexMatrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_non_square_as_the_constructor_does(self):
        with pytest.raises(ValueError, match="square matrix with n >= 1"):
            linalg.as_matrix(np.zeros((2, 3)))


def handwritten_rejects(a, hint):
    """The checks ComplexMatrix made by hand before linalg.invalid: True for
    a non-finite entry, or a symmetry hint broken by more than
    _SYMMETRY_TOL * max(max |a|, 1)."""
    if not np.all(np.isfinite(a.view(float))):
        return True
    scale = max(np.abs(a).max(), 1.0)
    if hint == linalg.COMPLEX_SYMMETRIC:
        return bool(np.abs(a - a.T).max() > linalg._SYMMETRY_TOL * scale)
    if hint == linalg.HERMITIAN:
        return bool(np.abs(a - a.conj().T).max() > linalg._SYMMETRY_TOL * scale)
    return False


HINTS = (linalg.GENERAL, linalg.COMPLEX_SYMMETRIC, linalg.HERMITIAN)


@st.composite
def hinted_stacks(draw):
    """A (T, n, n) stack of symmetric, Hermitian, real symmetric or general
    frames, some perturbed off symmetry by 0.5 or 2 times the tolerance or
    holding a NaN or infinite entry, with one hint per frame."""
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames = []
    for _ in range(t):
        x = draw(st.sampled_from([0.1, 100.0])) * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x = {"symmetric": x + x.T, "hermitian": x + x.conj().T,
             "real": (x + x.T).real + 0j, "general": x}[draw(st.sampled_from(
                 ["symmetric", "hermitian", "real", "general"]))]
        if n > 1:
            i, j = rng.choice(n, 2, replace=False)
            x[i, j] += draw(st.sampled_from([0.0, 0.5, 2.0])) \
                * linalg._SYMMETRY_TOL * max(np.abs(x).max(), 1.0)
        if draw(st.integers(0, 3)) == 0:
            x[rng.integers(n), rng.integers(n)] = draw(st.sampled_from(
                [np.nan, np.inf, -np.inf, complex(0.0, np.inf)]))
        frames.append(x)
    hints = draw(st.lists(st.sampled_from(HINTS), min_size=t, max_size=t))
    return np.array(frames), hints


class TestInvalid:
    @given(case=hinted_stacks())
    def test_matches_the_constructor_checks(self, case):
        stack, hints = case
        oracle = [handwritten_rejects(a, h) for a, h in zip(stack, hints)]
        for hint in HINTS:      # one hint for the whole stack
            assert linalg.invalid(stack, hint).tolist() == [
                handwritten_rejects(a, hint) for a in stack]
        for a, hint, bad in zip(stack, hints, oracle):
            assert bool(linalg.invalid(a, hint)) == bad
            if bad:
                with pytest.raises(ValueError):
                    linalg.ComplexMatrix(a, hint)
            else:
                assert linalg.ComplexMatrix(a, hint).symmetry_hint == hint

    def test_only_invalid_reads_the_tolerance(self):
        # one place decides symmetry: no other module, and no other
        # function of linalg, compares against _SYMMETRY_TOL
        src = Path(linalg.__file__).parent
        for path in src.glob("*.py"):
            if path.name != "linalg.py":
                assert "_SYMMETRY_TOL" not in path.read_text(), path.name
        body = inspect.getsource(linalg.invalid)
        rest = Path(linalg.__file__).read_text().replace(body, "")
        assert [line for line in rest.splitlines()
                if "_SYMMETRY_TOL" in line] == ["_SYMMETRY_TOL = 1e-12"]


class TestEig:
    def test_defective_canonical(self):
        # [[1, i], [i, -1]] has a double eigenvalue 0
        sys = linalg.eig(linalg.as_matrix(T_DEFECTIVE))
        assert np.abs(sys.values).max() < 1e-8

    def test_diagonal(self):
        sys = linalg.eig(linalg.as_matrix(np.diag([1.0, 2.0])))
        assert np.allclose(sys.values, [1.0, 2.0])
        assert np.allclose(np.abs(sys.right_vectors), np.eye(2))

    def test_charpoly_root_oracle(self, rng):
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sys = linalg.eig(linalg.as_matrix(h))
        roots = np.sort_complex(np.roots(np.poly(h)))
        assert np.allclose(np.sort_complex(sys.values), roots, atol=1e-8)

    def test_values_sorted(self, rng):
        h = random_complex_symmetric(rng, 6)
        sys = linalg.eig(linalg.as_matrix(h))
        key = np.lexsort((sys.values.imag, sys.values.real))
        assert (key == np.arange(6)).all()

    def test_left_right_biorthonormal_general(self, rng):
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sys = linalg.eig(linalg.as_matrix(h))
        assert np.abs(sys.left_vectors @ sys.right_vectors
                      - np.eye(5)).max() < 1e-10

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           symmetric=st.booleans())
    def test_left_right_biorthonormal(self, seed, n, symmetric):
        rng = np.random.default_rng(seed)
        h = random_complex_symmetric(rng, n) if symmetric else \
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sys = linalg.eig(linalg.as_matrix(h))
        # away from a coalescence: no eigenvalue condition number above 1e3
        x = sys.right_vectors / np.linalg.norm(sys.right_vectors, axis=0)
        y = np.linalg.inv(x)
        assume(np.linalg.norm(y, axis=1).max() <= 1e3)
        assert not sys.ep_flag.any()
        assert np.abs(sys.left_vectors @ sys.right_vectors
                      - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("h,flags", [
        ([[0, 1], [0, 0]], [True, True]),
        ([[1, 1], [0, 1]], [True, True]),
        ([[2, 1, 0], [0, 2, 0], [0, 0, 5]], [True, True, False])])
    def test_general_coalescence_flags(self, monkeypatch, h, flags):
        # left vectors come from the same decomposition as the right ones:
        # one LAPACK call, and no overflow warning where inv(x) blows up
        calls = []

        def counted(a):
            calls.append(a)
            return eig_lapack(a)

        eig_lapack = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = linalg.eig(np.array(h, dtype=float))
        assert sys.matrix.symmetry_hint == linalg.GENERAL
        assert sys.ep_flag.tolist() == flags
        assert len(calls) == 1

    def test_singular_right_vectors_flag_every_pair(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        sys = linalg.eig(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert sys.ep_flag.tolist() == [True, True]

    def test_trace_identity_bulk(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            h = random_complex_symmetric(rng, n)
            sys = linalg.eig(linalg.as_matrix(h))
            scale = max(np.abs(h).max(), 1.0)
            assert abs(sys.values.sum() - np.trace(h)) < 1e-9 * n * scale

    def test_residual_bound(self, rng):
        h = random_complex_symmetric(rng, 7)
        sys = linalg.eig(linalg.as_matrix(h))
        res = h @ sys.right_vectors - sys.right_vectors * sys.values
        assert np.abs(res).max() < 1e-9 * np.linalg.norm(h)


class TestEigStack:
    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(NoConvergence, match="did not converge"):
            linalg.eig_stack(np.eye(2, dtype=complex)[None],
                             np.array([False]))


TWO_BY_TWO_KINDS = ("general", "complex_symmetric", "hermitian", "near_ep",
                    "rounded_ep", "exact_ep", "jordan", "scalar")


@st.composite
def two_by_two_stacks(draw):
    """A (T, 2, 2) stack of frames of the kinds above, one kind per frame,
    scaled by 1, 2**+-997 (exactly) or 1e+-300 (rounded): entries near
    1e+-300.  An exact EP is [[m + h, s h], [-h / s, m - h]] with m, h in
    eighths and s a power of 2 times a unit, so that a - d and
    ((a - d)/2)^2 + bc = 0 hold in floating point; a near EP moves its c by
    a relative 1e-12 or 1e-8, and a rounded EP is a general a, b, d with
    c = -((a - d)/2)^2 / b in floating point.  Also each frame's kind and
    whether its scaling kept it exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames, kinds, exact = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(TWO_BY_TWO_KINDS))
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if kind == "complex_symmetric":
            c = b
        elif kind == "hermitian":
            a, d, c = a.real, d.real, b.conjugate()
        elif kind in ("near_ep", "exact_ep"):
            m, h = (complex(*rng.integers(-16, 17, 2)) / 8 for _ in range(2))
            h = h or 1.0
            s = 2.0 ** rng.integers(-3, 4) * 1j ** rng.integers(4)
            a, b, c, d = m + h, s * h, -h / s, m - h
            if kind == "near_ep":
                c *= 1.0 + draw(st.sampled_from([1e-12, 1e-8]))
        elif kind == "rounded_ep":
            c = -((a - d) / 2) ** 2 / b
        elif kind == "jordan":
            b, d = 0.0, a
        elif kind == "scalar":
            b, c, d = 0.0, 0.0, a
        scale = draw(st.sampled_from([1.0, 2.0 ** 997, 2.0 ** -997, 1e300,
                                      1e-300]))
        frames.append(scale * np.array([[a, b], [c, d]], complex))
        kinds.append(kind)
        exact.append(np.frexp(scale)[0] == 0.5)
    return np.array(frames), kinds, exact


def exact_eigenvalues(m):
    """(a + d)/2 +/- sqrt(((a - d)/2)^2 + bc) of the floats of m, at 40
    digits (the products of doubles are exact there)."""
    with mpmath.workdps(40):
        (a, b), (c, d) = ([mpmath.mpc(complex(x)) for x in row] for row in m)
        r = mpmath.sqrt(((a - d) / 2) ** 2 + b * c)
        return [(a + d) / 2 + r, (a + d) / 2 - r]


def eigenvalue_error(w, exact):
    """The largest distance of the pair w from the exact pair, matched in
    the better of the two orders."""
    return min(float(max(abs(mpmath.mpc(complex(z)) - e)
                         for z, e in zip(w, order)))
               for order in (exact, exact[::-1]))


class TestEig2Stack:
    @given(case=two_by_two_stacks())
    @example(case=(np.array([T_DEFECTIVE, np.eye(2) * 3.0]),
                   ["exact_ep", "scalar"], [True, True]))
    # within 1 ulp of the exact pair only with the Newton step on r
    @example(case=(np.array([[[1.33, 0.902 - 1.579j],
                              [0.902 + 1.579j, -1.001]]]), ["hermitian"],
                   [True]))
    def test_closed_form(self, case):
        stack, kinds, exact = case
        hermitian = np.array([k == "hermitian" for k in kinds])
        peaks, w, v = linalg.eig2_stack(stack)
        lapack, _ = linalg.eig_stack(stack, hermitian)
        eps = np.finfo(float).eps
        assert np.array_equal(peaks, np.abs(stack).max(axis=(1, 2)))
        for t, (m, kind) in enumerate(zip(stack, kinds)):
            # as close to the exact pair as LAPACK, or within 1 ulp of the
            # largest entry
            ref = exact_eigenvalues(m)
            assert eigenvalue_error(w[t], ref) <= max(
                2 * eigenvalue_error(lapack[t], ref), np.spacing(peaks[t]))
            assert np.abs(m @ v[t] - v[t] * w[t]).max() <= 4 * eps * peaks[t]
            assert np.abs(np.linalg.norm(v[t], axis=0) - 1).max() <= 2 * eps
            if kind in ("exact_ep", "jordan") and exact[t]:
                assert w[t, 0] == w[t, 1]
                assert np.array_equal(v[t][:, 0], v[t][:, 1])
            if kind == "scalar":
                assert abs(np.linalg.det(v[t])) == 1.0
            if kind == "hermitian":
                assert (w[t].imag == 0.0).all()

    def test_non_finite_entry_refused_as_lapack_does(self):
        stack = np.array([np.eye(2), [[1.0, np.inf], [0.0, 1.0]]], complex)
        with pytest.raises(NoConvergence) as closed:
            linalg.eig2_stack(stack)
        with pytest.raises(NoConvergence) as lapack:
            linalg.eig_stack(stack, np.zeros(2, bool))
        assert str(closed.value) == str(lapack.value) == (
            "eigensolver failed: Array must not contain infs or NaNs")

    def test_entries_near_the_float_range_are_scaled(self):
        # |1e308 (1 + i)| overflows, the eigenvalues do not; no warning
        m = 1e308 * np.array([[1 + 1j, 0.5], [0.5, -1 - 1j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w, v = linalg.eig2_stack(m[None])
        ref = exact_eigenvalues(m)
        assert eigenvalue_error(w[0], ref) <= np.spacing(1e308)
        assert np.isfinite(v).all()


@st.composite
def score_matrices(draw):
    n = draw(st.integers(2, 8))
    return draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0)))


class TestAssign:
    @given(score_matrices())
    @example(score=np.array([[1.0, 5e-324, 0.0], [1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0]]))
    def test_matches_hungarian_optimum(self, score):
        n = len(score)
        cols = linalg._assign(score)
        assert sorted(cols.tolist()) == list(range(n))
        rows, ref = linear_sum_assignment(-score)
        best = score[rows, ref].sum()
        assert score[np.arange(n), cols].sum() == pytest.approx(best, rel=1e-12)
        row_max = score.max(axis=1, keepdims=True)
        argmax = score.argmax(axis=1)
        if ((score == row_max).sum(axis=1) == 1).all() \
                and len(set(argmax.tolist())) == n:
            # each row's unique maximum in a column of its own: the one
            # exact optimum, whatever rounding does to the sums
            assert cols.tolist() == argmax.tolist()
        # unique row maxima that share a column do not make the optimum
        # unique (above, any row may take column 0 at a sum of 1 + 5e-324
        # or 1); scipy's choice is the answer only where no other
        # assignment comes within rounding of the optimum
        perms = np.array(list(itertools.permutations(range(n))))
        if (score[np.arange(n), perms].sum(axis=1) >= best - 1e-12).sum() == 1:
            assert cols.tolist() == ref.tolist()

    def test_non_finite_scores_are_nonconvergence(self):
        # a numerical failure upstream, not an input error: exit 3
        score = np.array([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [1.0, 0.5, 0.0]])
        with pytest.raises(NoConvergence, match="finite"):
            linalg._assign(score)

    def test_distinct_row_maxima_are_kept(self):
        score = np.array([[0.1, 0.9, 0.0], [0.0, 0.2, 0.7], [0.8, 0.0, 0.3]])
        assert linalg._assign(score).tolist() == [1, 2, 0]

    def test_two_by_two_collision_takes_larger_sum(self):
        # both rows want column 0; the sums decide without scipy
        assert linalg._assign(np.array([[0.9, 0.2], [0.8, 0.6]])).tolist() \
            == [0, 1]
        assert linalg._assign(np.array([[0.9, 0.8], [0.7, 0.1]])).tolist() \
            == [1, 0]

    def test_two_by_two_tie_goes_to_smaller_cost_then_identity(self):
        # overlaps on the step off the fixture's exact EP: the two sums
        # differ by one rounding (2.2e-16), which is a tie
        score = np.array([[0.9975216814438146, 0.9975216814438148],
                          [0.9975216814438146, 0.9975216814438147]])
        assert linalg._assign(score).tolist() == [0, 1]
        assert linalg._assign(score, np.zeros((2, 2))).tolist() == [0, 1]
        assert linalg._assign(score, np.eye(2)).tolist() == [1, 0]
        assert linalg._assign(score, 1.0 - np.eye(2)).tolist() == [0, 1]

    def test_larger_collision_moves_an_uncontested_row(self):
        # rows 0 and 1 want column 0; the optimum also moves row 2 off its
        # uncontested column 1
        score = np.array([[1.0, 0.0, 0.0], [0.9, 0.85, 0.0],
                          [0.0, 0.9, 0.89]])
        assert linalg._assign(score).tolist() == [0, 1, 2]

    def test_larger_collision_leaves_scipy_unloaded(self):
        score = np.random.default_rng(0).random((21, 21))
        score[:, 3] += 1.0
        script = ("import sys, numpy as np; from nhspec import linalg; "
                  f"s = np.array({score.tolist()!r}); "
                  "print(linalg._assign(s).tolist(), 'scipy' in sys.modules)")
        src = str(Path(linalg.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True).stdout
        cols = linear_sum_assignment(-score)[1].tolist()
        assert out.strip() == f"{cols} False"


class TestCNormalize:
    def test_cnorm_is_one(self, rng):
        h = random_complex_symmetric(rng, 5)
        sys = c_normalized(h)
        for k in range(5):
            v = sys.right_vectors[:, k]
            assert abs(v @ v - 1.0) < 1e-10

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8))
    def test_cnorm_is_one_away_from_coalescence(self, seed, n):
        h = random_complex_symmetric(np.random.default_rng(seed), n)
        sys = c_normalized(h)
        # away from a coalescence: every unit vector keeps a c-norm |u^T u|
        # (its phase rigidity) of at least 1e-3
        assume(sys.rigidity_r.min() >= 1e-3)
        u = sys.right_vectors
        assert np.abs(np.einsum("ik,ik->k", u, u) - 1.0).max() <= 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
           log_c=st.lists(st.floats(-16.0, 0.0), min_size=1, max_size=4))
    @example(seed=0, n=2, log_c=[-12.0])
    def test_entries_stay_below_the_inverse_root_of_defect_tol(self, seed, n,
                                                               log_c):
        # a column x + i y sqrt(1 - c) with x, y orthonormal has c-norm
        # about c: near 1e-12 the scale 1/sqrt(c) is largest, and below it
        # the column is flagged and left at unit norm.  No entry exceeds
        # 1/sqrt(DEFECT_TOL) = 1e6 (to rounding), far below B_CAP
        rng = np.random.default_rng(seed)
        cols = []
        for c in 10.0 ** np.array(log_c):
            x, y = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
            cols.append(x + 1j * y * np.sqrt(1.0 - c))
        u, norms = linalg.c_columns(np.array(cols).T)
        bound = (1.0 + 8 * np.finfo(float).eps) / np.sqrt(linalg.DEFECT_TOL)
        assert np.abs(u).max() <= bound < linalg.B_CAP

    def test_hermitian_limit(self):
        sys = c_normalized(np.array([[1.0, 0.3], [0.3, -1.0]]))
        assert np.allclose(sys.norms_A, 1.0, atol=1e-12)
        assert np.allclose(sys.rigidity_r, 1.0, atol=1e-12)

    def test_A_ge_one_and_r_in_unit_interval(self, rng):
        for _ in range(50):
            h = random_complex_symmetric(rng, 4)
            sys = c_normalized(h)
            assert (sys.norms_A >= 1.0 - 1e-9).all()
            assert (sys.rigidity_r >= -1e-12).all()
            assert (sys.rigidity_r <= 1.0 + 1e-12).all()
            assert np.allclose(sys.rigidity_r, 1.0 / sys.norms_A, atol=1e-12)

    def test_near_ep_divergence(self):
        # eigenvalue gap 1e-3 of the model scale away from the EP
        z = twolevel_gap_point(1e-3)
        sys = c_normalized(z)
        assert sys.norms_A.max() > 1e2
        assert sys.rigidity_r.min() < 1e-2

    def test_closed_form_A_oracle(self):
        eps1, eps2, omega = 1 - 0.5j, 2 - 0.1j, 0.3
        h = np.array([[eps1, omega], [omega, eps2]])
        sys = c_normalized(h)
        # closed-form eigenvectors (omega, eps - eps1), c-normalized
        for k, eps in enumerate(sys.values):
            v = np.array([omega, eps - eps1])
            a_oracle = (np.vdot(v, v) / abs(v @ v)).real
            assert abs(sys.norms_A[k] - a_oracle) < 1e-10

    def test_idempotent(self, rng):
        h = random_complex_symmetric(rng, 4)
        sys = c_normalized(h)
        twice = linalg.c_normalize(sys)
        assert np.abs(twice.right_vectors - sys.right_vectors).max() < 1e-12

    def test_overlap_B_antisymmetric_two_level(self, rng):
        # exact antisymmetry B_kl = -B_lk is a two-level identity
        for _ in range(50):
            h = random_complex_symmetric(rng, 2)
            sys = c_normalized(h)
            b01 = linalg.overlap_B(sys, 0, 1)
            b10 = linalg.overlap_B(sys, 1, 0)
            assert abs(b01 + b10) < 1e-9

    def test_overlap_B_hermitian(self, rng):
        # biorthogonality only forces B_lk = conj(B_kl) beyond n = 2
        for _ in range(20):
            h = random_complex_symmetric(rng, 5)
            sys = c_normalized(h)
            for k in range(5):
                for l in range(k + 1, 5):
                    b_kl = linalg.overlap_B(sys, k, l)
                    b_lk = linalg.overlap_B(sys, l, k)
                    assert abs(b_kl - np.conj(b_lk)) < 1e-9

    def test_ep_flagged(self):
        sys = c_normalized(T_DEFECTIVE)
        assert sys.ep_flag.any()


def per_column_c_columns(vr):
    """c_columns one column at a time, as it once was: the reference."""
    vr = vr.copy()
    norms = np.full(vr.shape[1], np.inf)
    for k in range(len(norms)):
        v = vr[:, k] / np.linalg.norm(vr[:, k])
        c = v @ v
        if abs(c) < linalg.DEFECT_TOL:
            vr[:, k] = v
            continue
        u = v / np.sqrt(c)
        ph = np.angle(u[np.argmax(np.abs(u))])
        vr[:, k] = u if 0.0 <= ph < np.pi else -u
        norms[k] = (vr[:, k].conj() @ vr[:, k]).real
    return vr, norms


class TestCColumns:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           k=st.integers(1, 8), spread=st.sampled_from([0.0, 1e-3, 1.0]),
           fortran=st.booleans())
    def test_matches_per_column_loop(self, seed, n, k, spread, fortran):
        # spread 0: each column a real vector times a phase (A = 1, the
        # sign of +-u set by rounding); 1: generic complex columns
        rng = np.random.default_rng(seed)
        vr = (rng.standard_normal((n, k)) + 1j * spread
              * rng.standard_normal((n, k))) * np.exp(
                  1j * rng.uniform(0.0, 2 * np.pi, k))
        vr = np.asfortranarray(vr) if fortran else np.ascontiguousarray(vr)
        u, norms = linalg.c_columns(vr)
        ref, ref_norms = per_column_c_columns(vr)
        assert u.flags.c_contiguous and not np.shares_memory(u, vr)
        eps = np.finfo(float).eps
        for j in range(k):
            # 4 ulp of the column, times A: the c-norm c = u^T u of a unit
            # vector is 1/A, and dividing by sqrt(c) scales its rounding
            tol = 4 * eps * ref_norms[j] * np.abs(ref[:, j]).max()
            same = np.abs(u[:, j] - ref[:, j]).max()
            assert min(same, np.abs(u[:, j] + ref[:, j]).max()) <= tol
            top = np.sort(np.abs(ref[:, j]))[::-1]
            ph = np.angle(ref[np.argmax(np.abs(ref[:, j])), j])
            if min(abs(ph), np.pi - abs(ph)) > 1e-12 * ref_norms[j] and (
                    n == 1 or top[1] < (1 - 1e-12) * top[0]):
                assert same <= tol      # the sign is not a rounding choice
            assert abs(norms[j] - ref_norms[j]) <= 8 * eps * ref_norms[j] ** 2
            # a column alone gives the same bits as in the batch
            one, one_norm = linalg.c_columns(vr[:, [j]])
            assert one[:, 0].tobytes() == u[:, j].tobytes()
            assert one_norm[0] == norms[j]

    def test_vanishing_column(self):
        # [1, i]^T [1, i] = 0: left at unit norm, A = inf; the other column
        # is normalized as usual
        vr = np.array([[1.0, 2.0], [1j, 0.5j]])
        u, norms = linalg.c_columns(vr)
        ref, ref_norms = per_column_c_columns(vr)
        assert u[:, 0].tobytes() == (vr[:, 0] / np.sqrt(2.0)).tobytes()
        assert norms[0] == ref_norms[0] == np.inf
        assert np.abs(u[:, 1] - ref[:, 1]).max() <= 4 * np.finfo(float).eps
        assert abs(u[:, 1] @ u[:, 1] - 1.0) <= 1e-15


class TestCoalescenceError:
    def test_normal_pair_is_its_gap(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        eta = linalg.coalescence_error(
            rot @ np.diag([0.5, 0.5 + 2e-6]) @ rot.T)
        assert abs(eta - 2e-6) < 1e-12

    def test_near_defective_pair_is_its_distance(self):
        # [[0, 1], [d, 0]] is d from the Jordan block; the gap is 2 sqrt(d)
        d = 1e-12
        eta = linalg.coalescence_error(np.array([[0.0, 1.0], [d, 0.0]]))
        assert d <= eta <= 4.0 * d * (1 + 1e-6)


def triu_closest_pair(w):
    """The closest pair as an argmin over np.triu_indices: the reference."""
    i, j = np.triu_indices(len(w), 1)
    k = np.argmin(np.abs(w[i] - w[j]))
    return int(i[k]), int(j[k])


class TestClosestPair:
    @pytest.mark.parametrize("w, pair", [
        # every pair 1 apart: the first in triu order
        (np.array([0.0, 1.0, 2.0, 3.0]) + 0j, (0, 1)),
        ([2.0, 0.0, 1.0], (0, 2)),
        ([5.0, 1.0, 3.0, 1.0, 3.0], (1, 3)),
        # every gap inf: still the first pair, never a masked one
        ([np.inf, 2.5e276], (0, 1)),
        ([0.0, np.inf, -np.inf], (0, 1)),
        # a NaN gap comes first, as numpy's argmin has it
        ([1.0, 1.0, np.nan], (0, 2)),
    ])
    def test_ties_take_the_first_pair_in_triu_order(self, w, pair):
        w = np.asarray(w, complex)
        assert tuple(map(int, linalg.closest_pair(w))) == pair
        assert triu_closest_pair(w) == pair

    @given(w=st.lists(st.complex_numbers(max_magnitude=1e3),
                      min_size=2, max_size=12),
           snap=st.booleans())
    def test_matches_the_triu_form(self, w, snap):
        w = np.array(w, complex)
        if snap:                # exact ties between many pairs
            w = np.round(w.real) + 1j * np.round(w.imag)
        assert tuple(map(int, linalg.closest_pair(w))) == \
            triu_closest_pair(w)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_values_have_no_pair(self, n):
        with pytest.raises(ValueError, match=f"among {n} eigenvalue"):
            linalg.closest_pair(np.zeros(n, complex))


class TestJordanChain:
    def test_canonical_chain(self):
        phi, phia = linalg.jordan_chain(linalg.as_matrix(T_DEFECTIVE), 0.0)
        assert np.linalg.norm(T_DEFECTIVE @ phi) < 1e-12
        assert np.linalg.norm(T_DEFECTIVE @ phia - phi) < 1e-12

    def test_diagonal_degenerate_not_defective(self):
        with pytest.raises(NotDefective):
            linalg.jordan_chain(linalg.as_matrix(np.zeros((2, 2))), 0.0)

    def test_constructed_ep_chain(self):
        eps1, eps2 = 0.3 - 0.2j, -0.1 - 0.7j
        omega = 0.5j * (eps1 - eps2)
        h = np.array([[eps1, omega], [omega, eps2]])
        z0 = 0.5 * (eps1 + eps2)
        phi, phia = linalg.jordan_chain(linalg.as_matrix(h), z0)
        assert np.linalg.norm((h - z0 * np.eye(2)) @ phi) < 1e-8
        assert np.linalg.norm((h - z0 * np.eye(2)) @ phia - phi) < 1e-8

    def test_associated_vector_minimal(self):
        phi, phia = linalg.jordan_chain(linalg.as_matrix(T_DEFECTIVE), 0.0)
        assert abs(np.vdot(phi, phia)) < 1e-10


def twolevel_gap_point(gap):
    """Canonical model tuned so the eigenvalue gap equals gap."""
    z = 0.5 * gap
    omega = 1j * np.sqrt(1.0 - z * z)
    return np.array([[1.0, omega], [omega, -1.0]])


class TestHypothesisDraws:
    def test_local_constant_pool_is_empty(self):
        # conftest empties the pool of src/ literals hypothesis draws from,
        # so a constant changed in the library redraws no property test
        providers = pytest.importorskip(
            "hypothesis.internal.conjecture.providers")
        if not hasattr(providers, "_get_local_constants"):
            pytest.skip("this hypothesis draws no local constants")
        for info in pkgutil.iter_modules(nhspec.__path__):
            importlib.import_module(f"nhspec.{info.name}")
        assert len(providers._get_local_constants()) == 0
