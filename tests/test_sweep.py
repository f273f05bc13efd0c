import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from nhspec import linalg, opensys, sweep, twolevel
from nhspec.errors import (MatchingAmbiguous, NhspecError, NoConvergence,
                           SaddleRejected)

AC_KW = dict(e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0)


def canonical_model(omega=0.5j):
    return twolevel.TwoLevelModel(eps1=1.0, eps2=-1.0, omega=omega)


class TestSpecValidation:
    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            sweep.SweepSpec(model=canonical_model(), parameter="omega_im",
                            start=0.0, stop=1.0, steps=1)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            sweep.SweepSpec(model=canonical_model(), parameter="omega_im",
                            start=1.0, stop=1.0, steps=10)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            fam = sweep.make_family(canonical_model(), "no_such_field")
            fam(0.3)


class TestSweep:
    def run_through_ep(self):
        spec = sweep.SweepSpec(model=canonical_model(), parameter="omega_im",
                               start=0.5, stop=1.5, steps=101)
        return sweep.sweep(spec)

    def test_rows_cover_grid(self):
        res = self.run_through_ep()
        params = [r.param for r in res.rows]
        assert params[0] == 0.5 and params[-1] == 1.5
        assert all(b > a for a, b in zip(params, params[1:]))

    def test_rigidity_collapses_at_ep(self):
        res = self.run_through_ep()
        r_min = min(r.rigidity_r.min() for r in res.rows)
        assert r_min < 0.1
        # away from the coalescence the states stay well separated
        assert res.rows[0].rigidity_r.min() > 0.5

    def test_ep_candidate_event(self):
        res = self.run_through_ep()
        eps = [e for e in res.events if e.kind == "ep_candidate"]
        assert len(eps) == 1
        assert abs(eps[0].param - 1.0) < 0.02

    def test_energy_crossing_at_ep(self):
        res = self.run_through_ep()
        cross = [e for e in res.events if e.kind == "energy_crossing"]
        assert len(cross) >= 1
        assert all(abs(e.param - 1.0) < 0.02 for e in cross)

    def test_continuation_labels_are_smooth(self):
        res = self.run_through_ep()
        zs = np.array([r.values for r in res.rows])
        jumps = np.abs(np.diff(zs, axis=0)).max(axis=1)
        assert jumps.max() < 0.3

    def test_discrete_regime_single_avoided_crossing(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.0, gamma2_0=0.0,
                                          omega=0.3, **AC_KW)
        spec = sweep.SweepSpec(model=m, parameter="a", start=0.0, stop=2.0,
                               steps=81)
        res = sweep.sweep(spec)
        avoided = [e for e in res.events if e.kind == "avoided_crossing"]
        assert len(avoided) == 1
        assert abs(avoided[0].param - 1.0) < 0.05
        # identically vanishing width difference is one event, not many
        widths = [e for e in res.events if e.kind == "width_crossing"]
        assert len(widths) == 1 and widths[0].param == 0.0

    def test_decoupled_levels_cross_freely(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.0, gamma2_0=0.0,
                                          omega=0.0, **AC_KW)
        spec = sweep.SweepSpec(model=m, parameter="a", start=0.0, stop=2.0,
                               steps=81)
        res = sweep.sweep(spec)
        cross = [e for e in res.events if e.kind == "energy_crossing"]
        assert len(cross) == 1
        assert abs(cross[0].param - 1.0) < 0.05

    def test_coarse_grid_is_refined(self):
        # three points are too coarse for 16 levels: steps get bisected
        rng = np.random.default_rng(1)
        a, b = [0.5 * (m + m.T) for m in
                (rng.standard_normal((16, 16))
                 + 1j * rng.standard_normal((16, 16)) for _ in range(2))]
        fam = sweep.MatrixFamily(fn=lambda t: a + t * b)
        res = sweep.sweep(sweep.SweepSpec(fam, "t", 0.0, 1.0, 3))
        params = [r.param for r in res.rows]
        assert set(np.linspace(0.0, 1.0, 3)) <= set(params)
        assert all(q > p for p, q in zip(params, params[1:]))
        assert len(res.rows) > 3
        scale = np.abs(a).max() + np.abs(b).max()
        for r in res.rows:
            ref = np.linalg.eigvals(a + r.param * b)
            cost = np.abs(r.values[:, None] - ref[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-10 * scale

    def test_one_level_family_has_no_pair_gap(self):
        fam = sweep.MatrixFamily(fn=lambda t: np.array([[t + 0.5j]]))
        res = sweep.sweep(sweep.SweepSpec(fam, "t", 0.0, 1.0, 5))
        assert [r.min_gap for r in res.rows] == [np.inf] * 5
        assert res.events == []

    def test_discontinuous_family_is_ambiguous(self):
        # every eigenvector of H D H^T overlaps every unit vector by 8^-1/2
        h = np.array([[1.0]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        h /= np.sqrt(8.0)
        d = np.diag(np.arange(8.0))
        fam = sweep.MatrixFamily(fn=lambda t: d if t < 0.5 else h @ d @ h.T)
        with pytest.raises(MatchingAmbiguous) as info:
            sweep.sweep(sweep.SweepSpec(fam, "t", 0.0, 1.0, 11))
        assert abs(info.value.best_overlap - 8 ** -0.5) < 1e-6


class TestEpCertificate:
    """ep_candidate fires where the backward error of a coalescence,
    gap max(r_i, r_j) / max(peak, 1), is at most EP_BACKWARD_TOL."""

    @settings(max_examples=30)
    @given(eps1=st.complex_numbers(max_magnitude=3.0),
           eps2=st.complex_numbers(max_magnitude=3.0),
           steps=st.integers(2, 60))
    def test_fires_at_an_ep_on_the_grid(self, eps1, eps2, steps):
        # the EP omega = i (eps1 - eps2) / 2 starts an omega_re path; the
        # other one, at -omega, is off it
        d = eps1 - eps2
        assume(abs(d.real) >= 0.1)
        model = twolevel.TwoLevelModel(eps1, eps2, complex(0.0, d.real / 2))
        start = -d.imag / 2
        res = sweep.sweep(sweep.SweepSpec(model, "omega_re", start,
                                          start + 1.0, steps))
        assert [e.param for e in res.events if e.kind == "ep_candidate"] \
            == [start]

    @settings(max_examples=30)
    @given(e1=st.floats(-3.0, 3.0), e2=st.floats(-3.0, 3.0),
           omega=st.floats(-3.0, 3.0), steps=st.integers(2, 60))
    def test_never_fires_on_hermitian_paths(self, e1, e2, omega, steps):
        assume(abs(e1 - e2) >= 0.1)
        model = twolevel.TwoLevelModel(e1, e2, omega)
        res = sweep.sweep(sweep.SweepSpec(model, "omega_re", -3.0, 3.0,
                                          steps))
        assert all(e.kind != "ep_candidate" for e in res.events)

    def test_fires_off_an_exact_hit(self):
        # gap 2.1e-8 and r 2.0e-8 at the row nearest the EP (-0.15, 0.5):
        # eta 4.3e-16 there, 4.0e-3 on the rows beside it
        model = twolevel.TwoLevelModel(0.7 + 0.1j, -0.3 - 0.2j, 0.5j)
        res = sweep.sweep(sweep.SweepSpec(model, "omega_re", -1.0, 1.0,
                                          2001))
        assert [e.param for e in res.events if e.kind == "ep_candidate"] \
            == [-0.15000000000000002]

    def test_general_family_is_not_certified(self):
        # a Jordan block at t = 0: |u^T u| of a general matrix is not the
        # left-right overlap, so no certificate is read from it
        fam = sweep.MatrixFamily(fn=lambda t: np.array([[0.0, 1.0],
                                                        [t, 0.0]]))
        res = sweep.sweep(sweep.SweepSpec(fam, "t", 0.0, 1.0, 5))
        assert all(e.kind != "ep_candidate" for e in res.events)


def crossings_oracle(gap, tol):
    """Reference form of _crossings: float sign products, int64 counts."""
    zero = np.abs(gap) <= tol
    count = sweep._first_of_runs(zero).astype(int)
    sgn = np.where(zero, 0.0, np.sign(gap))
    flip = sgn[:-1] * sgn[1:] < 0.0
    left = np.abs(gap[:-1]) <= np.abs(gap[1:])
    count[:-1] += flip & left
    count[1:] += flip & ~left
    return count


class TestCrossings:
    @settings(max_examples=200)
    @given(data=st.data(), t=st.integers(1, 40), p=st.integers(1, 4),
           tol=st.sampled_from([0.0, 1e-12, 1e-3, 0.5]))
    def test_counts_match_the_oracle(self, data, t, p, tol):
        # exact zeros, runs within tol of zero and sign changes of both sizes
        cell = st.one_of(st.sampled_from([0.0, -0.0, tol, -tol]),
                         st.floats(-tol, tol),
                         st.floats(-1e3, 1e3, allow_subnormal=False))
        gap = np.array(data.draw(st.lists(cell, min_size=t * p,
                                          max_size=t * p))).reshape(t, p)
        got = sweep._crossings(gap, tol)
        assert np.array_equal(got, crossings_oracle(gap, tol))

    def test_random_gaps_with_zero_runs(self):
        rng = np.random.default_rng(5)
        gap = rng.standard_normal((201, 96))
        gap[rng.random(gap.shape) < 0.05] = 0.0
        gap[40:60, :10] = 1e-9 * rng.standard_normal((20, 10))
        got = sweep._crossings(gap, 1e-8)
        assert got.max() == 2
        assert np.array_equal(got, crossings_oracle(gap, 1e-8))


class TestLocateEp:
    def test_canonical_seed(self):
        loc = sweep.locate_ep(canonical_model(0.1 + 0.8j), seed=(0.1, 0.8),
                              p1="omega_re", p2="omega_im")
        assert abs(loc.p1) < 1e-8 and abs(loc.p2 - 1.0) < 1e-8
        assert loc.gap < 1e-10
        assert abs(loc.z0) < 1e-8

    def test_other_branch(self):
        loc = sweep.locate_ep(canonical_model(-0.1 - 0.8j), seed=(-0.1, -0.8),
                              p1="omega_re", p2="omega_im")
        assert abs(loc.p2 + 1.0) < 1e-8

    def test_reseeding_at_solution_is_stable(self):
        loc = sweep.locate_ep(canonical_model(0.1 + 0.8j), seed=(0.1, 0.8),
                              p1="omega_re", p2="omega_im")
        again = sweep.locate_ep(canonical_model(), seed=(loc.p1, loc.p2),
                                p1="omega_re", p2="omega_im")
        assert abs(again.p1 - loc.p1) < 1e-10
        assert abs(again.p2 - loc.p2) < 1e-10

    def test_hermitian_family_rejected(self):
        # real symmetric with fixed nonzero coupling: gap >= 2 |omega| > 0
        model = twolevel.TwoLevelModel(eps1=1.0, eps2=-1.0, omega=0.3)
        with pytest.raises((NoConvergence, SaddleRejected)):
            sweep.locate_ep(model, seed=(0.5, -0.5), p1="eps1_re",
                            p2="eps2_re")

    def test_plane_overflow_is_no_convergence(self):
        # every input finite, but e1 = 1e308 + a is inf at the seed: the
        # eigensolver refuses the plane, a numerical failure naming the
        # point rather than numpy's ValueError, with no warning
        model = twolevel.AvoidedCrossingModel(
            e1_0=1e308, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, gamma1_0=0.0,
            gamma2_0=0.0, omega=0.3)
        with pytest.raises(NoConvergence, match="eigensolver failed at "
                           r"\(1e\+308, 0.1\)") as exc:
            sweep.locate_ep(model, seed=(1e308, 0.1), p1="a", p2="omega_re")
        assert exc.value.point == (1e308, 0.1)

    def test_normal_near_crossing_is_not_certified(self):
        # a normal pair whose gap bottoms out at 2e-6: |F| falls to 4e-12
        # there, but the pair is 1e-6 from coinciding, not 1e-12
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        fam = sweep.PlaneFamily(fn=lambda p1, p2: rot @ np.diag(
            [0.5, 0.5 + 2e-6 + p1 ** 2 + 1j * p2 ** 2]) @ rot.T)
        with pytest.raises(SaddleRejected) as info:
            sweep.locate_ep(fam, seed=(0.1, 0.2))
        assert info.value.residual > 1.9e-6

    def test_equal_energies_fall_back_from_closed_form(self):
        # eps1 == eps2 has no closed-form locus (DegenerateInput); the search
        # still finds the level crossing at omega = 0
        model = twolevel.TwoLevelModel(eps1=0.5 + 0.1j, eps2=0.5 + 0.1j,
                                       omega=0.3)
        assert sweep._closed_form_polish(model, ("omega_re", "omega_im"),
                                         np.zeros(2)) is None
        loc = sweep.locate_ep(model, seed=(0.1, 0.2), p1="omega_re",
                              p2="omega_im")
        assert abs(complex(loc.p1, loc.p2)) < 1e-12
        assert abs(loc.z0 - (0.5 + 0.1j)) < 1e-12
        assert loc.gap < 1e-10

    def test_crossing_without_coalescence_in_few_eigensolves(self,
                                                            monkeypatch):
        # eps1 == eps2: the gap is linear in |omega|, so F = (z_i - z_j)^2
        # has a double root at omega = 0 where plain Newton only halves
        # its step; the doubled step takes it there in a few iterations
        # (five iterations: the seed, five stacked Jacobians of four points
        # and four line-search trials, 25 matrices in 10 calls)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(len(a)) or eigvals(a))
        model = twolevel.TwoLevelModel(eps1=0.5 + 0.1j, eps2=0.5 + 0.1j,
                                       omega=0.3)
        loc = sweep.locate_ep(model, seed=(0.3, 0.0), p1="omega_re",
                              p2="omega_im")
        assert abs(complex(loc.p1, loc.p2)) < 1e-12
        assert len(calls) <= 10 and sum(calls) <= 25

    def test_generic_family_without_closed_form(self):
        # embedded two-level block with a spectator level; the coalescence
        # sits at (p1, p2) = (0, 1) but no model shortcut applies
        def fn(p1, p2):
            w = complex(p1, p2)
            return np.array([[1.0, w, 0.0], [w, -1.0, 0.0], [0.0, 0.0, 5.0]])

        fam = sweep.PlaneFamily(fn=fn)
        loc = sweep.locate_ep(fam, seed=(0.15, 0.85))
        assert abs(loc.p1) < 1e-12 and abs(loc.p2 - 1.0) < 1e-12
        # the eigenvalue gap stays at the sqrt(eps) floor; the squared gap
        # certifies the point
        assert loc.backward_error <= 1e-14

    def test_plane_family_in_few_eigensolves(self, monkeypatch):
        # [[a, w], [w, b]] with w = p1 + i p2 coalesces at w = i (a - b)/2
        # = 0.05 + i (1 + 0.1 p1^2): at (p1, p2) = (0.05, 1.00025)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.array(
            [[1.0 + 0.2 * p1 ** 2, p1 + 1j * p2],
             [p1 + 1j * p2, -1.0 + 0.1j]]))
        loc = sweep.locate_ep(fam, seed=(0.05, 0.9))
        assert abs(complex(loc.p1, loc.p2) - complex(0.05, 1.00025)) < 1e-12
        assert loc.backward_error <= 1e-14
        # each Jacobian's four points in one stacked call: 25 matrices in 10
        assert len(calls) <= 10 and sum(calls) <= 25

    def test_a_with_overwritten_level_is_a_plane(self):
        # eps1_re overwrites the level that a moves, so a moves e2 alone and
        # the pencil takes a's exact slope in the (2, 2) entry only.  With
        # gamma2 - gamma1 = 4 omega the pair coalesces on the line
        # eps1_re = e2(a) = 1 - a
        model = twolevel.AvoidedCrossingModel(-1.0, 1.0, 1.0, -1.0,
                                              gamma1_0=0.0, gamma2_0=1.2,
                                              omega=0.3)
        paths = ("a", "eps1_re")
        a, (b1, b2), _ = sweep._affine(model, paths)
        assert same_bits(b1, np.diag([0.0, -1.0]))
        for p in [(0.0, 0.0), (0.3, -0.7), (1.7, 2.5), (-3.0, 0.1)]:
            rebuilt = sweep._set_path(sweep._set_path(model, "a", p[0]),
                                      "eps1_re", p[1]).matrix().entries
            assert np.abs(a + p[0] * b1 + p[1] * b2 - rebuilt).max() <= 1e-13
        loc = sweep.locate_ep(model, seed=(0.5, 0.5001), p1="a", p2="eps1_re")
        assert loc.backward_error <= 1e-10
        assert abs(loc.p2 - (1.0 - loc.p1)) <= 1e-12 * max(abs(loc.p1), 1.0)

    @pytest.mark.parametrize("seed", [(0.5, 0.5001), (0.25, 0.8), (0.5, 0.6)])
    def test_rank_one_jacobian_takes_minimum_norm_steps(self, seed):
        # F = (z_i - z_j)^2 depends on a + eps1_re alone, so the Jacobian
        # has rank one; Newton moves along (1, 1) only and ends at the
        # seed's orthogonal projection onto the EP line a + eps1_re = 1
        model = twolevel.AvoidedCrossingModel(-1.0, 1.0, 1.0, -1.0,
                                              gamma1_0=0.0, gamma2_0=1.2,
                                              omega=0.3)
        loc = sweep.locate_ep(model, seed=seed, p1="a", p2="eps1_re")
        shift = 0.5 * (seed[0] + seed[1] - 1.0)
        assert loc.backward_error <= 1e-10
        assert abs(loc.p1 - (seed[0] - shift)) <= 1e-9
        assert abs(loc.p2 - (seed[1] - shift)) <= 1e-9

    def test_a_slope_is_not_rounded_off(self):
        # e1(1) - e1(0) rounds to 0 next to e1_0 = 1e17, but a still moves
        # the level: the exact slope stays in the pencil
        model = twolevel.AvoidedCrossingModel(1e17, 1.0, 1.0, -1.0,
                                              0.0, 0.0, 0.3)
        family = sweep.make_family(model, "a")
        assert same_bits(family.b, np.diag([1.0, -1.0]).astype(complex))
        assert_pencil_matches(family, 1e3, model.model_at(1e3).matrix())

    def test_plane_is_checked_once(self, monkeypatch):
        # _affine checks the model's matrices; the 30 or so Newton points,
        # sums of the pencil's, are not checked again
        built = []
        new = linalg.ComplexMatrix.__new__
        monkeypatch.setattr(linalg.ComplexMatrix, "__new__", staticmethod(
            lambda cls, *args: built.append(cls) or new(cls, *args)))
        loc = sweep.locate_ep(canonical_model(), seed=(0.1, 0.8),
                              p1="omega_re", p2="omega_im")
        assert loc.iterations >= 2 and loc.backward_error <= 1e-10
        assert 1 <= len(built) <= 5

    def test_one_level_family_is_refused(self):
        # a 1x1 family has no pair: refused at the seed, before any Newton
        # step, not certified as a coalescence of gap 0
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.array([[p1 + 1j * p2]]))
        with pytest.raises(ValueError, match="no eigenvalue pair among 1 "):
            sweep.locate_ep(fam, (0.1, 0.2))

    def test_singular_jacobian_stalls(self):
        # F does not move: the Jacobian is zero and Newton stalls at once,
        # a failure that names its cause rather than a local minimum
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.diag([1.0, -1.0]))
        p, state, step, it, stall = sweep._newton_on_sq_gap(fam, (0.1, 0.2))
        assert p.tolist() == [0.1, 0.2] and state[0] == 2.0
        assert (step, it, stall) == (0.0, 1, "singular Jacobian")
        with pytest.raises(NoConvergence) as info:
            sweep.locate_ep(fam, (0.1, 0.2))
        assert type(info.value) is NoConvergence
        assert str(info.value) == \
            "singular Jacobian at (0.1, 0.2) with gap 2.000e+00"
        assert (info.value.point, info.value.residual) == ((0.1, 0.2), 2.0)

    def test_overflowing_step_stalls_without_warning(self):
        # F = 1e-10 (p1 + i p2): the Newton step is -p, whose length
        # overflows from p = (1.5e308, 1.5e308); the suite turns a
        # RuntimeWarning into an error
        seed = (1.5e308, 1.5e308)
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.diag(
            [0.0, np.sqrt(1e-10 * complex(p1, p2))]))
        p, _, step, it, stall = sweep._newton_on_sq_gap(fam, seed)
        assert tuple(p) == seed
        assert (step, it, stall) == (0.0, 1, "non-finite Newton step")
        with pytest.raises(NoConvergence) as info:
            sweep.locate_ep(fam, seed)
        assert type(info.value) is NoConvergence
        assert str(info.value) == ("non-finite Newton step at "
                                   "(1.5e+308, 1.5e+308) with gap 1.456e+149")
        assert info.value.point == seed

    def test_line_search_stall_near_a_coalescence_is_no_convergence(self):
        # test_normal_near_crossing_is_not_certified with the gap at 2e-8:
        # no trial lowers |F| near p = 0, and a backward error between
        # EP_BACKWARD_TOL and 1e4 times it is no saddle to reject
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        fam = sweep.PlaneFamily(fn=lambda p1, p2: rot @ np.diag(
            [0.5, 0.5 + 2e-8 + p1 ** 2 + 1j * p2 ** 2]) @ rot.T)
        _, state, _, it, stall = sweep._newton_on_sq_gap(fam, (0.1, 0.2))
        assert stall == "local minimum" and it < 60
        assert 2e-8 <= state[0] <= 2.2e-8
        with pytest.raises(NoConvergence, match="above tolerance") as info:
            sweep.locate_ep(fam, (0.1, 0.2))
        assert 2e-8 <= info.value.residual <= 2.2e-8

    def test_slow_descent_ends_after_60_iterations(self):
        # F = w^20, w = p1 + i p2: every full step -w / 20 lowers |F|, so
        # the search neither stalls nor converges within 4 ulp; the pair
        # there is within 1e-13 of coinciding, which certifies it
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.diag(
            [0.0, complex(p1, p2) ** 10]))
        _, _, _, it, stall = sweep._newton_on_sq_gap(fam, (0.6, 0.8))
        assert (it, stall) == (60, None)
        loc = sweep.locate_ep(fam, (0.6, 0.8))
        assert loc.iterations == 60 and loc.backward_error <= 1e-13
        # each step takes w to 19 w / 20: the last bounds nothing
        assert loc.step < abs(complex(loc.p1, loc.p2)) / 18

    def test_failing_stack_names_its_first_failing_point(self):
        # the family is not finite past p1 = 0.1: the seed passes, and of
        # the Jacobian's stacked points p + (h, 0) fails first
        def fn(p1, p2):
            d = np.inf if p1 > 0.1 else -p1
            return linalg.ComplexMatrix._make((np.array(
                [[p1, p2], [p2, d]], complex), linalg.GENERAL))

        with pytest.raises(NoConvergence, match="eigensolver failed at ") \
                as info:
            sweep.locate_ep(sweep.PlaneFamily(fn=fn), (0.1, 0.2))
        assert info.value.point == (0.1 + 1e-7, 0.2)

    def test_non_finite_eigenvalues_end_in_no_convergence(self):
        # finite entries whose largest eigenvalue overflows to inf
        fam = sweep.PlaneFamily(fn=lambda p1, p2: 1e308 * np.array(
            [[1.7, p1 + 1j * p2], [p1 + 1j * p2, 1.7]]))
        with pytest.raises(NoConvergence) as info:
            sweep.locate_ep(fam, seed=(0.1, 0.8))
        assert info.value.point == (0.1, 0.8)


class TestEncircle:
    def report(self, center=1j, radius=0.5, cycles=4):
        spec = sweep.EncircleSpec(center=center, radius=radius,
                                  steps_per_cycle=128, cycles=cycles)
        return sweep.encircle(spec, canonical_model())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sweep.EncircleSpec(center=1j, radius=0.0)
        with pytest.raises(ValueError):
            sweep.EncircleSpec(center=1j, radius=0.5, steps_per_cycle=16)
        with pytest.raises(ValueError):
            sweep.EncircleSpec(center=1j, radius=0.5, cycles=0)

    def test_periods(self):
        rep = self.report()
        assert rep.encloses_ep
        assert rep.eigenvalue_period == 2
        assert rep.eigenvector_period == 4

    def test_swap_pattern(self):
        rep = self.report()
        perms = [c.permutation for c in rep.cycles]
        assert perms[0] == (1, 0)
        assert perms[1] == (0, 1)
        assert perms[2] == (1, 0)
        assert perms[3] == (0, 1)

    def test_phase_pattern(self):
        rep = self.report()
        p1, p2, p3, p4 = (c.phases for c in rep.cycles)
        # one turn: opposite quarter phases; two turns: -1; four turns: +1
        assert sorted(np.round(p1, 3)) in ([-1j, 1j], [(-0-1j), 1j])
        assert np.abs(p1[0] + p1[1]).max() < 1e-3
        assert np.abs(p2 + 1.0).max() < 1e-3
        assert np.abs(p3 + p1).max() < 1e-3
        assert np.abs(p4 - 1.0).max() < 1e-3

    def test_contour_closes_on_values(self):
        rep = self.report(cycles=2)
        start = np.sort_complex(rep.values[0])
        end = np.sort_complex(rep.values[-1])
        assert np.abs(start - end).max() < 1e-8

    def test_non_enclosing_contour_trivial(self):
        rep = self.report(center=0.2 + 0.3j, radius=0.1, cycles=2)
        assert not rep.encloses_ep
        assert rep.eigenvalue_period == 1
        assert rep.eigenvector_period == 1
        for c in rep.cycles:
            assert c.permutation == (0, 1)
            assert np.abs(c.phases - 1.0).max() < 1e-6

    def test_off_centre_contour_encloses_the_ep(self):
        # the EP omega = i lies 0.3 off the centre, inside radius 0.4
        rep = self.report(center=0.3 + 1j, radius=0.4)
        assert rep.encloses_ep
        assert (rep.eigenvalue_period, rep.eigenvector_period) == (2, 4)

    def test_contour_around_both_eps_restores_the_pair(self):
        # radius 3 about 0 winds once around each EP omega = +-i: the two
        # exchanges cancel, so the first cycle is the identity
        rep = self.report(center=0.0, radius=3.0)
        assert not rep.encloses_ep
        assert rep.eigenvalue_period == 1
        assert rep.cycles[0].permutation == (0, 1)

    def test_refinement_handles_coarse_steps(self):
        spec = sweep.EncircleSpec(center=1j, radius=0.5, steps_per_cycle=64,
                                  cycles=2)
        rep = sweep.encircle(spec, canonical_model())
        assert rep.eigenvalue_period == 2

    def test_every_cycle_closes_after_many_turns(self, monkeypatch):
        # past about 1e4 turns t / 2 pi rounds by more than 1e-12: the grid
        # rows k * steps_per_cycle close the cycles, whatever t rounds to;
        # the two levels stay 2 apart, so no row is a coalescence
        def track(family, ts):
            n = len(ts)
            yield sweep._Frame(ts, np.broadcast_to(np.array([1, -1], complex),
                                                   (n, 2)), np.broadcast_to(
                np.eye(2, dtype=complex), (n, 2, 2)), np.ones(n, bool),
                np.ones(n))

        monkeypatch.setattr(sweep, "_track", track)
        monkeypatch.setattr(sweep, "_transport", lambda vectors, w, s: (
            np.broadcast_to(w, vectors.shape),
            np.broadcast_to(s, vectors.shape[:2])))
        spec = sweep.EncircleSpec(center=1j, radius=0.5, steps_per_cycle=65,
                                  cycles=10000)
        rep = sweep.encircle(spec, canonical_model())
        assert len(rep.cycles) == 10000
        assert rep.eigenvalue_period == rep.eigenvector_period == 1


# ---------------------------------------------------------------------------
# pencils: built-in families as A + t B, evaluated as whole stacks

def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(float), np.ascontiguousarray(y).view(float))


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
params = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False,
                                           allow_infinity=False))
complexes = st.builds(complex, finite, finite)


def assert_pencil_matches(family, t, reference):
    assert isinstance(family, sweep._Pencil)
    one = family(t)
    mats, hermitian = family.stack(np.array([t]))
    assert same_bits(one.entries, reference.entries)
    assert same_bits(mats[0], reference.entries)
    assert one.symmetry_hint == reference.symmetry_hint
    assert hermitian.tolist() == [reference.symmetry_hint == linalg.HERMITIAN]


class TestPencil:
    @settings(max_examples=150)
    @given(eps1=complexes, eps2=complexes, omega=complexes, t=params,
           path=st.sampled_from(["omega_re", "omega_im", "eps1_re", "eps1_im",
                                 "eps2_re", "eps2_im", "omega", "eps1"]))
    def test_two_level_paths_bit_for_bit(self, eps1, eps2, omega, t, path):
        model = twolevel.TwoLevelModel(eps1, eps2, omega)
        assert_pencil_matches(sweep.make_family(model, path), t,
                              sweep._set_path(model, path, t).matrix())

    @settings(max_examples=150)
    @given(e=finite, gamma=st.floats(0.0, 10.0), omega=finite, t=params,
           path=st.sampled_from(["e", "gamma", "omega", "omega_re",
                                 "omega_im"]))
    @example(e=0.0, gamma=1.0, omega=0.3, t=0.5, path="gamma")
    def test_pt_paths_bit_for_bit(self, e, gamma, omega, t, path):
        model = twolevel.PTTwoLevelModel(e, gamma, omega)
        t = abs(t) if path == "gamma" else t     # the model needs gamma >= 0
        assert_pencil_matches(sweep.make_family(model, path), t,
                              sweep._set_path(model, path, t).matrix())

    @settings(max_examples=150)
    @given(e=st.tuples(finite, finite, finite, finite),
           widths=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
           omega=complexes, t=params)
    def test_avoided_crossing_bit_for_bit(self, e, widths, omega, t):
        e1_0, e1_slope, e2_0, e2_slope = e
        if e1_slope == e2_slope:
            e2_slope = e1_slope + 1.0
        model = twolevel.AvoidedCrossingModel(e1_0, e1_slope, e2_0, e2_slope,
                                              *widths, omega)
        assert_pencil_matches(sweep.make_family(model, "a"), t,
                              sweep._set_path(model, "a", t).matrix())

    @settings(max_examples=50)
    @given(eps1=complexes, eps2=complexes, center=complexes,
           radius=st.floats(0.01, 3.0),
           theta=st.floats(0.0, 8 * np.pi, allow_nan=False), pt=st.booleans())
    def test_encircle_contour_bit_for_bit(self, eps1, eps2, center, radius,
                                          theta, pt):
        # encircle moves omega on c + r exp(i theta) through the same pencil
        model = twolevel.PTTwoLevelModel(eps1.real, abs(eps2.imag), 0.3) \
            if pt else twolevel.TwoLevelModel(eps1, eps2, 0.5j)
        omega = sweep.make_family(model, "omega")

        def point(th):
            return center + radius * np.exp(1j * th)

        along = sweep._Pencil(omega.a, omega.b, omega.hint, coef=point)
        theta = np.float64(theta)
        reference = sweep._set_path(model, "omega", point(theta)).matrix()
        assert_pencil_matches(along, theta, reference)
        assert same_bits(omega(point(theta)).entries, reference.entries)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8))
    def test_toy_trapping_bit_for_bit(self, seed, n):
        rng = np.random.default_rng(seed)
        h0 = np.diag(rng.uniform(-10.0, 10.0, n))
        h0[0, -1] = h0[-1, 0] = rng.uniform(-1.0, 1.0)
        v = rng.uniform(-1.5, 1.5, n)
        alphas = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, 5))])
        seen = []
        track = sweep._track
        try:
            sweep._track = lambda fam, ts: seen.append(fam) or track(fam, ts)
            opensys.toy_trapping(h0, v, alphas)
        finally:
            sweep._track = track
        vvt = np.outer(v, v)
        for alpha in alphas:
            reference = linalg.ComplexMatrix(h0 - 1j * alpha * vvt,
                                             linalg.COMPLEX_SYMMETRIC)
            assert_pencil_matches(seen[0], alpha, reference)

    def test_non_finite_stack_rejected(self):
        # the stack is not scanned: LAPACK refuses it, as NoConvergence
        fam = sweep.make_family(canonical_model(), "omega_re")
        with pytest.raises(NoConvergence, match="eigensolver failed"):
            fam.pairs(np.array([0.0, np.inf]))

    def test_eigenvectors_released_before_event_detection(self):
        # a 64-level, 201-point sweep has 12.6 MiB of frame eigenvectors;
        # only _track's chunks of them are held, and events take one
        # triangle row at a time: the traced peak is about 1.4 MiB
        rng = np.random.default_rng(0)
        a, b = (random_complex_symmetric(rng, 64) for _ in range(2))
        spec = sweep.SweepSpec(sweep.MatrixFamily(fn=lambda t: a + t * b),
                               "t", 0.0, 1.0, 201)
        tracemalloc.start()
        try:
            res = sweep.sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.rows) == 201
        assert peak <= 24 * 2 ** 20

    def test_sweep_builds_matrices_once(self, monkeypatch):
        calls = []
        matrix = twolevel.TwoLevelModel.matrix
        monkeypatch.setattr(twolevel.TwoLevelModel, "matrix",
                            lambda self: calls.append(1) or matrix(self))
        res = sweep.sweep(sweep.SweepSpec(canonical_model(), "omega_im",
                                          0.5, 1.5, 2001))
        assert len(res.rows) == 2001
        assert len(calls) <= 4


# ---------------------------------------------------------------------------
# batched continuation against the step-by-step chain

def tracked(family, ts):
    """_track's frames, its blocks unrolled into one frame per row."""
    return [sweep._Frame._make(row) for block in sweep._track(family, ts)
            for row in zip(*block)]


def sequential_frames(family, ts):
    """The continuation as a chain of single solves and _step calls."""
    out = [sweep._frame_at(family, ts[0])]
    for t in ts[1:]:
        steps, _ = sweep._step(family, out[-1], sweep._frame_at(family, t))
        out += steps
    return out


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.t == w.t and g.on_grid == w.on_grid
        assert same_bits(g.values, w.values)
        assert same_bits(g.vectors, w.vectors)


def random_pencil(seed, n):
    rng = np.random.default_rng(seed)
    a, b = (random_complex_symmetric(rng, n) for _ in range(2))
    return sweep._Pencil(a, b, linalg.COMPLEX_SYMMETRIC)


def random_complex_symmetric(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def near_crossing(n=8, delta=0.03):
    # n diabatic levels t * slope_k all cross at t = 0 under a weak random
    # coupling: a coarse step across t = 0 leaves every state spread over
    # the new basis, so the interval is bisected
    rng = np.random.default_rng(0)
    c = rng.standard_normal((n, n))
    return sweep._Pencil(delta * (c + c.T) / 2, np.diag(np.linspace(-1, 1, n)),
                         linalg.COMPLEX_SYMMETRIC)


class TestBatchedTrack:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
           steps=st.integers(2, 40))
    def test_matches_sequential_chain(self, seed, n, steps):
        fam = random_pencil(seed, n)
        ts = np.linspace(-1.0, 1.0, steps)
        assert_same_frames(tracked(fam, ts),
                           sequential_frames(fam, ts))

    def test_callable_family_takes_the_same_path(self):
        pencil = random_pencil(7, 5)
        fam = sweep.MatrixFamily(fn=lambda t: pencil.a + t * pencil.b)
        ts = np.linspace(0.0, 2.0, 9)
        assert_same_frames(tracked(fam, ts),
                           sequential_frames(fam, ts))
        assert_same_frames(tracked(fam, ts),
                           tracked(pencil, ts))

    def test_near_crossing_is_bisected(self):
        fam = near_crossing()
        ts = np.linspace(-1.0, 1.0, 6)
        frames = tracked(fam, ts)
        assert any(not f.on_grid for f in frames)
        assert_same_frames(frames, sequential_frames(fam, ts))

    def test_chunk_peak_within_budget(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; chunks of 32 16x16
        # frames, many per sweep
        monkeypatch.setattr(sweep, "_STACK_BYTES", 32 * 4 * 256 * 16)
        fam, ts = random_pencil(3, 16), np.linspace(-1.0, 1.0, 400)
        tracemalloc.start()
        try:
            for _ in sweep._track(fam, ts):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sweep._STACK_BYTES

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_chunk_boundaries(self, monkeypatch, per_chunk):
        fam = near_crossing()
        ts = np.linspace(-1.0, 1.0, 11)
        whole = tracked(fam, ts)
        # a budget of a few 8x8 frames, five chunk-sized arrays each
        monkeypatch.setattr(sweep, "_STACK_BYTES", per_chunk * 5 * 64 * 16)
        chunked = tracked(fam, ts)
        assert any(not f.on_grid for f in chunked)
        assert_same_frames(chunked, whole)
        assert_same_frames(chunked, sequential_frames(fam, ts))


def scan_case(kind, seed, n, delta, steps):
    """A family and its grid: a random pencil, near_crossing, the two-level
    omega_im sweep through the EP at omega_im = 1 (n = 2), or a Hermitian
    pencil of levels 1 apart under a coupling of at most about delta, which
    never cross, so LAPACK's ascending order is the continued one."""
    if kind == "ep":
        return (sweep.make_family(canonical_model(), "omega_im"),
                np.linspace(0.5, 1.5, steps))
    if kind == "still":
        c = np.random.default_rng(seed).standard_normal((n, n))
        return (sweep._Pencil(np.diag(np.arange(n, dtype=float)),
                              delta * (c + c.T) / 2, linalg.HERMITIAN),
                np.linspace(-1.0, 1.0, steps))
    return (near_crossing(n, delta) if kind == "near"
            else random_pencil(seed, n)), np.linspace(-1.0, 1.0, steps)


def tracked_in_chunks(family, ts, per_chunk):
    """tracked() with chunks of per_chunk frames."""
    budget = sweep._STACK_BYTES
    try:
        # _track's chunks hold five arrays of n x n complex frames
        sweep._STACK_BYTES = per_chunk * 5 * sweep._frame_at(
            family, ts[0]).vectors.nbytes
        return tracked(family, ts)
    finally:
        sweep._STACK_BYTES = budget


class Shuffled:
    """A family whose pairs come in a drawn column order per matrix, as
    another eigensolver might return them; its matrices are the family's."""

    def __init__(self, family, seed):
        self.family, self.rng = family, np.random.default_rng(seed)
        self.stack = family.stack

    def pairs(self, ts):
        peaks, w, vr = self.family.pairs(ts)
        order = self.rng.permuted(np.tile(np.arange(w.shape[1]), (len(w), 1)),
                                  axis=1)
        ut = np.take_along_axis(vr.swapaxes(1, 2), order[..., None], 1)
        return peaks, np.take_along_axis(w, order, 1), ut.swapaxes(1, 2)


class TestScanTrack:
    """_track matches chunks in LAPACK's order and carries one running
    order over the rows that move a column or are matched one at a time;
    chunks of one to four frames mix clean steps, unclean ones and
    bisection midpoints."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           delta=st.floats(0.005, 0.05), steps=st.integers(2, 24),
           per_chunk=st.integers(1, 4),
           kind=st.sampled_from(["random", "near", "ep", "still"]))
    # near_crossing chunks of c U U, U U c c and c c U c (c clean, U not);
    # the first two take midpoints
    @example(seed=0, n=8, delta=0.03, steps=11, per_chunk=3, kind="near")
    @example(seed=0, n=8, delta=0.03, steps=11, per_chunk=4, kind="near")
    @example(seed=0, n=6, delta=0.02, steps=13, per_chunk=4, kind="near")
    # the sweep_small sweep through the EP in one chunk: one row of 2000
    # moves a column in LAPACK's order
    @example(seed=0, n=2, delta=0.0, steps=2001, per_chunk=4096, kind="ep")
    # a chunk where no row moves a column: no row visited and no gather
    @example(seed=0, n=5, delta=0.03, steps=24, per_chunk=32, kind="still")
    def test_matches_sequential_chain(self, seed, n, delta, steps, per_chunk,
                                      kind):
        fam, ts = scan_case(kind, seed, n, delta, steps)
        assert_same_frames(tracked_in_chunks(fam, ts, per_chunk),
                           sequential_frames(fam, ts))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
           delta=st.floats(0.005, 0.05), steps=st.integers(2, 24),
           per_chunk=st.integers(1, 4),
           kind=st.sampled_from(["random", "near", "ep", "still"]))
    @example(seed=0, n=8, delta=0.03, steps=11, per_chunk=3, kind="near")
    @example(seed=0, n=2, delta=0.0, steps=2001, per_chunk=4096, kind="ep")
    def test_column_order_does_not_matter(self, seed, n, delta, steps,
                                          per_chunk, kind):
        # the frames are LAPACK's columns, gathered into continued order:
        # whichever order they come in, they are the same bits
        fam, ts = scan_case(kind, seed, n, delta, steps)
        assert_same_frames(tracked_in_chunks(Shuffled(fam, seed), ts,
                                             per_chunk),
                           tracked_in_chunks(fam, ts, per_chunk))


def carry_chain(vectors, w, s):
    """Every row's frame and norm branch from a transport that takes one
    column of one row at a time, with np.vdot, scalar abs and x @ x: the
    reference for _transport."""
    frames, branches = [w], [s]
    for u in vectors[1:]:
        new = u / np.linalg.norm(u, axis=0)
        s_new = np.empty_like(s)
        for k in range(new.shape[1]):
            z = np.vdot(new[:, k], w[:, k])
            new[:, k] = new[:, k] * (z / abs(z))
            cand = np.sqrt(new[:, k] @ new[:, k])
            s_new[k] = cand if abs(cand - s[k]) <= abs(cand + s[k]) else -cand
        w, s = new, s_new
        frames.append(w)
        branches.append(s)
    return np.array(frames), np.array(branches)


def contour_frames(eps1, eps2, center, radius, steps, cycles):
    """The matched frames of a two-level omega contour and encircle's start
    frame and branch, or None where encircle would refuse the contour."""
    omega = sweep.make_family(twolevel.TwoLevelModel(eps1, eps2, 0.5j),
                              "omega")
    thetas = 2 * np.pi * np.arange(steps * cycles + 1) / steps
    try:
        vectors = np.concatenate([b.vectors for b in sweep._track(
            sweep._Pencil(omega.a, omega.b, omega.hint,
                          coef=lambda th: center + radius * np.exp(1j * th)),
            thetas)])
    except NhspecError:
        return None
    start, norms = linalg.c_columns(vectors[0])
    if np.isinf(norms).any():
        return None
    h0 = np.linalg.norm(start, axis=0)
    return vectors, start / h0, (1.0 / h0).astype(complex)


def tie_frames():
    """Columns (cos a, i sin a) and (i sin a, cos a) for a from 0 to pi/2:
    w^T w = cos 2a is real, so its root turns from real to imaginary past
    pi/4, where |root - s| = |root + s| exactly.  The branch starts at -1,
    and at the tie it resets to +."""
    a = np.linspace(0.0, np.pi / 2, 9)[:, None, None]
    vectors = np.where(np.eye(2, dtype=bool), np.cos(a), 1j * np.sin(a))
    return vectors, vectors[0], -np.ones(2, complex)


class TestTransport:
    """encircle's transport takes all columns at once and keeps the bits
    of the per-column chain, frame and norm branch, on every row."""

    @settings(max_examples=40)
    @given(case=st.builds(contour_frames, complexes, complexes, complexes,
                          st.floats(0.01, 3.0), st.integers(64, 160),
                          st.integers(1, 3)))
    # around the EP omega = i: the branch flips once in each column
    @example(case=contour_frames(1.0, -1.0, 1j, 0.5, 64, 2))
    @example(case=tie_frames())
    def test_matches_the_carry_chain(self, case):
        assume(case is not None)
        frames, branches = sweep._transport(*case)
        want_frames, want_branches = carry_chain(*case)
        assert same_bits(frames, want_frames)
        assert same_bits(branches, want_branches)

    def test_tie_resets_the_branch(self):
        _, branches = sweep._transport(*tie_frames())
        assert (branches[:5].real < 0).all() and (branches[5:].imag > 0).all()


class TestArrayResults:
    """sweep() returns arrays and builds no per-row records; the rows view
    builds them from the arrays when it is read."""

    @pytest.mark.parametrize("family,start,stop,steps", [
        (canonical_model(), 0.5, 1.5, 101),         # through the EP: A = inf
        (near_crossing(), -1.0, 1.0, 11)])          # bisection midpoints
    def test_rows_are_the_arrays(self, monkeypatch, family, start, stop,
                                 steps):
        made, make = [], sweep.SweepRow._make
        monkeypatch.setattr(sweep.SweepRow, "_make",
                            lambda row: made.append(1) or make(row))
        param = "omega_im" if isinstance(family, twolevel.TwoLevelModel) \
            else "t"
        res = sweep.sweep(sweep.SweepSpec(family, param, start, stop, steps))
        assert made == []
        rows = res.rows
        assert len(made) == len(rows) == len(res.params) >= steps
        for k, row in enumerate(rows):
            assert type(row.param) is float and type(row.min_gap) is float
            assert row.param == res.params[k]
            assert row.min_gap == res.min_gap[k]
            for name in ("values", "norms_A", "rigidity_r"):
                assert same_bits(getattr(row, name), getattr(res, name)[k])


def dense_events(params, values, r, on_grid, peak, hint):
    """min_gap and events of a sweep's frames from the whole (T, pairs)
    table at once: the dense formulation that sweep() replaced by one
    triangle row at a time, as it stood (_pair_gaps and one event pass)."""
    i, j = np.triu_indices(values.shape[-1], 1)
    with np.errstate(over="ignore"):
        diff = values[..., i] - values[..., j]
        gap = np.abs(diff)
    finite = np.isfinite(gap).all(axis=1)
    if not finite.all():
        raise NhspecError("eigenvalue pair gap overflows at param "
                          f"{float(params[~finite][0])!r}")
    gaps = gap.min(axis=1, initial=np.inf)
    near = gap * np.maximum(r[:, i], r[:, j]) <= sweep.EP_BACKWARD_TOL \
        * np.maximum(peak, 1.0)[:, None]
    near &= hint == linalg.COMPLEX_SYMMETRIC
    tol = sweep.DEFAULT_GAP_TOL * max(peak[on_grid].max(), 1.0)
    found = [
        ("energy_crossing", sweep._crossings(diff.real, tol)),
        ("width_crossing", sweep._crossings(diff.imag, tol)),
        ("avoided_crossing", sweep._local_minima(np.abs(diff.real), tol)),
        ("ep_candidate", sweep._first_of_runs(near)),
    ]
    pairs, events = list(zip(i.tolist(), j.tolist())), []
    for kind, count in found:
        ts, ks = np.nonzero(count)
        for t, k, c in zip(ts.tolist(), ks.tolist(), count[ts, ks].tolist()):
            events += [sweep.Event(kind, float(params[t]), pairs[k])
                       for _ in range(c)]
    events.sort(key=lambda e: (e.param, e.kind, e.indices))
    return gaps, events


def random_pencil_of(kind, seed, n):
    """A + t B with A, B seeded random matrices of a symmetry kind."""
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    if kind == linalg.COMPLEX_SYMMETRIC:
        a, b = a + a.T, b + b.T
    elif kind == linalg.HERMITIAN:
        a, b = a + a.conj().T, b + b.conj().T
    return sweep._Pencil(a, b, kind)


def sweep_and_oracle(monkeypatch, spec, family, columns=None):
    """sweep(spec), or the error it raised, and the dense oracle on the
    frames its _track yielded, their vectors replaced by columns if given."""
    blocks, track = [], sweep._track

    def recorded(fam, ts):
        for b in track(fam, ts):
            if columns is not None:
                b = b._replace(vectors=np.broadcast_to(columns, b.vectors.shape))
            blocks.append(b)
            yield b

    monkeypatch.setattr(sweep, "_track", recorded)
    try:
        got = sweep.sweep(spec)
    except NhspecError as exc:
        got = exc
    frames = sweep._Frame._make(map(np.concatenate, zip(*blocks)))
    r = np.abs(np.einsum("tik,tik->tk", frames.vectors, frames.vectors))
    r[r < linalg.DEFECT_TOL] = 0.0
    try:
        want = dense_events(frames.t, frames.values, r, frames.on_grid,
                            frames.peak, getattr(family, "hint", None))
    except NhspecError as exc:
        want = exc
    return got, want


class TestRowwiseEvents:
    """sweep() detects pair events one triangle row at a time; min_gap and
    the events are those of the whole (T, pairs) table at once."""

    @pytest.mark.parametrize("kind", [linalg.COMPLEX_SYMMETRIC,
                                      linalg.GENERAL, linalg.HERMITIAN])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_matches_dense_oracle(self, monkeypatch, kind, n):
        fam = random_pencil_of(kind, 29 * n, n)
        res, (gaps, events) = sweep_and_oracle(
            monkeypatch, sweep.SweepSpec(fam, "t", -1.0, 1.0, 81), fam)
        assert same_bits(res.min_gap, gaps)
        assert res.events == events
        assert events or n <= 2

    @pytest.mark.parametrize("family,parameter,start,stop", [
        (canonical_model(), "omega_im", 0.5, 1.5),      # an ep_candidate
        (near_crossing(), "t", -1.0, 1.0),              # bisection midpoints
        (sweep.MatrixFamily(fn=lambda t: random_pencil_of(
            linalg.COMPLEX_SYMMETRIC, 5, 8)(t).entries), "t", -1.0, 1.0)])
    def test_matches_dense_oracle_on_models(self, monkeypatch, family,
                                            parameter, start, stop):
        spec = sweep.SweepSpec(family, parameter, start, stop, 41)
        if not isinstance(family, sweep.MatrixFamily):
            family = sweep.make_family(family, parameter)
        res, (gaps, events) = sweep_and_oracle(monkeypatch, spec, family)
        assert same_bits(res.min_gap, gaps)
        assert res.events == events
        kinds = {e.kind for e in events}
        assert "ep_candidate" in kinds or parameter == "t"

    @pytest.mark.parametrize("kind,eps", [(linalg.COMPLEX_SYMMETRIC, 6),
                                          (linalg.GENERAL, 0)])
    def test_matches_dense_oracle_with_null_c_norms(self, monkeypatch, kind,
                                                    eps):
        # the even levels' vectors made isotropic (u^T u = 0, r = 0), the odd
        # ones left at r = 1: the EP test takes max(r_i, r_j) of each pair,
        # and only for a complex-symmetric family
        fam = random_pencil_of(kind, 8, 8)
        columns = np.eye(8, dtype=complex)
        columns[1::2, ::2] = 1j * np.eye(4)
        columns /= np.linalg.norm(columns, axis=0)
        res, (gaps, events) = sweep_and_oracle(
            monkeypatch, sweep.SweepSpec(fam, "t", -1.0, 1.0, 41), fam,
            columns)
        assert res.rigidity_r[0].tolist() == [0.0, 1.0] * 4
        assert same_bits(res.min_gap, gaps)
        assert res.events == events
        assert sum(e.kind == "ep_candidate" for e in events) == eps

    def test_overflow_names_the_first_param_of_any_row(self, monkeypatch):
        # levels by real part -2, -1, 0, 1: the gap of pair (2, 3) overflows
        # from t = 0.125 on, that of pair (0, 3), in the first row, from 0.5;
        # with isotropic vectors (r = 0) a gap * r product of an overflowed
        # row would warn, as inf * 0
        a = np.diag([-2 + 0.4e308j, -1, 0.8e308j, 1 - 0.8e308j])
        b = np.diag([0.4e308j, 0, 0.8e308j, -0.8e308j])
        fam = sweep._Pencil(a, b, linalg.COMPLEX_SYMMETRIC)
        columns = np.array([[1, 1, 0, 0], [1j, -1j, 0, 0], [0, 0, 1, 1],
                            [0, 0, 1j, -1j]]) / np.sqrt(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, want = sweep_and_oracle(
                monkeypatch, sweep.SweepSpec(fam, "t", 0.0, 1.0, 9), fam,
                columns)
        assert not caught
        assert isinstance(got, NhspecError) and isinstance(want, NhspecError)
        assert str(got) == str(want) == (
            "eigenvalue pair gap overflows at param 0.125")

    def test_event_detection_holds_no_pair_table(self):
        # a 48-level, 101-point sweep: the (T, pairs) table and its moduli
        # took a traced peak of about 5.5 MiB; one triangle row at a time
        # the peak is _track's chunk budget, about 1 MiB
        rng = np.random.default_rng(48)
        a, b = (random_complex_symmetric(rng, 48) for _ in range(2))
        spec = sweep.SweepSpec(sweep.MatrixFamily(fn=lambda t: a + t * b),
                               "t", 0.0, 1.0, 101)
        tracemalloc.start()
        try:
            res = sweep.sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.params) == 101 and len(res.events) > 0
        assert peak <= 2 * 10 ** 6


class TestStepOnlyWhereNeeded:
    """_step matches one step at a time: only steps whose overlap maxima are
    not distinct columns all at least MATCH_THRESHOLD, and their midpoints,
    go through it; the rest of a chunk is reordered in one gather."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        step = sweep._step

        def spy(family, f0, f1, depth=0):
            calls.append((f1, depth))
            return step(family, f0, f1, depth)

        monkeypatch.setattr(sweep, "_step", spy)
        return calls

    def test_clean_sweep_takes_no_step(self, monkeypatch):
        # only the grid point on the EP, omega_im = 1.0, whose two columns
        # are equal, and the row after it are not clean; neither bisects
        calls = self.spy(monkeypatch)
        ts = np.linspace(0.5, 1.5, 2001)
        res = sweep.sweep(sweep.SweepSpec(canonical_model(), "omega_im",
                                          0.5, 1.5, 2001))
        assert len(res.rows) == 2001
        assert [(f.t, depth) for f, depth in calls] == [(1.0, 0), (ts[1001], 0)]

    def test_clean_sweep_is_one_eigensolve(self, monkeypatch):
        # the first frame is row 0 of the one 2001-row chunk, not a solve
        # of its own
        stacks, eig2 = [], linalg.eig2_stack
        monkeypatch.setattr(linalg, "eig2_stack",
                            lambda a: stacks.append(len(a)) or eig2(a))
        sweep.sweep(sweep.SweepSpec(canonical_model(), "omega_im", 0.5, 1.5,
                                    2001))
        assert stacks == [2001]

    def test_near_crossing_steps_only_where_unclean(self, monkeypatch):
        fam, ts = near_crossing(), np.linspace(-1.0, 1.0, 6)
        unclean = []
        for t0, t1 in zip(ts, ts[1:]):
            u0, u1 = (sweep._frame_at(fam, t).vectors for t in (t0, t1))
            ov = np.abs(u0.conj().T @ u1)
            if ov.max(axis=1).min() < sweep.MATCH_THRESHOLD or \
                    len(set(ov.argmax(axis=1).tolist())) < len(ov):
                unclean.append(t1)
        calls = self.spy(monkeypatch)
        res = sweep.sweep(sweep.SweepSpec(fam, "t", -1.0, 1.0, 6))
        assert unclean
        assert [f.t for f, depth in calls if depth == 0] == unclean
        mids = {f.t for f, _ in calls if not f.on_grid}
        params = [r.param for r in res.rows]
        assert mids and set(params) == set(ts) | mids
        assert params == sorted(params)


class TestLabelsPastTheEp:
    """The 2x2 frames come in closed form, so a grid point on the EP has two
    equal columns and the continuation past it does not depend on
    eigensolver rounding."""

    def test_same_column_on_every_grid(self):
        # the canonical model crosses its EP at omega_im = 1.0, a grid point
        # for odd steps only; past it +i sqrt(1.25) ends in one column on
        # every grid
        cols = set()
        for steps in [*range(2, 81), 101, 201, 2001]:
            res = sweep.sweep(sweep.SweepSpec(canonical_model(), "omega_im",
                                              0.5, 1.5, steps))
            dist = np.abs(res.values[-1] - 1j * np.sqrt(1.25))
            assert dist.min() <= 1e-15
            cols.add(int(dist.argmin()))
        assert len(cols) == 1


# ---------------------------------------------------------------------------
# the trapping pencil: eigenvalues as roots of the secular equation, vectors
# in closed form

def trapping_in_chunks(h0, v, alphas, per_chunk):
    """toy_trapping with chunks of per_chunk frames (None: the default)."""
    budget = sweep._STACK_BYTES
    try:
        if per_chunk:
            sweep._STACK_BYTES = per_chunk * 5 * h0.size * 16
        return opensys.toy_trapping(h0, v, alphas)
    finally:
        sweep._STACK_BYTES = budget


def plain_trapping(h0, v, alphas):
    """toy_trapping's report through the plain pencil and LAPACK's pairs."""
    # -i (V V^T), as _SecularPencil forms it: (-i V) V^T is a complex
    # product that for K > 1 can round differently
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_SecularPencil", lambda h0, v: sweep._Pencil(
            h0, -1j * (v @ v.T), linalg.COMPLEX_SYMMETRIC))
        return opensys.toy_trapping(h0, v, alphas)


def agrees_with_lapack(got, h0, v, alphas):
    """Column by column within 16 n eps of the row's largest |entry| of
    LAPACK's values, with the same discrete results.  LAPACK's own error
    on the 1200-step perfbench chain (sweep_small seeds 0-9, every 25th
    row, against mpmath at 40 digits) reaches 3.7 n eps of that peak, and
    the secular roots may be twice as far off, so the two may differ by
    3 x 3.7, rounded up to 16."""
    want, v = plain_trapping(h0, v, alphas), v.reshape(len(h0), -1)
    peaks = np.abs(h0 - 1j * alphas[:, None, None] * (v @ v.T)).max(
        axis=(1, 2))
    bound = 16 * len(h0) * np.finfo(float).eps * peaks[:, None]
    assert (np.abs(got.values - want.values) <= bound).all()
    assert (got.n_trapped, got.alpha_cr) == (want.n_trapped, want.alpha_cr)
    assert np.array_equal(got.trapped_flags, want.trapped_flags)
    return want


def exact_roots(h0, v, alpha, starts):
    """The eigenvalues of h0 - i alpha v v^T at 40 digits, each by the secant
    method from one of starts on prod (z - d) + i alpha sum_k w_k^2
    prod_{j != k} (z - d_j), for h0 = Q D Q^T (from mpmath unless h0 is
    diagonal) and w = Q^T v: no division, so a root on a level is found."""
    with mpmath.workdps(40):
        d, w = np.diag(h0).tolist(), v.tolist()
        if np.count_nonzero(h0 - np.diag(d)):
            e, q = mpmath.eigsy(mpmath.matrix(h0.tolist()))
            qtv = q.T * mpmath.matrix(w)
            d, w = zip(*((e[k], qtv[k]) for k in range(len(d))))
        d = [mpmath.mpf(x) for x in d]
        w2, alpha = [mpmath.mpf(x) ** 2 for x in w], mpmath.mpf(alpha)

        def p(z):
            head, tail = [mpmath.mpf(1)], [mpmath.mpf(1)]
            for x, y in zip(d, d[::-1]):
                head.append(head[-1] * (z - x))
                tail.append(tail[-1] * (z - y))
            return head[-1] + 1j * alpha * mpmath.fsum(
                c * head[k] * tail[len(d) - 1 - k] for k, c in enumerate(w2))

        roots = []
        for z in starts:
            z0, z1 = mpmath.mpc(complex(z)), mpmath.mpc(complex(z)) + (
                1 + abs(z)) * 2.0 ** -40
            f0, f1 = p(z0), p(z1)
            for _ in range(60):
                if f1 == f0 or abs(z1 - z0) <= 1e-34 * (1 + abs(z1)):
                    break
                z0, z1, f0 = z1, z1 - f1 * (z1 - z0) / (f1 - f0), f1
                f1 = p(z1)
            roots.append(z1)
        return roots


def assert_as_accurate_as_lapack(h0, v, alphas, got, want, rows):
    """On the given rows no eigenvalue is worse than both twice LAPACK's
    error and a floor, against the exact roots nearest to LAPACK's values.
    The floor is 1 ulp of the row's largest |entry| (the bound of the 2 x 2
    closed form) or the solver's last step, 4 eps times the row's largest
    |z|, whichever is larger: an eigenvalue here can be n times that entry,
    and the 1 ulp floor fails on 1 of 10080 eigenvalues of the perfbench
    chain (seeds 0-9, every 25th row; 1.2 ulp of |z| where LAPACK's error
    is 0.2).  The secular equation is exact only for Q (D - i t W W^T) Q^T
    with eigh's Q, D and W = Q^T V as rounded, which differs from H(t) by
    dH (zero for a diagonal h0, where Q is a signed permutation): each
    eigenvalue may move by |dH|_F times its conditioning |x|^2 / |x^T x|
    more."""
    fam = sweep._SecularPencil(h0, v.reshape(-1, 1))
    q, d = fam.q.astype(np.longdouble), fam.d.astype(np.longdouble)
    qw, vl = q @ fam.w.astype(np.longdouble), v.astype(np.longdouble)
    dh0 = float(np.linalg.norm((q * d) @ q.T - h0))
    dvv = float(np.linalg.norm(np.outer(qw, qw) - np.outer(vl, vl)))
    for k in rows:
        h = h0 - 1j * alphas[k] * np.outer(v, v)
        exact = exact_roots(h0, v, alphas[k], want.values[k])
        errors = [np.array([float(min(abs(mpmath.mpc(complex(z)) - e)
                                      for e in exact)) for z in values])
                  for values in (got.values[k], want.values[k])]
        z, x = np.linalg.eig(h)
        x = x[:, [np.abs(z - y).argmin() for y in got.values[k]]]
        cond = (np.abs(x) ** 2).sum(0) / np.abs((x * x).sum(0))
        floor = max(np.spacing(np.abs(h).max()),
                    4 * np.finfo(float).eps * np.abs(got.values[k]).max())
        assert (errors[0] <= np.maximum(2 * errors[1], floor)
                + cond * (dh0 + alphas[k] * dvv)).all(), (k, errors)


def chain_with_collisions(seed):
    # the trap fixture's chain: levels k - 10 shifted by up to 0.1 and
    # couplings near 1; on 120 steps some steps collide in overlap
    rng = np.random.default_rng(seed)
    return (np.diag(np.arange(-10.0, 11.0) + rng.uniform(-0.1, 0.1, 21)),
            rng.uniform(0.8, 1.2, 21), np.linspace(0.01, 5.0, 120))


@st.composite
def trapping_cases(draw):
    """h0 diagonal, dense or with a repeated level; K = 1, 2 or 3 channels,
    possibly one decoupled level; grids ascending from alpha = 0 or
    descending to it (toy_trapping takes strictly monotone grids only), or
    the 120-step chain whose overlaps collide; and a chunk budget of a few
    frames, so that a chunk holding alpha = 0 holds others too."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = draw(st.sampled_from(["ascending", "descending", "chain"]))
    per_chunk = draw(st.sampled_from([None, 3, 8]))
    if grid == "chain":
        return (*chain_with_collisions(rng.integers(2 ** 32)), per_chunk)
    k = draw(st.integers(1, 3))
    n = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(["diagonal", "dense", "repeated"]))
    h0 = np.diag(rng.uniform(-3.0, 3.0, n))
    if kind == "dense":
        h0 = h0 + 0.5 * (lambda c: c + c.T)(rng.standard_normal((n, n)))
    elif kind == "repeated":
        h0[1, 1] = h0[0, 0]
    v = rng.uniform(-1.5, 1.5, (n, k))
    if draw(st.booleans()):
        v[draw(st.integers(0, n - 1))] = 0.0
    steps = draw(st.integers(3, 40))
    if grid == "descending":
        alphas = np.linspace(draw(st.floats(0.5, 5.0)), 0.0, steps)
    else:
        alphas = np.linspace(0.0, 4.0, steps)
    return h0, v, alphas, per_chunk


@st.composite
def secular_cases(draw):
    """K = 1 models whose chunks take the secular roots: h0 diagonal or
    dense, every level coupled and none repeated, grids on (0, 5] (a chunk
    holding alpha = 0 takes LAPACK's pairs: there x = Q (D - z)^-1 W is not
    finite), and chunks of 3 or 8 frames or the whole grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 12))
    h0 = np.diag(rng.uniform(-3.0, 3.0, n))
    if draw(st.booleans()):
        h0 = h0 + 0.5 * (lambda c: c + c.T)(rng.standard_normal((n, n)))
    v = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
    alphas = np.linspace(draw(st.floats(0.01, 1.0)), draw(st.floats(1.5, 5.0)),
                         draw(st.integers(3, 40)))
    return h0, v, alphas, draw(st.sampled_from([None, 3, 8]))


class TestSecularPencil:
    @settings(max_examples=60)
    @given(trapping_cases())
    def test_values_agree_with_lapack(self, case):
        # K > 1 takes LAPACK's eigenpairs: the same bits
        h0, v, alphas, per_chunk = case
        got = trapping_in_chunks(h0, v, alphas, per_chunk)
        want = agrees_with_lapack(got, h0, v, alphas)
        if v.ndim > 1 and v.shape[1] > 1:
            assert same_bits(got.values, want.values)

    @settings(max_examples=25)
    @given(secular_cases())
    def test_as_accurate_as_lapack(self, case):
        h0, v, alphas, per_chunk = case
        got = trapping_in_chunks(h0, v, alphas, per_chunk)
        rows = np.linspace(0, len(alphas) - 1, 5, dtype=int)
        assert_as_accurate_as_lapack(h0, v, alphas, got,
                                     plain_trapping(h0, v, alphas), rows)

    def test_colliding_chain_agrees_with_lapack(self, monkeypatch):
        h0, v, alphas = chain_with_collisions(0)
        collided = []
        step = sweep._step

        def spy(family, f0, f1, depth=0):
            collided.append(depth == 0)
            return step(family, f0, f1, depth)

        monkeypatch.setattr(sweep, "_step", spy)
        got = opensys.toy_trapping(h0, v, alphas)
        assert any(collided)
        want = agrees_with_lapack(got, h0, v, alphas)
        assert_as_accurate_as_lapack(h0, v, alphas, got, want,
                                     range(0, len(alphas), 10))

    def test_one_root_twice_takes_lapack(self, monkeypatch):
        # the roots must sum to the trace: a chunk whose solver returns one
        # root twice (and so misses another) takes LAPACK's eigenpairs
        h0, v, alphas = chain_with_collisions(2)
        aberth = sweep._aberth

        def twice(*args):
            z = aberth(*args)
            z[:, 1] = z[:, 0]
            return z

        monkeypatch.setattr(sweep, "_aberth", twice)
        got = opensys.toy_trapping(h0, v, alphas).values
        assert same_bits(got, plain_trapping(h0, v, alphas).values)

    def test_one_small_eigensolve_per_chunk(self, monkeypatch):
        # a clean grid: the first matrix of each chunk, without vectors, and
        # no chunk taking LAPACK's pairs
        calls = []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append("eig") or eig(a))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or eigvals(a))
        rng = np.random.default_rng(7)
        h0 = np.diag(np.arange(-10.0, 11.0) + rng.uniform(-0.1, 0.1, 21))
        alphas = np.linspace(0.01, 5.0, 1200)
        opensys.toy_trapping(h0, rng.uniform(0.8, 1.2, 21), alphas)
        size = sweep._STACK_BYTES // (5 * h0.size * 16)
        assert calls == [(21, 21)] * -(-len(alphas) // size)

    def test_no_eigendecomposition_with_vectors(self, monkeypatch):
        # a clean grid takes no LAPACK vectors, for its first frame neither
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(a.shape) or eig(a))
        h0, v, _ = chain_with_collisions(2)
        opensys.toy_trapping(h0, v, np.linspace(0.01, 5.0, 300))
        assert calls == []

    @pytest.mark.parametrize("n", [80, 120])
    def test_large_levels_take_the_secular_roots(self, monkeypatch, n):
        # past n = 75 too: polished roots do not depend on the bits of
        # zhseqr's blocked path
        calls = []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append("eig") or eig(a))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or eigvals(a))
        rng = np.random.default_rng(n)
        h0 = np.diag(np.arange(n) - n / 2 + rng.uniform(-0.1, 0.1, n))
        v, alphas = rng.uniform(0.8, 1.2, n), np.linspace(0.01, 5.0, 30)
        got = opensys.toy_trapping(h0, v, alphas)
        assert calls and set(calls) == {(n, n)}
        monkeypatch.undo()
        want = agrees_with_lapack(got, h0, v, alphas)
        assert_as_accurate_as_lapack(h0, v, alphas, got, want, [29])

    def test_decoupled_level_takes_lapack_vectors(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(len(a)) or eig(a))
        h0, v, alphas = chain_with_collisions(2)
        v[4] = 0.0
        got = opensys.toy_trapping(h0, v, alphas).values
        assert sum(calls) == len(alphas)
        assert same_bits(got, plain_trapping(h0, v, alphas).values)

    @pytest.mark.parametrize("channels", [1, 4])
    def test_chunk_peak_within_budget(self, monkeypatch, channels):
        # as for sweeps, with closed-form vectors (K = 1) and LAPACK's
        monkeypatch.setattr(sweep, "_STACK_BYTES", 32 * 4 * 256 * 16)
        rng = np.random.default_rng(3)
        fam = sweep._SecularPencil(np.diag(rng.uniform(-3.0, 3.0, 16)),
                                   rng.uniform(-1.0, 1.0, (16, channels)))
        tracemalloc.start()
        try:
            for _ in sweep._track(fam, np.linspace(0.01, 2.0, 400)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sweep._STACK_BYTES

    def test_eigenvalue_failure_retried_with_vectors(self, monkeypatch):
        h0, v, alphas = chain_with_collisions(1)
        want = plain_trapping(h0, v, alphas).values

        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        assert same_bits(opensys.toy_trapping(h0, v, alphas).values, want)
        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(NoConvergence, match="did not converge"):
            opensys.toy_trapping(h0, v, alphas)
