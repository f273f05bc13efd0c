import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from nhspec import linalg, opensys, sweep, twolevel
from nhspec.errors import MatchingAmbiguous, NoConvergence, SaddleRejected

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
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(1) or eigvals(a))
        model = twolevel.TwoLevelModel(eps1=0.5 + 0.1j, eps2=0.5 + 0.1j,
                                       omega=0.3)
        loc = sweep.locate_ep(model, seed=(0.3, 0.0), p1="omega_re",
                              p2="omega_im")
        assert abs(complex(loc.p1, loc.p2)) < 1e-12
        assert len(calls) <= 40

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
            calls.append(1)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.array(
            [[1.0 + 0.2 * p1 ** 2, p1 + 1j * p2],
             [p1 + 1j * p2, -1.0 + 0.1j]]))
        loc = sweep.locate_ep(fam, seed=(0.05, 0.9))
        assert abs(complex(loc.p1, loc.p2) - complex(0.05, 1.00025)) < 1e-12
        assert loc.backward_error <= 1e-14
        assert len(calls) <= 100

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

    def test_refinement_handles_coarse_steps(self):
        spec = sweep.EncircleSpec(center=1j, radius=0.5, steps_per_cycle=64,
                                  cycles=2)
        rep = sweep.encircle(spec, canonical_model())
        assert rep.eigenvalue_period == 2


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
        fam = sweep.make_family(canonical_model(), "omega_re")
        with pytest.raises(ValueError, match="finite"):
            fam.stack(np.array([0.0, np.inf]))

    def test_eigenvectors_released_before_event_detection(self):
        # a 64-level, 201-point sweep holds 12.6 MiB of frame eigenvectors;
        # released before the (T, pairs) gap arrays are built, the traced
        # peak is about 19 MiB instead of about 32
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


class TestScanTrack:
    """_track composes each chunk's steps in one log-depth scan, with one
    gather after each unclean step; chunks of one to four frames mix clean
    steps, unclean ones and bisection midpoints."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           delta=st.floats(0.005, 0.05), steps=st.integers(2, 24),
           per_chunk=st.integers(1, 4), near=st.booleans())
    # near_crossing chunks of c U U, U U c c and c c U c (c clean, U not);
    # the first two take midpoints
    @example(seed=0, n=8, delta=0.03, steps=11, per_chunk=3, near=True)
    @example(seed=0, n=8, delta=0.03, steps=11, per_chunk=4, near=True)
    @example(seed=0, n=6, delta=0.02, steps=13, per_chunk=4, near=True)
    def test_matches_sequential_chain(self, seed, n, delta, steps, per_chunk,
                                      near):
        fam = near_crossing(n, delta) if near else random_pencil(seed, n)
        ts = np.linspace(-1.0, 1.0, steps)
        budget = sweep._STACK_BYTES
        try:
            # _track's chunks hold five arrays of n x n complex frames
            sweep._STACK_BYTES = per_chunk * 5 * n * n * 16
            got = tracked(fam, ts)
        finally:
            sweep._STACK_BYTES = budget
        assert_same_frames(got, sequential_frames(fam, ts))


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
        calls = self.spy(monkeypatch)
        res = sweep.sweep(sweep.SweepSpec(canonical_model(), "omega_im",
                                          0.5, 1.5, 2001))
        assert len(res.rows) == 2001 and calls == []

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


# ---------------------------------------------------------------------------
# the trapping pencil: eigenvalues alone from LAPACK, vectors in closed form

def plain_trapping_values(h0, v, alphas):
    """toy_trapping's values through the plain pencil and LAPACK vectors."""
    v = v.reshape(len(h0), -1)
    # -i (V V^T), as _SecularPencil forms it: (-i V) V^T is a complex
    # product that for K > 1 can round differently
    family = sweep._Pencil(h0, -1j * (v @ v.T), linalg.COMPLEX_SYMMETRIC)
    return np.array([f.values for f in tracked(family, alphas)
                     if f.on_grid])


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


class TestSecularPencil:
    @settings(max_examples=60)
    @given(trapping_cases())
    def test_values_bit_for_bit(self, case):
        h0, v, alphas, per_chunk = case
        budget = sweep._STACK_BYTES
        try:
            if per_chunk:
                sweep._STACK_BYTES = per_chunk * 5 * h0.size * 16
            got = opensys.toy_trapping(h0, v, alphas).values
        finally:
            sweep._STACK_BYTES = budget
        assert same_bits(got, plain_trapping_values(h0, v, alphas))

    def test_colliding_chain_bit_for_bit(self, monkeypatch):
        h0, v, alphas = chain_with_collisions(0)
        collided = []
        step = sweep._step

        def spy(family, f0, f1, depth=0):
            collided.append(depth == 0)
            return step(family, f0, f1, depth)

        monkeypatch.setattr(sweep, "_step", spy)
        got = opensys.toy_trapping(h0, v, alphas).values
        assert any(collided)
        assert same_bits(got, plain_trapping_values(h0, v, alphas))

    def test_one_eigendecomposition_with_vectors(self, monkeypatch):
        # a clean grid takes LAPACK vectors for its first frame only
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(a.shape) or eig(a))
        h0, v, _ = chain_with_collisions(2)
        opensys.toy_trapping(h0, v, np.linspace(0.01, 5.0, 300))
        assert calls == [(1, 21, 21)]

    @pytest.mark.parametrize("n, closed_form", [(75, True), (80, False)])
    def test_blocked_lapack_sizes_take_lapack_vectors(self, monkeypatch, n,
                                                      closed_form):
        # above n = 75 zhseqr's blocked QR gives other eigenvalue bits when
        # it is not asked for vectors, so those sizes keep LAPACK's vectors
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(len(a)) or eigvals(a))
        rng = np.random.default_rng(n)
        h0 = np.diag(np.arange(n) - n / 2 + rng.uniform(-0.1, 0.1, n))
        v, alphas = rng.uniform(0.8, 1.2, n), np.linspace(0.01, 5.0, 30)
        got = opensys.toy_trapping(h0, v, alphas).values
        assert bool(calls) == closed_form
        assert same_bits(got, plain_trapping_values(h0, v, alphas))

    def test_decoupled_level_takes_lapack_vectors(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: calls.append(len(a)) or eig(a))
        h0, v, alphas = chain_with_collisions(2)
        v[4] = 0.0
        got = opensys.toy_trapping(h0, v, alphas).values
        assert sum(calls) == len(alphas)
        assert same_bits(got, plain_trapping_values(h0, v, alphas))

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
        want = plain_trapping_values(h0, v, alphas)

        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        assert same_bits(opensys.toy_trapping(h0, v, alphas).values, want)
        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(NoConvergence, match="did not converge"):
            opensys.toy_trapping(h0, v, alphas)
