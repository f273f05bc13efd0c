import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nhspec import linalg, sweep, twolevel
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
        fam = sweep.make_family(canonical_model(), "no_such_field")
        with pytest.raises(ValueError):
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

    def test_equal_energies_fall_back_from_closed_form(self):
        # eps1 == eps2 has no closed-form locus (DegenerateInput); the search
        # still finds the level crossing at omega = 0
        model = twolevel.TwoLevelModel(eps1=0.5 + 0.1j, eps2=0.5 + 0.1j,
                                       omega=0.3)
        fam = sweep.make_plane_family(model, "omega_re", "omega_im")
        assert sweep._closed_form_polish(fam, np.zeros(2)) is None
        loc = sweep.locate_ep(model, seed=(0.1, 0.2), p1="omega_re",
                              p2="omega_im")
        assert abs(complex(loc.p1, loc.p2)) < 1e-12
        assert abs(loc.z0 - (0.5 + 0.1j)) < 1e-12
        assert loc.gap < 1e-10

    def test_generic_family_without_closed_form(self):
        # embedded two-level block with a spectator level; the coalescence
        # sits at (p1, p2) = (0, 1) but no model shortcut applies
        def fn(p1, p2):
            w = complex(p1, p2)
            return np.array([[1.0, w, 0.0], [w, -1.0, 0.0], [0.0, 0.0, 5.0]])

        fam = sweep.PlaneFamily(fn=fn)
        loc = sweep.locate_ep(fam, seed=(0.15, 0.85))
        assert abs(loc.p1) < 1e-6 and abs(loc.p2 - 1.0) < 1e-6
        assert loc.gap < 1e-10

    def test_polyroots_failure_ends_in_no_convergence(self, monkeypatch):
        # mpmath's NoConvergence is not an ArithmeticError; the polish is
        # skipped and the search reports its own failure
        import mpmath

        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("polyroots did not converge")

        monkeypatch.setattr(mpmath, "polyroots", no_convergence)
        fam = sweep.PlaneFamily(fn=lambda p1, p2: np.array(
            [[1.0 + 0.2 * p1 ** 2, p1 + 1j * p2],
             [p1 + 1j * p2, -1.0 + 0.1j]]))
        with pytest.raises(NoConvergence):
            sweep.locate_ep(fam, seed=(0.1, 0.8))


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
        start = np.sort_complex(rep.contour[0][1])
        end = np.sort_complex(rep.contour[-1][1])
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
