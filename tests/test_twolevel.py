import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhspec import linalg, twolevel
from nhspec.errors import AtExceptionalPoint, DegenerateInput, NotAtEP


def model(eps1, eps2, omega):
    return twolevel.TwoLevelModel(eps1=eps1, eps2=eps2, omega=omega)


class TestEigenvalues:
    def test_canonical_ep(self):
        ep, em, z = twolevel.eigenvalues(model(1.0, -1.0, 1j))
        assert abs(z) < 1e-14
        assert abs(ep) < 1e-14 and abs(em) < 1e-14

    def test_decoupled(self):
        ep, em, z = twolevel.eigenvalues(model(2.0, -1.0, 0.0))
        assert {round(ep.real, 12), round(em.real, 12)} == {2.0, -1.0}
        assert abs(z - 1.5) < 1e-14

    def test_quadratic_formula_oracle(self):
        m = model(1 - 0.5j, 2 - 0.1j, 0.3 + 0.1j)
        ep, em, _ = twolevel.eigenvalues(m)
        roots = np.roots([1.0, -(m.eps1 + m.eps2),
                          m.eps1 * m.eps2 - m.omega ** 2])
        assert np.allclose(sorted([ep, em], key=lambda v: v.real),
                           np.sort_complex(roots), atol=1e-12)

    def test_matches_dense_eig(self):
        m = model(1 - 0.5j, 2 - 0.1j, 0.3 + 0.1j)
        ep, em, _ = twolevel.eigenvalues(m)
        sys = linalg.eig(linalg.as_matrix(m.matrix().entries))
        assert np.allclose(np.sort_complex(np.array([ep, em])),
                           np.sort_complex(sys.values), atol=1e-12)

    def test_sum_exact(self):
        m = model(0.7 - 0.2j, -0.4 - 0.9j, 0.2 + 0.6j)
        ep, em, _ = twolevel.eigenvalues(m)
        assert abs((ep + em) - (m.eps1 + m.eps2)) < 1e-14


class TestEpLocations:
    def test_canonical(self):
        wp, wm = twolevel.ep_locations(1.0, -1.0)
        assert {wp, wm} == {1j, -1j}

    def test_rotated(self):
        wp, wm = twolevel.ep_locations(1j, -1j)
        assert {wp, wm} == {-1.0, 1.0}

    def test_z_vanishes_at_returned_points(self):
        eps1, eps2 = 0.3 - 0.2j, -0.1 - 0.7j
        for w in twolevel.ep_locations(eps1, eps2):
            _, _, z = twolevel.eigenvalues(model(eps1, eps2, w))
            assert abs(z) < 1e-14

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            twolevel.ep_locations(1.0, 1.0)


class TestCoalescenceRelation:
    def test_at_canonical_ep(self):
        rep = twolevel.coalescence_relation_check(model(1.0, -1.0, 1j))
        assert np.abs(rep.ratio - rep.sign * 1j).max() < 1e-6

    def test_slightly_off_ep(self):
        rep = twolevel.coalescence_relation_check(
            model(1.0, -1.0, 1j * (1 + 1e-4)))
        assert np.abs(np.abs(rep.ratio) - 1.0).max() < 1e-2
        assert np.abs(rep.ratio - rep.sign * 1j).max() < 1e-1

    def test_far_from_ep_rejected(self):
        with pytest.raises(NotAtEP):
            twolevel.coalescence_relation_check(model(1.0, -1.0, 0.3))


class TestPT:
    def test_threshold(self):
        m = twolevel.PTTwoLevelModel(e=0.2, gamma=1.0, omega=0.5)
        ep, em, broken = twolevel.pt_eigenvalues(m)
        assert abs(ep - 0.2) < 1e-14 and abs(em - 0.2) < 1e-14
        assert not broken

    def test_hermitian_limit(self):
        m = twolevel.PTTwoLevelModel(e=0.0, gamma=0.0, omega=0.7)
        ep, em, broken = twolevel.pt_eigenvalues(m)
        assert not broken
        assert {round(ep.real, 12), round(em.real, 12)} == {0.7, -0.7}

    def test_broken_pair(self):
        m = twolevel.PTTwoLevelModel(e=0.5, gamma=1.0, omega=0.3)
        ep, em, broken = twolevel.pt_eigenvalues(m)
        assert broken
        z = 0.5 * np.sqrt(1.0 - 0.36)
        assert abs(ep - (0.5 + 1j * z)) < 1e-12 or \
            abs(ep - (0.5 - 1j * z)) < 1e-12
        assert abs(ep - np.conj(em)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(0.0, 5.0), omega=st.floats(-5.0, 5.0))
    def test_reality_iff_threshold(self, gamma, omega):
        m = twolevel.PTTwoLevelModel(e=0.1, gamma=gamma, omega=omega)
        ep, em, broken = twolevel.pt_eigenvalues(m)
        real = max(abs(ep.imag), abs(em.imag)) < 1e-10
        assert real == (abs(omega) >= gamma / 2 - 1e-10)


class TestNonlinearSource:
    def test_zero_coupling(self):
        assert twolevel.nonlinear_source_residual(model(1.0, -1.0, 0.0)) == 0.0

    def test_generic_dissipative(self):
        m = model(1 - 0.5j, 2 - 0.1j, 0.3 + 0.1j)
        assert twolevel.nonlinear_source_residual(m) < 1e-10

    def test_near_ep_still_exact(self):
        m = model(1.0, -1.0, 1j * (1 + 1e-3))
        assert twolevel.nonlinear_source_residual(m) < 1e-8

    def test_exact_ep_raises(self):
        # the fixture's coalescence: the c-norm vanishes and is flagged;
        # at the second, omega = i (eps1 - eps2)/2 as well, LAPACK splits
        # the pair by sqrt(eps) and leaves a c-norm of 1e-8 unflagged
        for m in (model(1.0, -1.0, 1j), model(0.5 - 0.25j, -0.5 - 0.25j, 0.5j)):
            with pytest.raises(AtExceptionalPoint):
                twolevel.nonlinear_source_residual(m)


AC_KW = dict(e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0)


class TestClassifyCrossing:
    a_grid = np.linspace(0.0, 2.0, 41)

    def test_discrete_avoided(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.0, gamma2_0=0.0,
                                          omega=0.3, **AC_KW)
        c = twolevel.classify_crossing(m, self.a_grid)
        assert c.kind == "discrete_avoided"
        assert c.gamma1_cr is None

    def test_free_crossing_and_critical_width(self):
        # |gamma1 - gamma2| = 4|omega| at the critical coupling
        m = twolevel.AvoidedCrossingModel(gamma1_0=4.0, gamma2_0=0.5,
                                          omega=0.3, **AC_KW)
        c = twolevel.classify_crossing(m, self.a_grid)
        assert c.kind == "free_crossing"
        # both widths scale together, so the critical point sits where
        # |gamma1 - gamma2| = 4 |omega| along the ray (gamma1, gamma2)
        gamma1_cr = 4 * 0.3 * 4.0 / 3.5
        assert abs(c.gamma1_cr - gamma1_cr) < 1e-14 * gamma1_cr

    def test_avoided_crossing(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.4, gamma2_0=0.05,
                                          omega=0.3, **AC_KW)
        c = twolevel.classify_crossing(m, self.a_grid)
        assert c.kind == "avoided_crossing"

    def test_exceptional_point(self):
        m0 = twolevel.AvoidedCrossingModel(gamma1_0=0.4, gamma2_0=0.05,
                                          omega=0.3, **AC_KW)
        gamma1_cr = twolevel.find_critical_width(m0, self.a_grid)
        scale = gamma1_cr / 0.4
        m = twolevel.AvoidedCrossingModel(gamma1_0=gamma1_cr,
                                          gamma2_0=0.05 * scale,
                                          omega=0.3, **AC_KW)
        c = twolevel.classify_crossing(m, self.a_grid)
        assert c.kind == "exceptional_point"


@st.composite
def crossing_models(draw):
    """Avoided-crossing models with real or complex coupling, and an a range
    that brackets the level crossing."""
    unit = st.floats(-2.0, 2.0)
    slopes = draw(st.tuples(unit, unit).filter(lambda s: abs(s[0] - s[1]) > 0.1))
    omega = complex(draw(unit), draw(st.sampled_from([0.0, 1.0])) * draw(unit))
    m = twolevel.AvoidedCrossingModel(
        e1_0=draw(unit), e1_slope=slopes[0], e2_0=draw(unit),
        e2_slope=slopes[1], gamma1_0=draw(st.floats(0.01, 4.0)),
        gamma2_0=draw(st.floats(0.0, 4.0)), omega=omega)
    lo, hi = draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 3.0))
    return m, np.array([m.a_cr - lo, m.a_cr + hi])


def dense_sq_gap(m, lo, hi, points=101, levels=8):
    """Minimum of |2Z|^2 over [lo, hi] at width scale 1 by nested dense
    sampling: each level resamples the brackets of the previous level's
    three lowest local minima, so the last spacing is about 1e-14 (hi - lo)."""
    def sq_gap(a):
        return abs(2.0 * twolevel.eigenvalues(m.model_at(a))[2]) ** 2

    best, brackets = np.inf, [(lo, hi)]
    for _ in range(levels):
        found = []
        for left, right in brackets:
            a = np.linspace(left, right, points)
            g = np.array([sq_gap(x) for x in a])
            best = min(best, g.min())
            padded = np.concatenate([[np.inf], g, [np.inf]])
            minima = np.flatnonzero((g <= padded[:-2]) & (g <= padded[2:]))
            found += [(g[i], a[max(i - 1, 0)], a[min(i + 1, points - 1)])
                      for i in minima]
        brackets = [(left, right) for _, left, right in sorted(found)[:3]]
    return best


class TestCriticalWidthClosedForm:
    @settings(max_examples=60)
    @given(crossing_models())
    def test_returned_width_is_an_ep(self, case):
        m, a_grid = case
        gamma1_cr = twolevel.find_critical_width(m, a_grid)
        dgamma = m.gamma1_0 - m.gamma2_0
        residuals = []
        for sigma in (1.0, -1.0):
            # eps1 - eps2 = 2i sigma omega: its real part fixes a
            a = m.a_cr - sigma * 2.0 * m.omega.imag / (m.e1_slope - m.e2_slope)
            if gamma1_cr is None:
                assert dgamma == 0.0 or not (
                    -sigma * m.omega.real / dgamma >= 0.0
                    and a_grid[0] <= a <= a_grid[1])
                continue
            scale = gamma1_cr / m.gamma1_0
            at = type(m)(**dict(m._asdict(), gamma1_0=scale * m.gamma1_0,
                                gamma2_0=scale * m.gamma2_0)).model_at(a)
            _, _, z = twolevel.eigenvalues(at)
            # |Z| is the square root of a cancellation, about sqrt(eps) *
            # scale at an exact EP of rounded entries; the EP condition is
            # linear in the entries and holds to rounding
            residuals.append((abs(at.eps1 - at.eps2 - 2j * sigma * at.omega)
                              / at.scale, abs(z) ** 2 / at.scale ** 2))
        if gamma1_cr is not None:
            assert gamma1_cr >= 0.0
            assert max(min(residuals)) <= 1e-12

    @settings(max_examples=60)
    @given(crossing_models())
    def test_min_gap_is_the_minimum_over_a(self, case):
        m, (lo, hi) = case
        got = twolevel.classify_crossing(m, np.array([lo, hi])).min_gap
        scale = max(m.model_at(lo).scale, m.model_at(hi).scale)
        # compared as |2Z|^2, which is smooth in a even where the gap
        # closes; there |2Z| has a square-root cusp no sampling resolves
        dense = dense_sq_gap(m, lo, hi)
        assert got ** 2 <= dense + 1e-14 * scale ** 2
        assert dense - got ** 2 <= 1e-12 * scale ** 2

    def test_none_cases(self):
        kw = dict(AC_KW, omega=0.3)
        grid = np.linspace(0.0, 2.0, 41)
        assert twolevel.find_critical_width(twolevel.AvoidedCrossingModel(
            gamma1_0=0.0, gamma2_0=0.5, **kw), grid) is None
        assert twolevel.find_critical_width(twolevel.AvoidedCrossingModel(
            gamma1_0=0.5, gamma2_0=0.5, **kw), grid) is None
        # e1 - e2 = -2 sigma Im omega puts the EP at a = 1 - sigma, and
        # s >= 0 takes sigma = -1 here: a = 2 lies off a grid around a_cr = 1
        off = dict(AC_KW, omega=0.3 + 1.0j)
        m = twolevel.AvoidedCrossingModel(gamma1_0=1.0, gamma2_0=0.5, **off)
        assert twolevel.find_critical_width(m, [0.8, 1.2]) is None
        assert twolevel.find_critical_width(m, [0.0, 3.0]) == 4 * 0.3 / 0.5


class TestDeltaDiagnostic:
    def test_free_crossing_delta_one(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=4.0, gamma2_0=0.5,
                                          omega=0.3, **AC_KW)
        rep = twolevel.delta_diagnostic(m, m.a_cr)
        assert abs(rep.delta - 1.0) < 1e-6

    def test_avoided_delta_zero(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.4, gamma2_0=0.05,
                                          omega=0.3, **AC_KW)
        rep = twolevel.delta_diagnostic(m, m.a_cr)
        assert abs(rep.delta) < 1e-6

    def test_discrete_half_half(self):
        m = twolevel.AvoidedCrossingModel(gamma1_0=0.0, gamma2_0=0.0,
                                          omega=0.3, **AC_KW)
        rep = twolevel.delta_diagnostic(m, m.a_cr)
        assert np.abs(np.abs(rep.b) ** 2 - 0.5).max() < 1e-6


class TestRigidityTrends:
    def test_r_to_one_at_weak_coupling(self):
        m = model(1.0, -1.0, 1e-8 * 1j)
        sys = linalg.c_normalize(linalg.eig(m.matrix()))
        assert (sys.rigidity_r > 1 - 1e-6).all()

    def test_monotone_collapse_toward_ep(self):
        def r_at(frac):
            m = model(1.0, -1.0, 1j * frac)
            sys = linalg.c_normalize(linalg.eig(m.matrix()))
            return sys.rigidity_r.min()

        assert r_at(0.99) < r_at(0.5) < r_at(0.1)

    def test_width_bifurcation_beyond_ep(self):
        # real detuning, imaginary coupling past the EP magnitude
        ep, em, _ = twolevel.eigenvalues(model(1.0, -1.0, 1.5j))
        assert abs(ep.real - em.real) < 1e-12
        assert abs(ep.imag - em.imag) > 0.1
