"""End-to-end acceptance suite.

Each test prints one verdict line; run with -rP (the repository default)
to see all of them in the summary.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from nhspec import cli, linalg, opensys, scattering, sweep, twolevel

DATA = Path(__file__).parent / "data"

T_DEFECTIVE = np.array([[1.0, 1j], [1j, -1.0]])


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [FAIL] {label}")
        raise
    print(f"criterion {number:2d} [PASS] {label}")


def gap_tuned_matrix(gap):
    """Canonical two-level matrix with eigenvalue gap exactly gap."""
    z = 0.5 * gap
    omega = 1j * np.sqrt(1.0 - z * z)
    return np.array([[1.0, omega], [omega, -1.0]])


def c_normalized(h):
    return linalg.c_normalize(linalg.eig(linalg.as_matrix(h)))


def test_criterion_1_canonical_ep():
    with criterion(1, "canonical defective matrix, Jordan chain, locate_ep"):
        t0 = time.perf_counter()
        for sign in (1.0, -1.0):
            t = np.array([[1.0, sign * 1j], [sign * 1j, -1.0]])
            sys = linalg.eig(linalg.as_matrix(t))
            assert np.abs(sys.values).max() < 1e-8
            phi, phia = linalg.jordan_chain(linalg.as_matrix(t), 0.0)
            assert np.linalg.norm(t @ phi) < 1e-10
            assert np.linalg.norm(t @ phia - phi) < 1e-10
        model = twolevel.TwoLevelModel(eps1=1.0, eps2=-1.0, omega=0.1 + 0.8j)
        loc = sweep.locate_ep(model, seed=(0.1, 0.8), p1="omega_re",
                              p2="omega_im")
        assert abs(loc.p1) < 1e-8 and abs(loc.p2 - 1.0) < 1e-8
        assert loc.gap < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_encircling():
    with criterion(2, "eigenvalue period 2, eigenvector period 4, phases"):
        t0 = time.perf_counter()
        model = twolevel.TwoLevelModel(eps1=0.5 - 0.4j, eps2=-0.5 - 0.1j,
                                       omega=0.0)
        w_ep, _ = twolevel.ep_locations(model.eps1, model.eps2)
        spec = sweep.EncircleSpec(center=w_ep, radius=0.4 * abs(w_ep),
                                  steps_per_cycle=256, cycles=4)
        rep = sweep.encircle(spec, model)
        assert rep.encloses_ep
        assert rep.eigenvalue_period == 2
        assert rep.eigenvector_period == 4
        p1, p2, p3, p4 = (c.phases for c in rep.cycles)
        assert np.abs(p1 ** 2 + 1.0).max() < 1e-3    # one cycle: +/- i
        assert np.abs(p1[0] + p1[1]).max() < 1e-3    # opposite quarter turns
        assert np.abs(p2 + 1.0).max() < 1e-3         # two cycles: -1
        assert np.abs(p3 + p1).max() < 1e-3          # three cycles: -/+ i
        assert np.abs(p4 - 1.0).max() < 1e-3         # four cycles: restored
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_phase_rigidity_collapse():
    with criterion(3, "phase rigidity 1 at weak coupling, 0 at the EP"):
        # ray omega = i t toward the branch point at t = 1
        weak = c_normalized(np.array([[1.0, 1e-3j], [1e-3j, -1.0]]))
        assert weak.rigidity_r.min() >= 0.999
        near = c_normalized(gap_tuned_matrix(1e-3))
        assert near.rigidity_r.max() <= 0.01
        for t in np.linspace(1e-3, 0.999, 50):
            sys = c_normalized(np.array([[1.0, 1j * t], [1j * t, -1.0]]))
            assert (sys.rigidity_r >= -1e-12).all()
            assert (sys.rigidity_r <= 1.0 + 1e-12).all()


def test_criterion_4_biorthogonality_suite():
    with criterion(4, "biorthogonality, norms, overlaps, trace (1000 cases)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (a + a.T)
            sys = c_normalized(h)
            if sys.ep_flag.any():
                continue
            u = sys.right_vectors
            assert np.abs(u.T @ u - np.eye(n)).max() < 1e-9
            assert (sys.norms_A >= 1.0 - 1e-9).all()
            b = (u.conj().T @ u)
            if n == 2:
                assert abs(b[0, 1] + b[1, 0]) < 1e-9
            off = b - np.diag(np.diag(b))
            assert np.abs(off - off.conj().T).max() < 1e-9
            scale = max(np.abs(h).max(), 1.0)
            assert abs(sys.values.sum() - np.trace(h)) < 1e-9 * n * scale
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_resonance_trapping():
    with criterion(5, "width sum rule, trapping transition, linear growth"):
        t0 = time.perf_counter()
        h0 = np.linspace(-10.0, 10.0, 21)
        v = np.ones(21)
        tr = float(np.outer(v, v).trace())
        alphas = np.linspace(0.01, 5.0, 401)
        rep = opensys.toy_trapping(h0, v, alphas)
        for t, alpha in enumerate(alphas):
            assert abs(rep.widths[t].sum() - 2.0 * alpha * tr) \
                < 1e-9 * max(2.0 * alpha * tr, 1.0)
        assert rep.fit_residual < 0.01
        assert rep.n_trapped == 20
        # the 20 trapped widths decay monotonically over the top half
        top = alphas >= 0.5 * (alphas[0] + alphas[-1])
        trapped_w = rep.widths[np.ix_(top, rep.trapped_flags)]
        assert (np.diff(trapped_w, axis=0) <= 1e-12).all()
        doubled = opensys.toy_trapping(h0, v, np.linspace(0.01, 5.0, 801))
        assert abs(doubled.alpha_cr - rep.alpha_cr) <= 0.05 * rep.alpha_cr
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_s_matrix():
    with criterion(6, "unitarity, pole sum, double-pole and one-pole phases"):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, c = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            a = rng.standard_normal((n, n))
            h_b = 0.5 * (a + a.T)
            g = rng.standard_normal((n, c)) * 0.4
            e = float(rng.normal())
            s = scattering.s_matrix_resolvent(h_b, g, e)
            assert np.abs(s.conj().T @ s - np.eye(c)).max() < 1e-9
            m = scattering.SMatrixModel.from_effective_hamiltonian(h_b, g)
            assert np.abs(scattering.s_matrix_polesum(m, e) - s).max() < 1e-8

        gamma = 0.2
        span = 4000.0 * gamma
        grid = np.linspace(-span, span, int(2 * span / (gamma / 8.0)) | 1)
        rep = scattering.double_pole_lineshape(0.0, gamma, grid)
        assert rep.sigma_at_center < 1e-25
        assert abs(rep.total_phase_change - 2.0 * np.pi) < 1e-3

        one = scattering.SMatrixModel(poles=[-0.5j * gamma],
                                      couplings=[[np.sqrt(gamma)]])
        span = 2000.0 * gamma
        grid = np.linspace(-span, span, int(2 * span / (gamma / 8.0)) | 1)
        rep = scattering.lineshape(one, grid)
        assert abs(rep.total_phase_change - np.pi) < 1e-3


def test_criterion_7_bound_state_in_continuum():
    with criterion(7, "zero-width state with a pi phase jump"):
        m = scattering.SMatrixModel.from_effective_hamiltonian(
            np.diag([-3e-7, 3e-7]), np.array([[1.0], [1.0]]),
            energy_grid=np.linspace(-5.0, 5.0, 1001))
        widths = -2.0 * m.poles.imag
        assert widths.min() < 1e-12
        dets = scattering.detect_bic(m)
        assert len(dets) == 1
        assert abs(dets[0].phase_jump - np.pi) < 0.05


def test_criterion_8_pt_threshold():
    with criterion(8, "spectrum real iff coupling beats the loss rate"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            gamma = float(rng.uniform(0.0, 4.0))
            omega = float(rng.uniform(-3.0, 3.0))
            m = twolevel.PTTwoLevelModel(e=0.1, gamma=gamma, omega=omega)
            ep, em, broken = twolevel.pt_eigenvalues(m)
            real = max(abs(ep.imag), abs(em.imag)) == 0.0
            assert real == (abs(omega) >= gamma / 2)
            assert broken == (not real)
        # bisect the reality boundary for a fixed loss rate
        gamma = 1.3
        lo, hi = 0.55, 0.75

        def is_real(omega):
            ep, em, _ = twolevel.pt_eigenvalues(
                twolevel.PTTwoLevelModel(e=0.1, gamma=gamma, omega=omega))
            return ep.imag == 0.0 and em.imag == 0.0

        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if is_real(mid):
                hi = mid
            else:
                lo = mid
        assert abs(hi - gamma / 2) < 1e-10


def test_criterion_9_mixing_sum_rule():
    with criterion(9, "mixing sum rule and crossing diagnostics"):
        # one fixed effective Hamiltonian away from any coalescence
        m = opensys.OpenSystemModel(
            e_b=[-0.5, 0.5], coupling=opensys.ConstantCoupling([[0.3], [0.2]]),
            window=(-10.0, 10.0), grid_size=801)
        sys = linalg.c_normalize(linalg.eig(opensys.assemble_heff(m, 0.3).matrix))
        states = [opensys.ResonanceState(
            z=complex(sys.values[k]), phi=sys.right_vectors[:, k],
            gamma_c=np.zeros(1, complex), energy=0.3, converged=True,
            iterations=1) for k in range(2)]
        res = opensys.mixing_coefficients(states)
        assert res.sum_rule_residual < 1e-9
        assert not res.flagged.any()

        near = c_normalized(gap_tuned_matrix(1e-6))
        near_states = [opensys.ResonanceState(
            z=complex(near.values[k]), phi=near.right_vectors[:, k],
            gamma_c=np.zeros(1, complex), energy=0.0, converged=True,
            iterations=1) for k in range(2)]
        near_res = opensys.mixing_coefficients(near_states)
        assert near_res.sum_rule_residual < 1e-4
        assert opensys.mixing_coefficients(near_states, cap=100.0).flagged.any()

        kw = dict(e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, omega=0.3)
        free = twolevel.AvoidedCrossingModel(gamma1_0=4.0, gamma2_0=0.5, **kw)
        assert abs(twolevel.delta_diagnostic(free, free.a_cr).delta - 1.0) < 1e-6
        avoided = twolevel.AvoidedCrossingModel(gamma1_0=0.4, gamma2_0=0.05,
                                                **kw)
        assert abs(twolevel.delta_diagnostic(avoided, avoided.a_cr).delta) < 1e-6
        discrete = twolevel.AvoidedCrossingModel(gamma1_0=0.0, gamma2_0=0.0,
                                                 **kw)
        b = twolevel.delta_diagnostic(discrete, discrete.a_cr).b
        assert np.abs(np.abs(b) ** 2 - 0.5).max() < 1e-6


def test_criterion_10_pv_integral():
    with criterion(10, "principal value: symmetry and quadratic convergence"):
        grid = np.linspace(-1.0, 1.0, 801)
        assert abs(opensys.pv_integral(np.ones(801), grid, 0.0)) < 1e-12
        assert abs(opensys.pv_integral(grid ** 2, grid, 0.0)) < 1e-12

        window = np.array([-2.0, 3.0])
        f = lambda x: np.exp(x / 4.0)
        e = 0.7
        oracle = opensys.pv_integral(
            f, np.linspace(window[0], window[1], 1_000_001), e)
        errs = [abs(opensys.pv_integral(
            f, np.linspace(window[0], window[1], m), e) - oracle)
            for m in (2001, 4001, 8001)]
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


GOLDEN_RUNS = (
    ("sweep", "two_level_sweep.json"),
    ("locate", "two_level_sweep.json"),
    ("encircle", "two_level_sweep.json"),
    ("trap", "trapping_chain.json"),
    ("scatter", "double_pole.json"),
    ("scatter", "bic_pair.json"),
    ("heff", "open_system.json"),
)


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI outputs across reruns"):
        for idx, (command, model) in enumerate(GOLDEN_RUNS):
            dirs = (tmp_path / f"{idx}a", tmp_path / f"{idx}b")
            for out in dirs:
                code = cli.main([command, "--model", str(DATA / model),
                                 "--out", str(out)])
                assert code == 0, f"{command} on {model} exited {code}"
            a = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
            b = {p.name: p.read_bytes() for p in sorted(dirs[1].iterdir())}
            assert a == b, f"{command} on {model} not deterministic"
