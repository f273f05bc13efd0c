"""In-process workloads: inputs built from the seed, ops and their checks.

Each workload function returns a list of `Op`.  `run` is the timed call into
nhspec; `check` runs outside the timed region on its output and returns
an error message, or None when the output is right.  References that do
not change between passes are computed once, on first use.
"""

import functools

import numpy as np
from scipy.optimize import linear_sum_assignment

from nhspec import opensys, scattering, sweep, twolevel


class Op:
    # `kernel` names the reference kernel that loads the machine the way
    # this op does (see worker.ComputeReference)
    def __init__(self, name, run, check, kernel="mixed"):
        self.name = name
        self.run = run
        self.check = check
        self.kernel = kernel


def _max_matched_diff(values, ref):
    """Largest distance after pairing two eigenvalue lists one to one."""
    cost = np.abs(values[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _check_rows(rows, reference, tol, what):
    for row in rows:
        err = _max_matched_diff(row.values, reference(row.param))
        if not err <= tol:
            return f"{what}: eigenvalues off by {err:.3e} at param {row.param!r}"
    if len(rows) < 2:
        return f"{what}: {len(rows)} rows"
    return None


def _check_steps(result, spec):
    params = np.array([r.param for r in result.rows])
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    if not np.isin(grid, params).all():
        return "sweep rows do not cover the grid"
    return None


def _two_level_pair(m):
    plus, minus, _ = twolevel.eigenvalues(m)
    return np.array([plus, minus])


def _closed_form_sweep(name, spec, model_at):
    reference = functools.lru_cache(maxsize=None)(
        lambda t: _two_level_pair(model_at(t)))

    def check(result):
        return _check_steps(result, spec) or _check_rows(
            result.rows, reference, 1e-6 * model_at(spec.stop).scale, name)

    return Op(name, lambda: sweep.sweep(spec), check)


def _ep_check(exact, tol):
    def check(loc):
        err = abs(complex(loc.p1, loc.p2) - exact)
        if not err <= tol:
            return (f"EP at ({loc.p1!r}, {loc.p2!r}) is {err:.3e} from "
                    f"the exact point {exact!r}")
        return None
    return check


def sweep_small(seed, tiny=False):
    """Per-point Python overhead: 2x2 sweeps, transport, toy model, EP search."""
    rng = np.random.default_rng(seed)
    steps = 41 if tiny else 2001
    d1, d2 = rng.uniform(0.0, 0.05, 2)
    two = twolevel.TwoLevelModel(eps1=1.0 + d1, eps2=-1.0 - d2, omega=0.5j)
    ep_im = 0.5 * (two.eps1 - two.eps2).real
    two_spec = sweep.SweepSpec(two, "omega_im", 0.5, 1.5, steps)
    avoided = twolevel.AvoidedCrossingModel(
        e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, gamma1_0=0.0,
        gamma2_0=0.0, omega=0.3 * (1.0 + rng.uniform(-0.1, 0.1)))
    avoided_spec = sweep.SweepSpec(avoided, "a", 0.0, 2.0, steps)
    # centred on the EP, as encircle's enclosure test needs
    loop = sweep.EncircleSpec(center=1j * ep_im, radius=0.5,
                              steps_per_cycle=64 if tiny else 256, cycles=4)
    h0 = np.arange(-10.0, 11.0) + rng.uniform(-0.1, 0.1, 21)
    v = rng.uniform(0.8, 1.2, 21)
    alphas = np.linspace(0.01, 5.0, 60 if tiny else 1200)
    locate_seed = (0.1, 0.8) + rng.uniform(-0.05, 0.05, 2)
    # a family without a closed form; kept fixed because at the seed
    # commit this search ends in NoConvergence on every input tried
    plane = sweep.PlaneFamily(fn=lambda p1, p2: np.array(
        [[1.0 + 0.2 * p1 ** 2, p1 + 1j * p2], [p1 + 1j * p2, -1.0 + 0.1j]]))

    def with_omega_im(t):
        return twolevel.TwoLevelModel(two.eps1, two.eps2, complex(0.0, t))

    def check_loop(rep):
        got = (rep.encloses_ep, rep.eigenvalue_period, rep.eigenvector_period)
        return None if got == (True, 2, 4) else f"encircle reported {got}"

    trap_ref = {}

    def check_trap(rep):
        for t in range(0, len(alphas), max(len(alphas) // 24, 1)):
            if t not in trap_ref:
                trap_ref[t] = np.linalg.eigvals(
                    np.diag(h0) - 1j * alphas[t] * np.outer(v, v))
            err = _max_matched_diff(rep.values[t], trap_ref[t])
            if not err <= 1e-10 * np.abs(trap_ref[t]).max():
                return f"toy_trapping off by {err:.3e} at alpha {alphas[t]!r}"
        return None

    return [
        _closed_form_sweep("sweep_two_level", two_spec, with_omega_im),
        _closed_form_sweep("sweep_avoided", avoided_spec, avoided.model_at),
        Op("encircle", lambda: sweep.encircle(loop, two), check_loop),
        Op("toy_trapping", lambda: opensys.toy_trapping(h0, v, alphas),
           check_trap),
        Op("locate_closed_form",
           lambda: sweep.locate_ep(two, tuple(locate_seed), p1="omega_re",
                                   p2="omega_im"),
           _ep_check(1j * ep_im, 1e-8)),
        Op("locate_no_closed_form",
           lambda: sweep.locate_ep(plane, (0.05, 0.9)),
           _ep_check(complex(0.05, 1.0 + 0.1 * 0.05 ** 2), 1e-8)),
    ]


def _complex_symmetric(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _random_sweep(name, rng, n, steps):
    a = _complex_symmetric(rng, n)
    b = _complex_symmetric(rng, n)
    family = sweep.MatrixFamily(fn=lambda t: a + t * b)
    spec = sweep.SweepSpec(family, "t", 0.0, 1.0, steps)
    reference = functools.lru_cache(maxsize=None)(
        lambda t: np.linalg.eigvals(a + t * b))
    scale = np.abs(a).max() + np.abs(b).max()

    def check(result):
        return _check_steps(result, spec) or _check_rows(
            result.rows, reference, 1e-8 * scale, name)

    return Op(name, lambda: sweep.sweep(spec), check)


def sweep_large(seed, tiny=False):
    """LAPACK-bound sweeps of random complex-symmetric A + tB."""
    rng = np.random.default_rng(seed)
    steps = 21 if tiny else 201
    return [_random_sweep("sweep_n64", rng, 8 if tiny else 64, steps),
            _random_sweep("sweep_n32", rng, 6 if tiny else 32, steps)]


def _bic_pair(rng):
    delta = 3e-7 * rng.uniform(0.9, 1.1)
    return scattering.SMatrixModel.from_effective_hamiltonian(
        np.diag([-delta, delta]), np.array([[1.0], [1.0]]),
        energy_grid=np.linspace(-5.0, 5.0, 1001))


def continuum(seed, tiny=False):
    """H_eff with a discretized continuum and per-energy S-matrix loops."""
    rng = np.random.default_rng(seed)
    n_states = 4 if tiny else 10
    model = opensys.OpenSystemModel(
        e_b=np.sort(rng.uniform(-8.0, 8.0, n_states)),
        coupling=opensys.SemicircleCoupling(
            rng.uniform(0.1, 0.5, (n_states, 2))),
        window=(-10.0, 10.0), grid_size=201 if tiny else 2001)
    n_poles = 4 if tiny else 8
    h_b = np.diag(np.linspace(-3.5, 3.5, n_poles)
                  + rng.uniform(-0.2, 0.2, n_poles))
    gamma_hat = rng.uniform(0.2, 0.4, (n_poles, 1))
    poles = scattering.SMatrixModel.from_effective_hamiltonian(h_b, gamma_hat)
    energies = np.linspace(-6.0, 6.0, 2001 if tiny else 20001)
    bic = _bic_pair(rng)

    def check_resonances(states):
        scale = 10.0
        for k, s in enumerate(states):
            if not s.converged:
                return f"state {k} did not converge"
            z = np.linalg.eigvals(opensys.assemble_heff(model, s.energy)
                                  .matrix.entries)
            z_k = z[np.argmin(np.abs(z - s.z))]
            if not abs(z_k - s.z) <= 1e-8 * scale \
                    or not abs(z_k.real - s.energy) <= 1e-8 * scale:
                return (f"state {k}: Re z(E) - E = {z_k.real - s.energy:.3e}"
                        f" at E = {s.energy!r}")
        if len(states) != n_states:
            return f"{len(states)} states for {n_states} levels"
        return None

    def check_lineshape(rep):
        unit = np.abs(np.abs(rep.s_values) - 1.0).max()
        if not unit <= 1e-9:
            return f"|S| deviates from 1 by {unit:.3e}"
        for t in range(0, len(energies), 100):
            ref = scattering.s_matrix_resolvent(h_b, gamma_hat, energies[t])
            err = abs(rep.s_values[t] - ref[0, 0])
            if not err <= 1e-9:
                return f"S off the resolvent by {err:.3e} at E={energies[t]!r}"
        return None

    def check_bic(found):
        if len(found) != 1:
            return f"{len(found)} BICs detected, expected 1"
        jump = abs(found[0].phase_jump)
        if not abs(jump - np.pi) <= 0.1:
            return f"BIC phase jump {jump!r}, expected pi"
        return None

    return [
        Op("solve_resonances", lambda: opensys.solve_resonances(model),
           check_resonances, kernel="arrays"),
        Op("lineshape", lambda: scattering.lineshape(poles, energies),
           check_lineshape),
        Op("detect_bic", lambda: scattering.detect_bic(bic), check_bic),
    ]


WORKLOADS = {"sweep_small": sweep_small, "sweep_large": sweep_large,
             "continuum": continuum}
