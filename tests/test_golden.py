"""Golden artifacts: the SHA-256 of every file the fixture commands write,
of the lineshape arrays of four continuum-shaped pole models, of the
outputs of the continuation ops on four sweep_small-shaped inputs, and of
the resonances, BIC detections and EP locations the other ops of those
workloads return.

Reruns only show that a build agrees with itself; these hashes show that
it agrees with the recorded one.  Floating-point bits depend on numpy and
its BLAS, so the check skips where either differs from the versions that
recorded the hashes.  After a change meant to move artifacts, record them
again with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which files moved and why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nhspec import cli, opensys, scattering, sweep, twolevel

DATA = Path(__file__).parent / "data"
RECORD = DATA / "golden_artifacts.json"
LINESHAPE_RECORD = DATA / "golden_lineshapes.json"
LINESHAPE_SEEDS = (0, 1, 2, 901)
SWEEP_RECORD = DATA / "golden_sweeps.json"
SWEEP_SEEDS = (0, 1, 2, 7)
OPS_RECORD = DATA / "golden_ops.json"
EMIT = "csv,json,svg"
RUNS = (
    ("sweep", "two_level_sweep.json"),
    ("sweep", "avoided_iv.json"),
    ("locate", "two_level_sweep.json"),
    ("encircle", "two_level_sweep.json"),
    ("trap", "trapping_chain.json"),
    ("scatter", "double_pole.json"),
    ("scatter", "bic_pair.json"),
    ("heff", "open_system.json"),
    ("sweep", "bad_missing_omega.json"),
    ("heff", "open_system_tabulated.json"),
)


def toolchain():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def outcome(command, model, out):
    """Exit code, stdout, stderr and artifact hashes of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--model", str(DATA / model),
                         "--out", str(out), "--emit", EMIT])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"command": command, "model": model, "exit": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in files}}


def continuum_models(seed):
    """The open-system model (10 levels, two semicircle channels, a
    2001-point grid), the pole model (8 levels near -3.5..3.5, one channel)
    and the BIC pair, drawn as perfbench's `continuum` workload draws them."""
    rng = np.random.default_rng(seed)
    model = opensys.OpenSystemModel(
        e_b=np.sort(rng.uniform(-8.0, 8.0, 10)),
        coupling=opensys.SemicircleCoupling(rng.uniform(0.1, 0.5, (10, 2))),
        window=(-10.0, 10.0), grid_size=2001)
    h_b = np.diag(np.linspace(-3.5, 3.5, 8) + rng.uniform(-0.2, 0.2, 8))
    gamma_hat = rng.uniform(0.2, 0.4, (8, 1))
    poles = scattering.SMatrixModel.from_effective_hamiltonian(h_b, gamma_hat)
    delta = 3e-7 * rng.uniform(0.9, 1.1)
    bic = scattering.SMatrixModel.from_effective_hamiltonian(
        np.diag([-delta, delta]), np.array([[1.0], [1.0]]),
        energy_grid=np.linspace(-5.0, 5.0, 1001))
    return model, poles, bic


def continuum_lineshape(seed):
    """The lineshape of the continuum pole model on 20001 energies."""
    _, m, _ = continuum_models(seed)
    rep = scattering.lineshape(m, np.linspace(-6.0, 6.0, 20001))
    return {"seed": seed, **{name: hashlib.sha256(
        getattr(rep, name).tobytes()).hexdigest()
        for name in ("s_values", "sigma", "phase")}}


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def typed(value):
    """A value's type name, dtype and bytes, for sha."""
    return (type(value).__name__.encode(), np.asarray(value).dtype.str.encode(),
            np.asarray(value))


def fields_sha(records, fields):
    """Per field, the SHA-256 of every record's typed value of that field."""
    return {field: sha(*(x for r in records for x in typed(getattr(r, field))))
            for field in fields}


def continuum_ops(seed):
    """solve_resonances and detect_bic on the continuum models."""
    model, _, bic = continuum_models(seed)
    states = opensys.solve_resonances(model)
    found = scattering.detect_bic(bic)
    return {"seed": seed, "states": len(states), "bics": len(found),
            "solve_resonances": fields_sha(
                states, opensys.ResonanceState._fields),
            "detect_bic": fields_sha(found, scattering.BicDetection._fields)}


def sweep_small_inputs(seed):
    """The two-level and avoided-crossing models, the trapping model's h0
    and v, and the EP search seed, drawn as perfbench's `sweep_small`
    workload draws them."""
    rng = np.random.default_rng(seed)
    d1, d2 = rng.uniform(0.0, 0.05, 2)
    two = twolevel.TwoLevelModel(eps1=1.0 + d1, eps2=-1.0 - d2, omega=0.5j)
    avoided = twolevel.AvoidedCrossingModel(
        e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, gamma1_0=0.0,
        gamma2_0=0.0, omega=0.3 * (1.0 + rng.uniform(-0.1, 0.1)))
    h0 = np.arange(-10.0, 11.0) + rng.uniform(-0.1, 0.1, 21)
    v = rng.uniform(0.8, 1.2, 21)
    locate_seed = (0.1, 0.8) + rng.uniform(-0.05, 0.05, 2)
    return two, avoided, h0, v, locate_seed


def sweep_outputs(seed):
    """The continuation ops on the sweep_small inputs: a two-level omega_im
    sweep and an avoided-crossing sweep (2001 points each), encircling the
    EP 256 x 4 steps and the 21-state trapping model over 1200 alphas."""
    two, avoided, h0, v, _ = sweep_small_inputs(seed)
    loop = sweep.EncircleSpec(center=0.5j * (two.eps1 - two.eps2).real,
                              radius=0.5, steps_per_cycle=256, cycles=4)
    out = {"seed": seed}
    for name, spec in (
            ("sweep_two_level", sweep.SweepSpec(two, "omega_im", 0.5, 1.5,
                                                2001)),
            ("sweep_avoided", sweep.SweepSpec(avoided, "a", 0.0, 2.0, 2001))):
        res = sweep.sweep(spec)
        out[name] = {field: sha(getattr(res, field)) for field in (
            "params", "values", "norms_A", "rigidity_r", "min_gap")}
        out[name]["events"] = sha(json.dumps(
            [list(e) for e in res.events]).encode())
    rep = sweep.encircle(loop, two)
    out["encircle"] = {
        "permutations": [list(c.permutation) for c in rep.cycles],
        "phases": sha(*(c.phases for c in rep.cycles)),
        "values": sha(rep.values)}
    out["toy_trapping"] = {"values": sha(opensys.toy_trapping(
        h0, v, np.linspace(0.01, 5.0, 1200)).values)}
    return out


def locate_outputs(seed):
    """Both locate_ep ops of sweep_small: the two-level model in the
    coupling plane from the drawn seed, and the fixed plane family without
    a closed form."""
    two, _, _, _, locate_seed = sweep_small_inputs(seed)
    plane = sweep.PlaneFamily(fn=lambda p1, p2: np.array(
        [[1.0 + 0.2 * p1 ** 2, p1 + 1j * p2], [p1 + 1j * p2, -1.0 + 0.1j]]))
    return {"seed": seed, **{name: fields_sha([loc], sweep.EpLocation._fields)
                             for name, loc in (
        ("locate_closed_form", sweep.locate_ep(
            two, tuple(locate_seed), p1="omega_re", p2="omega_im")),
        ("locate_no_closed_form", sweep.locate_ep(plane, (0.05, 0.9))))}}


def recorded_here(path):
    recorded = json.loads(path.read_text())
    here = toolchain()
    if {k: recorded[k] for k in here} != here:
        pytest.skip(f"recorded with {recorded['numpy']=}, "
                    f"{recorded['blas']=}; this is {here}")
    return recorded


def test_artifacts_match_the_record(tmp_path):
    recorded = recorded_here(RECORD)
    assert recorded["emit"] == EMIT
    assert [[r["command"], r["model"]] for r in recorded["runs"]] \
        == [list(r) for r in RUNS]
    for idx, (run, want) in enumerate(zip(RUNS, recorded["runs"])):
        assert outcome(*run, tmp_path / str(idx)) == want


@pytest.mark.parametrize("seed", LINESHAPE_SEEDS)
def test_lineshapes_match_the_record(seed):
    recorded = recorded_here(LINESHAPE_RECORD)
    want, = [r for r in recorded["lineshapes"] if r["seed"] == seed]
    assert continuum_lineshape(seed) == want


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweeps_match_the_record(seed):
    recorded = recorded_here(SWEEP_RECORD)
    want, = [r for r in recorded["sweeps"] if r["seed"] == seed]
    assert sweep_outputs(seed) == want


@pytest.mark.parametrize("seed", LINESHAPE_SEEDS)
def test_continuum_ops_match_the_record(seed):
    recorded = recorded_here(OPS_RECORD)
    want, = [r for r in recorded["continuum"] if r["seed"] == seed]
    assert continuum_ops(seed) == want


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_locate_ops_match_the_record(seed):
    recorded = recorded_here(OPS_RECORD)
    want, = [r for r in recorded["locate"] if r["seed"] == seed]
    assert locate_outputs(seed) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = [outcome(*run, Path(tmp) / str(idx))
                for idx, run in enumerate(RUNS)]
    RECORD.write_text(json.dumps({**toolchain(), "emit": EMIT, "runs": runs},
                                 indent=1) + "\n")
    LINESHAPE_RECORD.write_text(json.dumps({**toolchain(), "lineshapes": [
        continuum_lineshape(seed) for seed in LINESHAPE_SEEDS]}, indent=1)
        + "\n")
    SWEEP_RECORD.write_text(json.dumps({**toolchain(), "sweeps": [
        sweep_outputs(seed) for seed in SWEEP_SEEDS]}, indent=1) + "\n")
    OPS_RECORD.write_text(json.dumps({
        **toolchain(),
        "continuum": [continuum_ops(seed) for seed in LINESHAPE_SEEDS],
        "locate": [locate_outputs(seed) for seed in SWEEP_SEEDS]}, indent=1)
        + "\n")
