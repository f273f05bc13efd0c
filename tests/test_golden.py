"""Golden artifacts: the SHA-256 of every file the fixture commands write,
of the lineshape arrays of four continuum-shaped pole models, and of the
outputs of the continuation ops on four sweep_small-shaped inputs.

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


def continuum_lineshape(seed):
    """The lineshape of the pole model drawn as perfbench's `continuum`
    workload draws it (8 levels near -3.5..3.5, one channel, 20001
    energies), after its open-system draws."""
    rng = np.random.default_rng(seed)
    rng.uniform(-8.0, 8.0, 10)
    rng.uniform(0.1, 0.5, (10, 2))
    h_b = np.diag(np.linspace(-3.5, 3.5, 8) + rng.uniform(-0.2, 0.2, 8))
    gamma_hat = rng.uniform(0.2, 0.4, (8, 1))
    m = scattering.SMatrixModel.from_effective_hamiltonian(h_b, gamma_hat)
    rep = scattering.lineshape(m, np.linspace(-6.0, 6.0, 20001))
    return {"seed": seed, **{name: hashlib.sha256(
        getattr(rep, name).tobytes()).hexdigest()
        for name in ("s_values", "sigma", "phase")}}


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sweep_outputs(seed):
    """The continuation ops on the inputs drawn as perfbench's `sweep_small`
    workload draws them: a two-level omega_im sweep and an avoided-crossing
    sweep (2001 points each), encircling the EP 256 x 4 steps and the
    21-state trapping model over 1200 alphas."""
    rng = np.random.default_rng(seed)
    d1, d2 = rng.uniform(0.0, 0.05, 2)
    two = twolevel.TwoLevelModel(eps1=1.0 + d1, eps2=-1.0 - d2, omega=0.5j)
    avoided = twolevel.AvoidedCrossingModel(
        e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, gamma1_0=0.0,
        gamma2_0=0.0, omega=0.3 * (1.0 + rng.uniform(-0.1, 0.1)))
    loop = sweep.EncircleSpec(center=0.5j * (two.eps1 - two.eps2).real,
                              radius=0.5, steps_per_cycle=256, cycles=4)
    h0 = np.arange(-10.0, 11.0) + rng.uniform(-0.1, 0.1, 21)
    v = rng.uniform(0.8, 1.2, 21)
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
