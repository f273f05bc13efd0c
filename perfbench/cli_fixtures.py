"""CLI workload: one fresh `python -m nhspec.cli` process per command.

The model files follow the shapes of the fixtures in tests/data, with
their numbers drawn from the seed.  Standard library only, so that the
set-up time of this workload is the interpreter and the input files.
"""

import cmath
import csv
import json
import math
import random
import shutil
import subprocess


class CliOp:
    def __init__(self, name, command, model, expect_rc, check):
        self.name = name
        self.command = command
        self.model = model
        self.expect_rc = expect_rc
        self.check = check
        self.kernel = "process"

    def argv(self, workdir):
        return ["--model", str(workdir / f"{self.name}.json"),
                "--out", str(workdir / self.name)]


def _read_csv(path, columns):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows[0]) != columns or any(len(r) != columns for r in rows):
        raise ValueError(f"{path.name}: expected {columns} columns")
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _two_level_values(eps1, eps2, omega):
    mean = 0.5 * (eps1 + eps2)
    z = 0.5 * cmath.sqrt((eps1 - eps2) ** 2 + 4.0 * omega ** 2)
    return mean + z, mean - z


def _pair_error(got, ref):
    a, b = got
    p, m = ref
    return min(max(abs(a - p), abs(b - m)), max(abs(a - m), abs(b - p)))


def _check_sweep(out, steps, reference, scale):
    _, rows = _read_csv(out / "sweep.csv", 7)
    if len(rows) != 2 * steps:
        return f"sweep.csv has {len(rows)} rows for {steps} steps"
    for i in range(0, len(rows), 2):
        got = [complex(r[2], r[3]) for r in rows[i:i + 2]]
        err = _pair_error(got, reference(rows[i][0]))
        if not err <= 1e-6 * scale:
            return f"sweep.csv value off by {err:.3e} at {rows[i][0]!r}"
    with open(out / "events.jsonl") as fh:
        for line in fh:
            event = json.loads(line)
            if set(event) != {"kind", "param", "indices"}:
                return f"bad event record {line.strip()}"
    return None


def build(seed, workdir):
    """Write the seeded model files and return the list of ops."""
    rnd = random.Random(seed)
    eps1 = 1.0 + rnd.uniform(0.0, 0.05)
    eps2 = -1.0 - rnd.uniform(0.0, 0.05)
    ep = 0.5j * (eps1 - eps2)
    cx = [[eps1, 0.0], [eps2, 0.0], [0.0, 0.5]]
    two_level = {
        "version": "1", "kind": "two_level",
        "parameters": {"eps1": cx[0], "eps2": cx[1], "omega": cx[2]},
        "sweep": {"parameter": "omega_im", "start": 0.5, "stop": 1.5,
                  "steps": 101},
        "locate": {"p1": "omega_re", "p2": "omega_im",
                   "seed": [0.1 + rnd.uniform(-0.05, 0.05),
                            0.8 + rnd.uniform(-0.05, 0.05)]},
        "encircle": {"center": [0.0, ep.imag], "radius": 0.5,
                     "steps_per_cycle": 256, "cycles": 4}}
    omega_av = 0.3 * (1.0 + rnd.uniform(-0.1, 0.1))
    avoided = {
        "version": "1", "kind": "avoided_crossing",
        "parameters": {"e1_0": -1.0, "e1_slope": 1.0, "e2_0": 1.0,
                       "e2_slope": -1.0, "gamma1_0": 0.0, "gamma2_0": 0.0,
                       "omega": omega_av},
        "sweep": {"parameter": "a", "start": 0.0, "stop": 2.0, "steps": 101}}
    n_trap = 21
    trapping = {
        "version": "1", "kind": "toy_trapping",
        "parameters": {"h0": [k - 10.0 + rnd.uniform(-0.1, 0.1)
                              for k in range(n_trap)],
                       "v": [rnd.uniform(0.8, 1.2) for _ in range(n_trap)]},
        "alphas": {"start": 0.01, "stop": 5.0, "steps": 120}}
    delta = 3e-7 * rnd.uniform(0.9, 1.1)
    bic_pair = {
        "version": "1", "kind": "smatrix",
        "parameters": {"h_b": [-delta, delta], "gamma_hat": [[1.0], [1.0]]},
        "grid": {"start": -5.0, "stop": 5.0, "points": 1001}}
    double_pole = {
        "version": "1", "kind": "smatrix",
        "parameters": {"double_pole": {
            "e_d": rnd.uniform(-0.1, 0.1),
            "gamma_d": 0.2 * (1.0 + rnd.uniform(-0.1, 0.1))}},
        "grid": {"start": -3.0, "stop": 3.0, "points": 4001}}
    e_b = [-0.5 + rnd.uniform(-0.05, 0.05), 0.5 + rnd.uniform(-0.05, 0.05)]
    g = 0.055 * (1.0 + rnd.uniform(-0.1, 0.1))
    open_system = {
        "version": "1", "kind": "open_system",
        "parameters": {"e_b": e_b,
                       "coupling": {"profile": "constant",
                                    "values": [[g], [g]]},
                       "window": [-10.0, 10.0], "grid_size": 2001}}
    bad = {"version": "1", "kind": "two_level",
           "parameters": {"eps1": cx[0], "eps2": cx[1]},
           "sweep": {"parameter": "omega_im", "start": 0.5, "stop": 1.5,
                     "steps": 11}}

    def check_two_level_sweep(out, stderr):
        return _check_sweep(
            out, 101, lambda t: _two_level_values(eps1, eps2, complex(0, t)),
            2.0)

    def check_avoided_sweep(out, stderr):
        def reference(a):
            return _two_level_values(-1.0 + a, 1.0 - a, omega_av)
        return _check_sweep(out, 101, reference, 2.0)

    def check_locate(out, stderr):
        rec = _read_json(out / "ep.json")
        err = abs(complex(rec["p1"], rec["p2"]) - ep)
        if not err <= 1e-8 or not rec["residual"] <= 1e-10 * 2.0:
            return f"ep.json off the exact EP by {err:.3e}"
        return None

    def check_encircle(out, stderr):
        rec = _read_json(out / "cycles.json")
        got = (rec["encloses_ep"], rec["eigenvalue_period"],
               rec["eigenvector_period"])
        if got != (True, 2, 4):
            return f"cycles.json reports {got}"
        _, rows = _read_csv(out / "contour.csv", 5)
        return None if len(rows) == 1 + 256 * 4 else "contour.csv rows"

    def check_trap(out, stderr):
        _, rows = _read_csv(out / "trapping.csv", 6)
        if len(rows) != 120 * n_trap:
            return f"trapping.csv has {len(rows)} rows"
        rec = _read_json(out / "summary.json")
        if set(rec) != {"alpha_cr", "slope", "fit_residual", "n_trapped"}:
            return f"summary.json keys {sorted(rec)}"
        return None

    def check_bic(out, stderr):
        _, rows = _read_csv(out / "smatrix.csv", 6)
        if len(rows) != 1001:
            return f"smatrix.csv has {len(rows)} rows"
        bics = _read_json(out / "features.json")["bic"]
        if len(bics) != 1 or not abs(abs(bics[0]["phase_jump"]) - math.pi) <= 0.1:
            return f"features.json bic {bics}"
        return None

    def check_double_pole(out, stderr):
        _, rows = _read_csv(out / "smatrix.csv", 6)
        if len(rows) != 4001:
            return f"smatrix.csv has {len(rows)} rows"
        rec = _read_json(out / "features.json")
        if not rec["sigma_at_center"] <= 1e-12:
            return f"sigma at the double pole is {rec['sigma_at_center']!r}"
        # the unwrapped phase sweeps 2 pi, less the tails beyond the grid
        if not abs(abs(rec["total_phase_change"]) - 2 * math.pi) <= 0.3:
            return f"phase change {rec['total_phase_change']!r}"
        return None

    def check_heff(out, stderr):
        _, rows = _read_csv(out / "resonances.csv", 8)
        if len(rows) != 2 or not all(r[5] == 1.0 for r in rows):
            return f"resonances.csv: {rows}"
        return None

    def check_bad(out, stderr):
        return None if "input error" in stderr else f"stderr: {stderr!r}"

    ops = [
        CliOp("sweep_two_level", "sweep", two_level, 0, check_two_level_sweep),
        CliOp("locate_two_level", "locate", two_level, 0, check_locate),
        CliOp("encircle_two_level", "encircle", two_level, 0, check_encircle),
        CliOp("sweep_avoided", "sweep", avoided, 0, check_avoided_sweep),
        CliOp("trap_chain", "trap", trapping, 0, check_trap),
        CliOp("scatter_bic_pair", "scatter", bic_pair, 0, check_bic),
        CliOp("scatter_double_pole", "scatter", double_pole, 0,
              check_double_pole),
        CliOp("heff_open_system", "heff", open_system, 0, check_heff),
        CliOp("bad_missing_omega", "sweep", bad, 2, check_bad),
    ]
    for op in ops:
        (workdir / f"{op.name}.json").write_text(json.dumps(op.model))
    return ops


def run(op, workdir, prefix):
    """Run one CLI command in a fresh interpreter; returns (exit code, stderr)."""
    out = workdir / op.name
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(prefix + [op.command] + op.argv(workdir),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stderr

