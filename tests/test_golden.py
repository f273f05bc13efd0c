"""Golden artifacts: the SHA-256 of every file the fixture commands write.

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

from nhspec import cli

DATA = Path(__file__).parent / "data"
RECORD = DATA / "golden_artifacts.json"
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


def test_artifacts_match_the_record(tmp_path):
    recorded = json.loads(RECORD.read_text())
    here = toolchain()
    if {k: recorded[k] for k in here} != here:
        pytest.skip(f"artifacts recorded with {recorded['numpy']=}, "
                    f"{recorded['blas']=}; this is {here}")
    assert recorded["emit"] == EMIT
    assert [[r["command"], r["model"]] for r in recorded["runs"]] \
        == [list(r) for r in RUNS]
    for idx, (run, want) in enumerate(zip(RUNS, recorded["runs"])):
        assert outcome(*run, tmp_path / str(idx)) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = [outcome(*run, Path(tmp) / str(idx))
                for idx, run in enumerate(RUNS)]
    RECORD.write_text(json.dumps({**toolchain(), "emit": EMIT, "runs": runs},
                                 indent=1) + "\n")
