import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhspec import cli, linalg, opensys, scattering, sweep
from nhspec.errors import ModelFileError

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# minimal draft-07 subset validator for the emitted artifacts

def _check_type(value, ty):
    if isinstance(ty, list):
        return any(_check_type(value, t) for t in ty)
    if ty == "object":
        return isinstance(value, dict)
    if ty == "array":
        return isinstance(value, list)
    if ty == "string":
        return isinstance(value, str)
    if ty == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if ty == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if ty == "boolean":
        return isinstance(value, bool)
    if ty == "null":
        return value is None
    raise ValueError(f"unsupported type {ty!r}")


def validate(value, schema, path="$"):
    if "type" in schema:
        assert _check_type(value, schema["type"]), \
            f"{path}: {value!r} is not of type {schema['type']}"
    if "enum" in schema:
        assert value in schema["enum"], f"{path}: {value!r} not in enum"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            assert key in value, f"{path}: missing required key {key!r}"
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = set(value) - set(props)
            assert not extra, f"{path}: unexpected keys {extra}"
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        if "minItems" in schema:
            assert len(value) >= schema["minItems"], f"{path}: too short"
        if "maxItems" in schema:
            assert len(value) <= schema["maxItems"], f"{path}: too long"
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]")


def load_schema(name):
    ref = resources.files("nhspec") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validated_json(path, schema_name):
    doc = json.loads(path.read_text())
    validate(doc, load_schema(schema_name))
    return doc


def run(*argv):
    return cli.main(list(argv))


def csv_header(path):
    return path.read_text().splitlines()[0].split(",")


# ---------------------------------------------------------------------------
# subcommands on the golden model files

class TestSweepCommand:
    def test_artifacts(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path)) == 0
        assert csv_header(tmp_path / "sweep.csv") == \
            ["param", "k", "re_z", "im_z", "A", "r", "gap"]
        events = [json.loads(line) for line in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        schema = load_schema("event")
        for e in events:
            validate(e, schema)
        assert any(e["kind"] == "ep_candidate" and abs(e["param"] - 1.0) < 0.02
                   for e in events)

    def test_ep_certified_off_an_exact_hit(self, tmp_path):
        # the row nearest the EP omega = -0.15 + 0.5i has gap 2.1e-8, far
        # above rounding, and backward error 4.3e-16
        model = write_model(
            tmp_path, "two_level",
            {"eps1": [0.7, 0.1], "eps2": [-0.3, -0.2], "omega": [0.0, 0.5]},
            sweep={"parameter": "omega_re", "start": -1.0, "stop": 1.0,
                   "steps": 2001})
        assert run("sweep", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 0
        events = [json.loads(line) for line in
                  (tmp_path / "out" / "events.jsonl").read_text().splitlines()]
        assert [e["param"] for e in events if e["kind"] == "ep_candidate"] \
            == [-0.15000000000000002]

    def test_discrete_regime(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "avoided_iv.json"),
                   "--out", str(tmp_path)) == 0
        events = [json.loads(line) for line in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        avoided = [e for e in events if e["kind"] == "avoided_crossing"]
        assert len(avoided) == 1

    def test_svg_emission(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--emit", "csv,json,svg") == 0
        svg = (tmp_path / "trajectories.svg").read_text()
        assert svg.startswith("<svg ") and "polyline" in svg


class TestLocateCommand:
    def test_finds_coalescence(self, tmp_path):
        assert run("locate", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "ep.json", "ep")
        assert abs(doc["p1"]) < 1e-8
        assert abs(doc["p2"] - 1.0) < 1e-8
        assert doc["residual"] < 1e-10

    def test_seed_override(self, tmp_path):
        doc = json.loads((DATA / "two_level_sweep.json").read_text())
        doc["locate"]["seed"] = [-0.1, -0.8]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("locate", "--model", str(model),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "ep.json", "ep")
        assert abs(doc["p2"] + 1.0) < 1e-8


class TestEncircleCommand:
    def test_cycle_report(self, tmp_path):
        assert run("encircle", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "cycles.json", "cycles")
        assert doc["encloses_ep"] is True
        assert doc["eigenvalue_period"] == 2
        assert doc["eigenvector_period"] == 4
        assert csv_header(tmp_path / "contour.csv") == \
            ["theta", "re_z0", "im_z0", "re_z1", "im_z1"]


class TestTrapCommand:
    def test_summary(self, tmp_path):
        assert run("trap", "--model", str(DATA / "trapping_chain.json"),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "summary.json", "summary")
        assert doc["n_trapped"] == 20
        assert abs(doc["slope"] - 2.0) < 0.1
        assert doc["fit_residual"] < 0.01
        assert csv_header(tmp_path / "trapping.csv") == \
            ["alpha", "k", "re_z", "im_z", "gamma", "trapped_flag"]

    def test_flags_agree_with_summary(self, tmp_path):
        # at the default fraction 0.1 and a smaller one, the flags at the
        # last alpha in trapping.csv sum to summary.json's n_trapped
        doc = json.loads((DATA / "trapping_chain.json").read_text())
        for fraction in (0.1, 0.01):
            doc["parameters"]["trapped_fraction"] = fraction
            model = tmp_path / "model.json"
            model.write_text(json.dumps(doc))
            assert run("trap", "--model", str(model),
                       "--out", str(tmp_path)) == 0
            summary = json.loads((tmp_path / "summary.json").read_text())
            rows = [line.split(",") for line in
                    (tmp_path / "trapping.csv").read_text().splitlines()[1:]]
            last = rows[-1][0]
            flags = sum(int(r[5]) for r in rows if r[0] == last)
            assert flags == summary["n_trapped"]


class TestScatterCommand:
    def test_double_pole(self, tmp_path):
        assert run("scatter", "--model", str(DATA / "double_pole.json"),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "features.json", "features")
        assert doc["sigma_at_center"] < 1e-20
        assert doc["total_phase_change"] > 1.8 * np.pi
        assert doc["halfmax_span"] > doc["breit_wigner_span"]
        assert csv_header(tmp_path / "smatrix.csv") == \
            ["energy", "channel", "re_s", "im_s", "sigma", "phase"]

    def test_bic_pair(self, tmp_path):
        assert run("scatter", "--model", str(DATA / "bic_pair.json"),
                   "--out", str(tmp_path)) == 0
        doc = validated_json(tmp_path / "features.json", "features")
        assert len(doc["bic"]) == 1
        assert abs(doc["bic"][0]["phase_jump"] - np.pi) < 0.05 * np.pi

    @pytest.mark.parametrize("channel", [3, -1])
    def test_channel_out_of_range_is_input_error(self, tmp_path, capsys,
                                                  channel):
        # bic_pair has one channel: 3 used to end in an IndexError, and -1
        # silently reported the last channel
        doc = json.loads((DATA / "bic_pair.json").read_text())
        doc["parameters"]["channel"] = channel
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("scatter", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            f"nhspec: input error: channel {channel} is not in 0..0\n"
        assert not list((tmp_path / "out").glob("*"))

    def test_failing_artifact_writes_none(self, tmp_path, monkeypatch,
                                          capsys):
        # every artifact is encoded before any is written: a NaN in
        # features.json leaves no smatrix.csv behind
        lineshape = scattering.lineshape
        monkeypatch.setattr(scattering, "lineshape", lambda *a, **k: lineshape(
            *a, **k)._replace(sigma_at_center=float("nan")))
        assert run("scatter", "--model", str(DATA / "bic_pair.json"),
                   "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite value for" in err \
            and "features.json" in err
        assert not list(tmp_path.glob("*"))

    def test_json_alone_never_encodes_the_table(self, tmp_path, monkeypatch):
        # the CSV's float repr is nearly all of scatter's time
        calls = []
        monkeypatch.setattr(cli, "csv_text", lambda *a: calls.append(a))
        assert run("scatter", "--model", str(DATA / "double_pole.json"),
                   "--out", str(tmp_path), "--emit", "json") == 0
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["features.json"]


class TestHeffCommand:
    def test_resonances(self, tmp_path):
        assert run("heff", "--model", str(DATA / "open_system.json"),
                   "--out", str(tmp_path)) == 0
        lines = (tmp_path / "resonances.csv").read_text().splitlines()
        assert lines[0].split(",") == ["index", "re_z", "im_z", "width",
                                       "energy", "converged", "iterations",
                                       "residual"]
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == "1"                 # converged
            assert float(cells[3]) > 0.0           # positive width

    def test_asymmetric_v_direct_is_input_error(self, tmp_path, capsys):
        # the bound Hamiltonian is checked with the model, not as H_eff
        doc = json.loads((DATA / "open_system.json").read_text())
        doc["parameters"]["v_direct"] = [[0.0, 1.0], [2.0, 0.0]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("heff", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "nhspec: input error: diag(e_b) " \
            "+ v_direct must be finite and symmetric\n"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("fixture,e_b", [
        ("open_system_tabulated.json", [-2.5, 0.8]),
        ("open_system.json", [-0.5, 0.5, 1.5])])
    def test_coupling_rows_checked_against_e_b(self, tmp_path, capsys,
                                               fixture, e_b):
        # a coupling with another number of rows than e_b is an input error
        # naming the field, raised with the model, not in the first round
        doc = json.loads((DATA / fixture).read_text())
        doc["parameters"]["e_b"] = e_b
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("heff", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "nhspec: input error: coupling " \
            "must have one row per entry of e_b\n"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("e_b,held,message", [
        ([-9.8], [0], "states [0] did not converge: root at threshold -10.0"),
        ([-9.8, 0.0, 9.8], [0, 2], "states [0, 2] did not converge: root "
         "at threshold -10.0 for [0]; root at threshold 10.0 for [2]")],
        ids=["lower", "both"])
    def test_root_at_threshold_is_named(self, tmp_path, capsys, e_b, held,
                                        message):
        # a level 0.2 inside a window of 1-wide cells: its root lies in the
        # half cell excluded at the threshold, so the state stops in round 1
        # at the clamp edge 0.51 cells in, unconverged, with |F| there
        model = write_model(tmp_path, "open_system", {
            "e_b": e_b, "coupling": {"profile": "semicircle",
                                     "strengths": [[0.1]] * len(e_b)},
            "window": [-10.0, 10.0], "grid_size": 21})
        assert run("heff", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == \
            f"nhspec: numerical failure: {message}\n"
        rows = csv_rows(tmp_path / "out" / "resonances.csv")
        assert [k for k, r in enumerate(rows) if not r[5]] == held
        for r in (rows[k] for k in held):
            assert abs(r[4]) == 9.49 and r[6] == 1     # energy, iterations
            assert r[7] == abs(r[1] - r[4])             # residual |Re z - E|

    def test_unconverged_state_is_numerical_failure(self, tmp_path,
                                                     monkeypatch, capsys):
        solve = opensys.solve_resonances

        def second_unconverged(model):
            states = solve(model)
            states[1] = states[1]._replace(converged=False)
            return states

        monkeypatch.setattr(opensys, "solve_resonances", second_unconverged)
        assert run("heff", "--model", str(DATA / "open_system.json"),
                   "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "[1]" in err
        # the table is still written, with the failing state marked
        rows = [line.split(",") for line in
                (tmp_path / "resonances.csv").read_text().splitlines()[1:]]
        assert [r[5] for r in rows] == ["1", "0"]


# ---------------------------------------------------------------------------
# failure modes and argument validation

class TestExitCodes:
    def test_missing_field_is_input_error(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "bad_missing_omega.json"),
                   "--out", str(tmp_path)) == 2

    def test_unreadable_model(self, tmp_path):
        assert run("sweep", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("sweep", "--model", str(bad), "--out", str(tmp_path)) == 2

    def test_wrong_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "99", "kind": "two_level",
                                   "parameters": {}}))
        assert run("sweep", "--model", str(bad), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("text", [
        "{not json", json.dumps({"version": "99", "kind": "two_level",
                                 "parameters": {}})],
        ids=["invalid_json", "wrong_version"])
    def test_model_file_error(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ModelFileError):
            cli.load_model_file(bad)

    @pytest.mark.parametrize("parameter", ["alpha", "a"])
    def test_unknown_sweep_path_is_input_error(self, tmp_path, capsys,
                                               parameter):
        # the avoided-crossing path names mean nothing to a two-level model
        doc = json.loads((DATA / "two_level_sweep.json").read_text())
        doc["sweep"]["parameter"] = parameter
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("sweep", "--model", str(model), "--out", str(tmp_path)) == 2
        assert "input error" in capsys.readouterr().err

    def test_unknown_emit(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--emit", "csv,png") == 2

    @pytest.mark.parametrize("command,model,block", [
        ("trap", "trapping_chain.json", "alphas"),
        ("scatter", "bic_pair.json", "grid")])
    def test_grid_without_extent_is_input_error(self, tmp_path, capsys,
                                                command, model, block):
        # start == stop repeats one point: trap would fit over identical
        # alphas, so the grid block is rejected before any numerics
        doc = json.loads((DATA / model).read_text())
        doc[block]["start"] = doc[block]["stop"] = 0.5
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert run(command, "--model", str(bad),
                   "--out", str(tmp_path / "out")) == 2
        assert "start != stop" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command,block", [
        ("sweep", {"parameter": "grid_size", "start": 101, "stop": 201,
                   "steps": 3}),
        ("locate", {"p1": "grid_size", "p2": "grid_size", "seed": [101, 201]}),
        ("encircle", {"center": [0.0, 1.0], "radius": 0.5})])
    def test_open_system_has_no_sweep_interpretation(self, tmp_path, capsys,
                                                     command, block):
        doc = json.loads((DATA / "open_system.json").read_text())
        doc[command] = block
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert f"'open_system' has no {command} interpretation" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command,model,kind", [
        ("sweep", "trapping_chain.json", "toy_trapping"),
        ("locate", "bic_pair.json", "smatrix"),
        ("encircle", "open_system.json", "open_system"),
        ("trap", "double_pole.json", "smatrix"),
        ("scatter", "open_system.json", "open_system"),
        ("heff", "avoided_iv.json", "avoided_crossing")])
    def test_kind_a_command_does_not_read(self, tmp_path, capsys, command,
                                          model, kind):
        assert run(command, "--model", str(DATA / model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (f"nhspec: input error: model kind "
                                           f"{kind!r} has no {command} "
                                           "interpretation\n")
        assert not list((tmp_path / "out").glob("*"))

    # sweep's 2x2 frames take no LAPACK call; heff's H_eff stack and
    # locate's backward error (linalg.coalescence_error) do
    @pytest.mark.parametrize("command,model", [
        ("heff", "open_system.json"), ("locate", "two_level_sweep.json")])
    def test_eigensolver_failure_is_exit_3(self, tmp_path, monkeypatch,
                                          capsys, command, model):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        assert run(command, "--model", str(DATA / model),
                   "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == ("nhspec: numerical failure: "
                                           "eigensolver failed: Eigenvalues "
                                           "did not converge\n")

    def test_non_finite_json_is_exit_3(self, tmp_path, monkeypatch, capsys):
        nan_gap = sweep.EpLocation(p1=0.0, p2=1.0, z0=0j, gap=float("nan"),
                                   backward_error=0.0, step=0.0, iterations=1)
        monkeypatch.setattr(sweep, "locate_ep", lambda *a, **k: nan_gap)
        assert run("locate", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "ep.json" in err
        assert not (tmp_path / "ep.json").exists()

    def test_overflow_in_heff_is_exit_3(self, tmp_path, capsys):
        # every input finite, but g g^T = 1e400 overflows in H_eff: a
        # numerical failure naming the energy, not an input error
        model = tmp_path / "overflow.json"
        model.write_text(json.dumps({
            "version": "1", "kind": "open_system",
            "parameters": {"e_b": [0.0, 1e308],
                           "coupling": {"profile": "constant",
                                        "values": [[1e200], [1e200]]},
                           "window": [-10, 10], "grid_size": 201}}))
        assert run("heff", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "E = 0.0" in err

    def test_huge_window_is_exit_3(self, tmp_path, capsys):
        # a finite window whose width overflows: the grid step is not
        # finite, a numerical failure with no warning and nothing written
        doc = json.loads((DATA / "open_system.json").read_text())
        model = write_model(tmp_path, "open_system", {
            **doc["parameters"], "window": [-1e308, 1e308]})
        assert run("heff", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "nhspec: numerical failure: grid step of window (-1e+308, "
            "1e+308) overflows\n")
        assert not list((tmp_path / "out").glob("*"))

    def test_overflowing_contour_is_exit_3(self, tmp_path, capsys):
        # a finite center and radius whose contour points overflow: the
        # eigensolver refuses them, with no warning and nothing written
        doc = json.loads((DATA / "two_level_sweep.json").read_text())
        model = write_model(tmp_path, "two_level", doc["parameters"],
                            encircle={"center": [0.0, 1e308], "radius": 1e308})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("encircle", "--model", str(model),
                       "--out", str(tmp_path / "out")) == 3
        assert not caught
        assert capsys.readouterr().err == (
            "nhspec: numerical failure: eigensolver failed: Array must not "
            "contain infs or NaNs\n")
        assert not list((tmp_path / "out").glob("*"))

    def test_contour_on_the_ep_is_exit_3(self, tmp_path, capsys):
        # radius 1e-300 about the EP omega = i: every contour point is the
        # EP to rounding, so no c-normalized frame exists to transport
        doc = json.loads((DATA / "two_level_sweep.json").read_text())
        model = write_model(tmp_path, "two_level", doc["parameters"],
                            encircle={"center": [0.0, 1.0], "radius": 1e-300,
                                      "steps_per_cycle": 64, "cycles": 1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("encircle", "--model", str(model),
                       "--out", str(tmp_path / "out")) == 3
        assert not caught
        assert capsys.readouterr().err == (
            "nhspec: numerical failure: c-norm vanishes at the contour's "
            "start\n")
        assert not list((tmp_path / "out").glob("*"))

    def test_double_pole_far_below_unit_width(self, tmp_path):
        # Gamma_d = 1e-300: Gamma_d^2 underflows and D^2 overflows, yet S
        # depends on (E - E_d) / Gamma_d alone and is written in full
        model = write_model(tmp_path, "smatrix",
                            {"double_pole": {"e_d": 0.0, "gamma_d": 1e-300}},
                            grid={"start": -1e-299, "stop": 1e-299,
                                  "points": 4001})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("scatter", "--model", str(model),
                       "--out", str(tmp_path)) == 0
        assert not caught
        rows = np.array(csv_rows(tmp_path / "smatrix.csv"))
        assert rows.shape == (4001, 6) and np.isfinite(rows).all()
        s = rows[:, 2] + 1j * rows[:, 3]
        assert np.abs(np.abs(s) - 1.0).max() < 1e-15
        assert rows[2000, 0] == 0.0 and abs(s[2000] - 1.0) < 1e-15
        features = json.loads((tmp_path / "features.json").read_text())
        assert features["minima"] == [0.0]
        assert features["sigma_at_center"] < 1e-30

    def test_reversed_omega_plane_is_located(self, tmp_path):
        # (omega_im, omega_re) has no closed form: Newton alone finds the
        # EP omega = i (eps1 - eps2)/2 = 0.05 + 1i
        model = tmp_path / "reversed_plane.json"
        model.write_text(json.dumps({
            "version": "1", "kind": "two_level",
            "parameters": {"eps1": 1.0, "eps2": [-1.0, 0.1],
                           "omega": [0.0, 0.5]},
            "locate": {"p1": "omega_im", "p2": "omega_re", "seed": [0.8, 0.1]}}))
        assert run("locate", "--model", str(model),
                   "--out", str(tmp_path)) == 0
        rec = json.loads((tmp_path / "ep.json").read_text())
        assert abs(complex(rec["p1"], rec["p2"]) - complex(1.0, 0.05)) < 1e-12
        assert rec["backward_error"] <= 1e-10

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # Hermitian family: the pair gap is bounded below by 2 omega, also
        # where eps1 = eps2 leaves a near-crossing of gap 2e-6
        for omega in (0.3, 1e-6):
            model = tmp_path / "hermitian.json"
            model.write_text(json.dumps({
                "version": "1", "kind": "two_level",
                "parameters": {"eps1": 1.0, "eps2": -1.0, "omega": omega},
                "locate": {"p1": "eps1_re", "p2": "eps2_re",
                           "seed": [0.5, -0.5]}}))
            assert run("locate", "--model", str(model),
                       "--out", str(tmp_path)) == 3
            assert not (tmp_path / "ep.json").exists()

    PT = {"e": 0.2, "gamma": 1.0, "omega": 0.3}
    AVOIDED = json.loads((DATA / "avoided_iv.json").read_text())["parameters"]

    def run_block(self, tmp_path, command, kind, parameters, block):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"version": "1", "kind": kind,
                                     "parameters": parameters,
                                     command: block}))
        return run(command, "--model", str(model),
                   "--out", str(tmp_path / "out"))

    def test_field_the_model_lacks_is_unknown_path(self, tmp_path, capsys):
        # eps1 is a two_level field, not a pt_two_level one
        assert self.run_block(tmp_path, "sweep", "pt_two_level", self.PT, {
            "parameter": "eps1_re", "start": 0.1, "stop": 1.0,
            "steps": 11}) == 2
        assert "unknown parameter path 'eps1_re'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,block", [
        ("sweep", {"parameter": "omega_re", "start": 0.0, "stop": 1.0,
                   "steps": 11}),
        ("encircle", {"center": [0.0, 1.0], "radius": 0.5})])
    def test_avoided_crossing_needs_a(self, tmp_path, capsys, command, block):
        assert self.run_block(tmp_path, command, "avoided_crossing",
                              self.AVOIDED, block) == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "missing 1 required positional" not in err

    def test_pt_sweep_below_zero_gamma_is_input_error(self, tmp_path, capsys):
        assert self.run_block(tmp_path, "sweep", "pt_two_level", self.PT, {
            "parameter": "gamma", "start": -0.5, "stop": 1.0,
            "steps": 11}) == 2
        assert "gamma must be non-negative" in capsys.readouterr().err

    def test_sweep_gap_overflow_is_exit_3(self, tmp_path, capsys):
        # finite eigenvalues near +-1.5e308 whose difference overflows: a
        # numerical failure naming the parameter, with nothing written
        assert self.run_block(tmp_path, "sweep", "two_level", {
            "eps1": 1.5e308, "eps2": -1.5e308, "omega": [0.0, 1e307]}, {
            "parameter": "omega_im", "start": 1e307, "stop": 1.5e307,
            "steps": 11}) == 3
        err = capsys.readouterr().err
        assert err == ("nhspec: numerical failure: eigenvalue pair gap "
                       "overflows at param 1e+307\n")
        assert not list((tmp_path / "out").glob("*"))

    def test_pencil_overflow_is_exit_3(self, tmp_path, capsys):
        # every input finite, but e1 = 1e308 + a overflows along the sweep:
        # the eigensolver refuses the stack, with no warning and nothing
        # written
        assert self.run_block(tmp_path, "sweep", "avoided_crossing", {
            **self.AVOIDED, "e1_0": 1e308}, {
            "parameter": "a", "start": 0.0, "stop": 1e308, "steps": 11}) == 3
        assert capsys.readouterr().err == (
            "nhspec: numerical failure: eigensolver failed: Array must not "
            "contain infs or NaNs\n")
        assert not list((tmp_path / "out").glob("*"))

    def test_locate_gap_overflow_is_exit_3(self, tmp_path, capsys):
        # finite eigenvalues near +-1e308 whose difference overflows at the
        # seed: a numerical failure naming the point, with no warning and
        # nothing written
        doc = json.loads((DATA / "two_level_sweep.json").read_text())
        assert self.run_block(tmp_path, "locate", "two_level", {
            **doc["parameters"], "eps1": [1e308, 0], "eps2": [-1e308, 0]},
            doc["locate"]) == 3
        assert capsys.readouterr().err == ("nhspec: numerical failure: "
                                           "eigenvalues not finite at "
                                           "(0.1, 0.8)\n")
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command,kind,parameters,block", [
        ("trap", "toy_trapping", {"h0": [-1.0, 0.0, 1.0],
                                  "v": [1e200, 1e200, 1e200]},
         {"alphas": {"start": 0.01, "stop": 5.0, "steps": 20}}),
        ("scatter", "smatrix", {"h_b": [-1.0, 1.0],
                                "gamma_hat": [[1e200], [1e200]]},
         {"grid": {"start": -5.0, "stop": 5.0, "points": 101}})])
    def test_open_system_overflow_is_exit_3(self, tmp_path, capsys, command,
                                            kind, parameters, block):
        # finite input whose V V^T (g g^T) overflows: the eigensolver
        # refuses H_eff, with no warning and nothing written
        model = write_model(tmp_path, kind, parameters, **block)
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "nhspec: numerical failure: eigensolver failed: Array must not "
            "contain infs or NaNs\n")
        assert not list((tmp_path / "out").glob("*"))

    TRAP_ERROR = ("v needs one finite row per level of h0, and fewer columns "
                  "(channels) than levels")

    @pytest.mark.parametrize("command,kind,parameters,block,message", [
        ("trap", "toy_trapping", {"h0": [[0.0, 1.0], [0.0, 0.0]],
                                  "v": [1.0, 1.0]}, "alphas",
         "h0 must be a finite real symmetric matrix"),
        ("trap", "toy_trapping", {"h0": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                                  "v": [1.0, 1.0]}, "alphas",
         "h0 must be a finite real symmetric matrix"),
        ("trap", "toy_trapping", {"h0": [-1.0, 0.0, 1.0], "v": [1.0, 1.0]},
         "alphas", TRAP_ERROR),
        ("trap", "toy_trapping", {"h0": [-1.0, 1.0],
                                  "v": [[1.0, 0.0], [0.0, 1.0]]}, "alphas",
         TRAP_ERROR),
        ("scatter", "smatrix", {"h_b": [[0.0, 1.0], [0.0, 0.0]],
                                "gamma_hat": [[1.0], [1.0]]}, "grid",
         "h_b must be a finite real symmetric matrix"),
        ("scatter", "smatrix", {"h_b": [], "gamma_hat": [[1.0]]}, "grid",
         "h_b must be a finite real symmetric matrix"),
        ("scatter", "smatrix", {"h_b": [-1.0, 0.0, 1.0],
                                "gamma_hat": [[1.0], [1.0]]}, "grid",
         "gamma_hat needs one finite row per level of h_b")])
    def test_open_system_input_names_its_field(self, tmp_path, capsys,
                                               command, kind, parameters,
                                               block, message):
        blocks = {"alphas": {"start": 0.01, "stop": 5.0, "steps": 20},
                  "grid": {"start": -5.0, "stop": 5.0, "points": 101}}
        model = write_model(tmp_path, kind, parameters,
                            **{block: blocks[block]})
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nhspec: input error: {message}\n"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command,model,checks", [
        ("sweep", "two_level_sweep.json", 3),
        ("encircle", "two_level_sweep.json", 3),
        ("trap", "trapping_chain.json", 1),
        ("heff", "open_system.json", 1),
        ("heff", "open_system_tabulated.json", 1)])
    def test_each_matrix_checked_once(self, tmp_path, monkeypatch, command,
                                      model, checks):
        # the model's matrices are checked where they enter; the pencils
        # built from them are not checked again
        calls, invalid = [], linalg.invalid
        monkeypatch.setattr(linalg, "invalid",
                            lambda *args: calls.append(1) or invalid(*args))
        assert run(command, "--model", str(DATA / model),
                   "--out", str(tmp_path)) == 0
        assert 0 < len(calls) <= checks

    def test_locate_same_path_twice_is_input_error(self, tmp_path, capsys):
        # both slopes on one path: Newton would move p2 alone onto the EP
        # at omega_re = -0.15 and report p1 = 0.1 for the same parameter
        assert self.run_block(tmp_path, "locate", "two_level", {
            "eps1": [0.7, 0.1], "eps2": [-0.3, -0.2], "omega": [0.0, 0.5]}, {
            "p1": "omega_re", "p2": "omega_re", "seed": [0.1, 0.2]}) == 2
        assert capsys.readouterr().err == ("nhspec: input error: p1 and p2 "
                                           "are the same parameter path "
                                           "'omega_re'\n")
        assert not (tmp_path / "out" / "ep.json").exists()

    def test_locate_plane_without_pencil_is_input_error(self, tmp_path,
                                                        capsys):
        # e1_slope scales the a that follows it: the plane is not affine
        assert self.run_block(tmp_path, "locate", "avoided_crossing",
                              self.AVOIDED, {"p1": "e1_slope", "p2": "a",
                                             "seed": [0.5, 0.5]}) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "give no pencil A + x B" in err
        assert not (tmp_path / "out" / "ep.json").exists()


# ---------------------------------------------------------------------------
# model-file ingestion: every profile and field shape the reader accepts
# reaches the library as that object, and each malformed field is named

OPEN = {"e_b": [-0.5, 0.5], "window": [-2.0, 2.0], "grid_size": 401,
        "coupling": {"profile": "constant", "values": [[0.1], [0.08]]}}


def write_model(tmp_path, kind, parameters, **blocks):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"version": "1", "kind": kind,
                                 "parameters": parameters, **blocks}))
    return model


def csv_rows(path):
    return [[float(x) for x in line.split(",")]
            for line in path.read_text().splitlines()[1:]]


class TestIngestion:
    @pytest.mark.parametrize("changes,coupling", [
        ({"coupling": {"profile": "semicircle",
                       "strengths": [[0.3], [0.2]]}},
         opensys.SemicircleCoupling(np.array([[0.3], [0.2]]))),
        ({"coupling": {"profile": "tabulated", "energies": [-2.0, 0.0, 2.0],
                       "values": [[[0.1], [0.0]], [[0.2], [0.1]],
                                  [[0.1], [0.3]]]}},
         opensys.TabulatedCoupling(
             grid=np.array([-2.0, 0.0, 2.0]),
             values=np.array([[[0.1], [0.0]], [[0.2], [0.1]],
                              [[0.1], [0.3]]]))),
        ({"v_direct": [[0.0, 0.05], [0.05, 0.0]]},
         opensys.ConstantCoupling(np.array([[0.1], [0.08]])))])
    def test_open_system_fields(self, tmp_path, changes, coupling):
        model = write_model(tmp_path, "open_system", {**OPEN, **changes})
        assert run("heff", "--model", str(model), "--out", str(tmp_path)) == 0
        direct = opensys.OpenSystemModel(
            e_b=np.array(OPEN["e_b"]), coupling=coupling, window=(-2.0, 2.0),
            grid_size=401, v_direct=changes.get("v_direct"))
        expected = [[k, s.z.real, s.z.imag, s.width, s.energy, s.converged,
                     s.iterations, s.residual]
                    for k, s in enumerate(opensys.solve_resonances(direct))]
        assert csv_rows(tmp_path / "resonances.csv") == expected

    def test_pole_list_smatrix(self, tmp_path):
        model = write_model(
            tmp_path, "smatrix",
            {"poles": [[-0.5, -0.1], [0.5, -0.2]],
             "couplings": [[0.3, [0.0, 0.1]], [[0.2, 0.05], 0.4]],
             "channel": 1},
            grid={"start": -2.0, "stop": 2.0, "points": 401})
        assert run("scatter", "--model", str(model),
                   "--out", str(tmp_path)) == 0
        grid = np.linspace(-2.0, 2.0, 401)
        rep = scattering.lineshape(scattering.SMatrixModel(
            poles=[-0.5 - 0.1j, 0.5 - 0.2j],
            couplings=[[0.3, 0.1j], [0.2 + 0.05j, 0.4]]), grid, channel=1)
        assert csv_rows(tmp_path / "smatrix.csv") == [
            [rep.grid[t], 1, rep.s_values[t].real, rep.s_values[t].imag,
             rep.sigma[t], rep.phase[t]] for t in range(len(grid))]

    TWO = {"eps1": [1.0, 0.0], "eps2": [-1.0, 0.0], "omega": [0.0, 0.5]}
    SWEEP = {"parameter": "omega_im", "start": 0.5, "stop": 1.5, "steps": 11}
    GRID = {"start": -5.0, "stop": 5.0, "points": 1001}
    BIC = {"h_b": [-3e-07, 3e-07], "gamma_hat": [[1.0], [1.0]]}
    TRAP = {"h0": [-1.0, 0.0, 1.0], "v": [1.0, 1.0, 1.0]}
    ALPHAS = {"start": 0.01, "stop": 1.0, "steps": 5}
    ENCIRCLE = {"center": [0.0, 1.0], "radius": 0.5, "steps_per_cycle": 256}

    @pytest.mark.parametrize("kind,parameters,message", [
        ("two_level", {**TWO, "eps1": "one"},
         "field 'eps1' must be a number or a [re, im] pair"),
        ("two_level", {**TWO, "eps1": ["one", 0.0]},
         "field 'eps1' is not a number"),
        ("two_level", {**TWO, "omega": [0.0, 0.5, 0.0]},
         "field 'omega' must be a number or a [re, im] pair"),
        ("avoided_crossing", {"e1_0": -1.0, "e1_slope": 1.0, "e2_0": 1.0,
                              "e2_slope": -1.0, "gamma1_0": 0.0,
                              "gamma2_0": 0.0, "omega": [0.3]},
         "field 'omega' is not a number"),
        ("open_system", {**OPEN, "e_b": [[-0.5, 0.5]]},
         "field 'e_b' must be a finite 1-d array"),
        ("open_system", {**OPEN, "window": [-2.0, 0.0, 2.0]},
         "field 'window' must be a [lo, hi] pair"),
        ("open_system", {**OPEN, "coupling": {"profile": "gaussian"}},
         "unknown coupling profile 'gaussian'"),
        ("three_level", TWO, "unknown model kind 'three_level'"),
        ("two_level", None, "field 'parameters' must be a JSON object"),
        ("two_level", "eps1 eps2",
         "field 'parameters' must be a JSON object"),
        # integer fields take integral numbers only; a block given among
        # the parameters replaces the test's default block
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": 3.9}},
         "field 'steps' is not an integer"),
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": "11"}},
         "field 'steps' is not an integer"),
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": True}},
         "field 'steps' is not an integer"),
        ("smatrix", {**BIC, "grid": {**GRID, "points": 2.7}},
         "field 'points' is not an integer"),
        ("smatrix", {**BIC, "grid": {**GRID, "points": None}},
         "field 'points' is not an integer"),
        ("smatrix", {**BIC, "channel": 0.5}, "field 'channel' is not an integer"),
        ("open_system", {**OPEN, "grid_size": "abc"},
         "field 'grid_size' is not an integer"),
        ("toy_trapping", {**TRAP, "trapped_fraction": "x"},
         "field 'trapped_fraction' is not a number"),
        # numbers are JSON numbers, not strings or booleans
        ("two_level", {**TWO, "sweep": {**SWEEP, "start": "0.5"}},
         "field 'start' is not a number"),
        # array fields name themselves, NaN included
        ("open_system", {**OPEN, "coupling": {
            "profile": "tabulated", "energies": [-2.0, 0.0, 2.0],
            "values": [[[0.1], [float("nan")]], [[0.2], [0.1]],
                       [[0.1], [0.3]]]}},
         "field 'values' must be a finite 3-d array"),
        ("toy_trapping", {**TRAP, "v": ["a", 1.0, 1.0]},
         "field 'v' is not a numeric array"),
        ("toy_trapping", {**TRAP, "h0": [-1.0, float("nan"), 1.0]},
         "field 'h0' must be a finite 1 or 2-d array"),
        ("smatrix", {**BIC, "h_b": [float("nan"), 3e-07]},
         "field 'h_b' must be a finite 1 or 2-d array"),
        # json reads a 401-digit literal as an int beyond the float range
        ("two_level", {**TWO, "sweep": {**SWEEP, "stop": 10 ** 400}},
         "field 'stop' is not finite"),
        ("smatrix", {**BIC, "h_b": [-3e-07, 10 ** 400]},
         "field 'h_b' is not a numeric array"),
        # counts numpy refuses before it allocates (test_numpy_refuses)
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": 10 ** 400}},
         "field 'steps' is too large"),
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": 2 ** 60}},
         "field 'steps' is too large"),
        ("two_level", {**TWO, "sweep": {**SWEEP, "steps": 2 ** 63}},
         "field 'steps' is too large"),
        ("smatrix", {**BIC, "grid": {**GRID, "points": 10 ** 400}},
         "field 'points' is too large"),
        ("smatrix", {**BIC, "grid": {**GRID, "points": 2.0 ** 60}},
         "field 'points' is too large"),
        ("toy_trapping", {**TRAP, "alphas": {**ALPHAS, "steps": 2 ** 60}},
         "field 'steps' is too large"),
        ("open_system", {**OPEN, "grid_size": 2 ** 60 + 1},
         "field 'grid_size' is too large"),
        # each count below 2**60, the contour's grid (their product) not
        ("two_level", {**TWO, "encircle": {**ENCIRCLE, "cycles": 2 ** 59}},
         "cycles is too large for steps_per_cycle"),
        ("two_level", {**TWO, "encircle": {
            **ENCIRCLE, "steps_per_cycle": 64, "cycles": 2 ** 54}},
         "cycles is too large for steps_per_cycle")])
    def test_malformed_field(self, tmp_path, capsys, kind, parameters,
                             message):
        command = {"open_system": "heff", "smatrix": "scatter",
                   "toy_trapping": "trap"}.get(kind, "sweep")
        blocks = {"sweep": self.SWEEP, "grid": self.GRID,
                  "alphas": self.ALPHAS, "encircle": self.ENCIRCLE}
        if isinstance(parameters, dict):
            blocks.update((k, parameters[k]) for k in blocks if k in parameters)
            if "encircle" in parameters:
                command = "encircle"
        model = write_model(tmp_path, kind, parameters, **blocks)
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nhspec: input error: {message}\n"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("command,kind,parameters,blocks", [
        ("sweep", "two_level", TWO, {"sweep": {**SWEEP, "steps": 2 ** 50}}),
        ("trap", "toy_trapping", TRAP,
         {"alphas": {**ALPHAS, "points": 2 ** 50}})])
    def test_grid_too_long_to_hold(self, tmp_path, capsys, command, kind,
                                   parameters, blocks):
        # below numpy's limit, but 8 PiB: the allocation fails at once
        model = write_model(tmp_path, kind, parameters, **blocks)
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(
            "nhspec: input error: Unable to allocate 8.00 PiB")
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("count", [10 ** 400, 2 ** 63, 2 ** 60])
    def test_numpy_refuses(self, count):
        # numpy raises for these counts before allocating: no float64 array
        # of 2**60 or more elements has a byte size within its index range
        # (2**63 gives an IndexError, which main would not catch)
        with pytest.raises((ValueError, IndexError)):
            np.linspace(0.0, 1.0, count)

    @pytest.mark.parametrize("text,message", [
        # json reads 1e400 as inf: finite in the file, not as a float
        ('{"version": "1", "kind": "pt_two_level", "parameters": '
         '{"e": 0.2, "gamma": 1e400, "omega": 0.3}, "sweep": {"parameter": '
         '"e", "start": 0.0, "stop": 1.0, "steps": 11}}',
         "field 'gamma' is not finite"),
        ('[{"version": "1"}]', "model file must contain a JSON object")])
    def test_malformed_text(self, tmp_path, capsys, text, message):
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run("sweep", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nhspec: input error: {message}\n"

    @pytest.mark.parametrize("command,kind,parameters,blocks,message", [
        ("locate", "two_level", TWO, {"locate": None},
         "locate block must be a JSON object"),
        ("sweep", "two_level", TWO, {"sweep": [1, 2]},
         "sweep block must be a JSON object"),
        ("heff", "open_system", {**OPEN, "coupling": None}, {},
         "coupling must be a JSON object")])
    def test_block_not_an_object(self, tmp_path, capsys, command, kind,
                                 parameters, blocks, message):
        model = write_model(tmp_path, kind, parameters, **blocks)
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"nhspec: input error: {message}\n"

    @pytest.mark.parametrize("command,block,path", [
        ("sweep", {"parameter": 7, "start": 0.5, "stop": 1.5, "steps": 11}, 7),
        ("locate", {"p1": 5, "p2": "omega_im", "seed": [0.1, 0.8]}, 5)])
    def test_parameter_path_not_a_string(self, tmp_path, capsys, command,
                                         block, path):
        model = write_model(tmp_path, "two_level", self.TWO, **{command: block})
        assert run(command, "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            f"nhspec: input error: parameter path {path} is not a string\n"

    @pytest.mark.parametrize("seed,message", [
        ([0.1], "must be a [p1, p2] pair"),
        ([0.1, 0.9, 0.0], "must be a [p1, p2] pair"),
        (0.1, "must be a finite 1-d array"),
        ("0.1 0.9", "is not a numeric array")])
    def test_locate_seed_is_a_pair(self, tmp_path, capsys, seed, message):
        model = write_model(tmp_path, "two_level", self.TWO, locate={
            "p1": "omega_re", "p2": "omega_im", "seed": seed})
        assert run("locate", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err \
            == f"nhspec: input error: field 'seed' {message}\n"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("field,value", [
        ("cycles", 2.5), ("steps_per_cycle", "256")])
    def test_encircle_counts_are_integers(self, tmp_path, capsys, field,
                                          value):
        model = write_model(tmp_path, "two_level", self.TWO, encircle={
            "center": [0.0, 1.0], "radius": 0.5, field: value})
        assert run("encircle", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err \
            == f"nhspec: input error: field {field!r} is not an integer\n"

    def test_encircle_radius_is_a_number(self, tmp_path, capsys):
        model = write_model(tmp_path, "two_level", self.TWO, encircle={
            "center": [0.0, 1.0], "radius": True})
        assert run("encircle", "--model", str(model),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err \
            == "nhspec: input error: field 'radius' is not a number\n"


@pytest.mark.parametrize("command,model,emit,written", [
    ("trap", "trapping_chain.json", "json", ["summary.json"]),
    ("scatter", "bic_pair.json", "csv", ["smatrix.csv"]),
    ("encircle", "two_level_sweep.json", "csv", ["contour.csv"]),
    ("locate", "two_level_sweep.json", "csv", []),
    ("heff", "open_system.json", "json", [])])
def test_every_command_honours_emit(tmp_path, command, model, emit, written):
    assert run(command, "--model", str(DATA / model), "--out", str(tmp_path),
               "--emit", emit) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written


# ---------------------------------------------------------------------------
# the CSV column contract: cells by dtype, and each table agrees with the
# JSON summary written next to it

class TestCsvColumns:
    def test_cells_by_dtype(self):
        floats = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1e300])
        k = np.arange(len(floats))
        lines = cli.csv_text(["flag", "k", "x"],
                             [k % 2 == 0, k - 3, floats]).splitlines()
        assert lines[0] == "flag,k,x"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ["1", "0", "1", "0", "1", "0", "1"]
        assert [c[1] for c in cells] == ["-3", "-2", "-1", "0", "1", "2", "3"]
        assert [c[2] for c in cells] == [repr(x) for x in floats.tolist()] \
            == ["-0.0", "inf", "-inf", "nan", "5e-324", "0.1", "1e+300"]

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            cli.csv_text(["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_columns_are_the_per_row_tables(self, tmp_path):
        # the tables the CLI once built row by row, from the library
        two = json.loads((DATA / "two_level_sweep.json").read_text())
        model = cli._model_for_sweep(two)
        res = sweep.sweep(sweep.SweepSpec(model, **two["sweep"]))
        rep = sweep.encircle(sweep.EncircleSpec(**{
            **two["encircle"], "center": 1j}), model)
        chain = json.loads((DATA / "trapping_chain.json").read_text())
        alphas = chain["alphas"]
        trap = opensys.toy_trapping(
            chain["parameters"]["h0"], chain["parameters"]["v"],
            np.linspace(alphas["start"], alphas["stop"], alphas["steps"]))
        own_max = np.maximum(trap.widths.max(axis=0), 1e-300)
        expected = {
            "sweep.csv": [
                [r.param, k, z.real, z.imag, r.norms_A[k], r.rigidity_r[k],
                 r.min_gap] for r in res.rows for k, z in enumerate(r.values)],
            "contour.csv": [
                [theta] + [x for z in values for x in (z.real, z.imag)]
                for theta, values in zip(rep.theta, rep.values)],
            "trapping.csv": [
                [alpha, k, z.real, z.imag, w, w < 0.1 * own_max[k]]
                for alpha, zs, ws in zip(trap.alphas, trap.values, trap.widths)
                for k, (z, w) in enumerate(zip(zs, ws))]}
        for command, model_file in [("sweep", "two_level_sweep.json"),
                                    ("encircle", "two_level_sweep.json"),
                                    ("trap", "trapping_chain.json")]:
            assert run(command, "--model", str(DATA / model_file),
                       "--out", str(tmp_path)) == 0
        for name, rows in expected.items():
            assert csv_rows(tmp_path / name) == rows

    @pytest.mark.parametrize("model", ["double_pole.json", "bic_pair.json"])
    def test_phase_column_spans_total_phase_change(self, tmp_path, model):
        assert run("scatter", "--model", str(DATA / model),
                   "--out", str(tmp_path)) == 0
        features = json.loads((tmp_path / "features.json").read_text())
        phase = [r[5] for r in csv_rows(tmp_path / "smatrix.csv")]
        assert phase[-1] - phase[0] == features["total_phase_change"]


def test_readme_flags_are_the_parsers_options():
    # every setting but these three comes from the model file alone
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(--[a-z-]+)", paragraph))
    assert named == {"--model", "--out", "--emit"}
    commands, = [a.choices for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(cli.COMMANDS)
    for parser in commands.values():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == named


# ---------------------------------------------------------------------------
# extreme finite values: every command exits 0, 2 or 3 without a warning or
# a traceback, and writes nothing on a failure

def fixture(name, **blocks):
    return {**json.loads((DATA / name).read_text()), **blocks}


def set_field(doc, path, value):
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def with_fields(name, **fields):
    """A fixture with the numbers at the given paths (keys joined by '.')
    replaced."""
    doc = fixture(name)
    for path, value in fields.items():
        set_field(doc, [int(k) if k.isdigit() else k
                        for k in path.split(".")], value)
    return doc


TRAP_ALPHAS = fixture("trapping_chain.json")["alphas"]
# (command, model, exit code, stderr) of inputs that once warned, wrote an
# artifact before failing, or reported a contour through an EP as clean;
# the first five set one field, the rest two under one parent node (the
# stderr of an exit 0 is empty)
REPRODUCER_IDS = ["contour_through_ep", "pole_sum_overflows",
                  "grid_span_overflows", "alphas_span_overflows",
                  "alpha_eigenvalue_overflows", "lineshape_span_overflows",
                  "match_cost_overflows", "tabulation_step_overflows",
                  "pencil_sum_overflows", "level_gap_overflows",
                  "cross_section_overflows"]
REPRODUCERS = [
    ("encircle", fixture("two_level_sweep.json", encircle={
        "center": [0.0, 0.5], "radius": 0.5, "steps_per_cycle": 64,
        "cycles": 2}), 3, "numerical failure: the contour passes through a "
     "coalescence at theta 1.5707963267948966"),
    ("scatter", {"version": "1", "kind": "smatrix", "parameters": {
        "poles": [[0.0, -1e-300]], "couplings": [[1e200]]},
        "grid": {"start": -1.0, "stop": 1.0, "points": 11}}, 3,
     "numerical failure: S is not finite at energy -1.0"),
    ("scatter", fixture("double_pole.json", grid={
        "start": -1e308, "stop": 1e308, "points": 11}), 3,
     "numerical failure: grid must resolve the width by >= 8 points"),
    ("trap", fixture("trapping_chain.json", alphas={
        **TRAP_ALPHAS, "start": -1e308, "stop": 1e308}), 2,
     "input error: alphas must be non-negative and strictly monotone"),
    ("trap", fixture("trapping_chain.json", alphas={
        **TRAP_ALPHAS, "start": 1e308}), 3,
     "numerical failure: eigenvalue not finite at param 1e+308"),
    ("scatter", fixture("bic_pair.json", grid={
        "start": -1e308, "stop": 1e308, "points": 1001}), 3,
     "numerical failure: halfmax_span inf and total_phase_change -2e-308 "
     "must be finite"),
    ("trap", with_fields("trapping_chain.json", **{
        "parameters.h0.0": 1e308, "parameters.h0.1": -1e308}), 3,
     "numerical failure: overlap 0.167 below threshold at param "
     "0.010163799894957984"),
    ("heff", with_fields("open_system_tabulated.json", **{
        "parameters.coupling.energies.0": 1e308,
        "parameters.coupling.energies.1": -1e308}), 2,
     "input error: tabulation grid must be strictly increasing"),
    ("sweep", with_fields("avoided_iv.json", **{
        "parameters.e1_0": 1e308, "parameters.e1_slope": 1e308}), 2,
     "input error: entries must be finite"),
    ("heff", with_fields("open_system.json", **{
        "parameters.e_b.0": 1e308, "parameters.e_b.1": -1e308}), 0, None),
    ("scatter", {"version": "1", "kind": "smatrix", "parameters": {
        "poles": [[0.0, -1.0]], "couplings": [[1e153]]},
        "grid": {"start": -1.0, "stop": 1.0, "points": 11}}, 3,
     "numerical failure: sigma overflows at energy -1.0"),
]
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 1e308, -1e308]
COMMANDS_OF_KIND = {"toy_trapping": ["trap"], "smatrix": ["scatter"],
                    "open_system": ["heff"]}
FIXTURES = sorted(p.name for p in DATA.glob("*.json")
                  if not p.name.startswith("golden_")
                  and p.name != "bad_missing_omega.json")


def numeric_fields(node, path=()):
    """Paths to every number in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, value in items
                for p in numeric_fields(value, path + (key,))]
    return [path] if type(node) in (int, float) else []


def sibling_fields(doc):
    """Pairs of numbers under one parent node: two fields of one block (as
    both ends of a grid) or two entries of one array."""
    by_parent = {}
    for path in numeric_fields(doc):
        by_parent.setdefault(path[:-1], []).append(path)
    return [pair for paths in by_parent.values()
            for pair in itertools.combinations(paths, 2)]


def fixture_and_command(draw):
    doc = fixture(draw(st.sampled_from(FIXTURES)))
    return doc, draw(st.sampled_from(COMMANDS_OF_KIND.get(doc["kind"], [
        c for c in ("sweep", "locate", "encircle") if c in doc])))


@st.composite
def extreme_field(draw):
    """A fixture, one of its commands, and one of its numbers set to an
    extreme finite value."""
    doc, command = fixture_and_command(draw)
    path = draw(st.sampled_from(numeric_fields(doc)))
    return command, set_field(doc, path, draw(st.sampled_from(EXTREMES)))


@st.composite
def extreme_pair(draw):
    """A fixture, one of its commands, and two numbers under one parent
    node, each set to an extreme finite value: a failure that needs both
    ends of a span extreme is out of reach of extreme_field."""
    doc, command = fixture_and_command(draw)
    for path in draw(st.sampled_from(sibling_fields(doc))):
        set_field(doc, path, draw(st.sampled_from(EXTREMES)))
    return command, doc


def run_strict(command, doc):
    """cli.main in process with every warning an error: the exit code,
    stderr and the names of the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "model.json", Path(tmp) / "out"
        model.write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(command, "--model", str(model), "--out", str(out))
        return code, err.getvalue(), sorted(p.name for p in out.glob("*"))


class TestExtremeValues:
    @pytest.mark.parametrize("command,doc,code,message", REPRODUCERS,
                             ids=REPRODUCER_IDS)
    def test_reproducer(self, command, doc, code, message):
        # a failure writes nothing, and a success its artifacts
        got, err, written = run_strict(command, doc)
        assert (got, err) == (code, f"nhspec: {message}\n" if code else "")
        assert bool(written) == (code == 0)

    @staticmethod
    def exits_cleanly(case):
        code, err, written = run_strict(*case)
        assert code in (0, 2, 3), err
        if code:
            # heff keeps its table, with the failing states marked, where a
            # state did not converge
            kept = ["resonances.csv"] if "did not converge" in err else []
            assert written in ([], kept), err

    @settings(max_examples=150)
    @given(case=extreme_field())
    @example(case=REPRODUCERS[0][:2])
    @example(case=REPRODUCERS[1][:2])
    @example(case=REPRODUCERS[2][:2])
    @example(case=REPRODUCERS[3][:2])
    @example(case=REPRODUCERS[4][:2])
    def test_exits_cleanly(self, case):
        self.exits_cleanly(case)

    @settings(max_examples=150)
    @given(case=extreme_pair())
    @example(case=REPRODUCERS[5][:2])
    @example(case=REPRODUCERS[6][:2])
    @example(case=REPRODUCERS[7][:2])
    @example(case=REPRODUCERS[8][:2])
    @example(case=REPRODUCERS[9][:2])
    def test_pairs_exit_cleanly(self, case):
        self.exits_cleanly(case)

    def test_sweep_span_overflows(self, tmp_path):
        # the grid of a span past the float range is taken at half scale and
        # doubled: finite rows, and the EP eps1 - eps2 = 2 Im omega found at
        # eps1_re = 0.0 exactly, where the pair has coalesced (r = 0, A = inf)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(fixture("two_level_sweep.json", sweep={
            "parameter": "eps1_re", "start": -1e308, "stop": 1e308,
            "steps": 11})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sweep", "--model", str(model),
                       "--out", str(tmp_path / "out")) == 0
        rows = np.array(csv_rows(tmp_path / "out" / "sweep.csv"))
        at_ep = rows[:, 0] == 0.0
        assert len(rows) == 22 and at_ep.sum() == 2
        assert np.isfinite(rows[~at_ep]).all()
        assert (rows[at_ep, 5] == 0.0).all() and np.isposinf(rows[at_ep, 4]).all()
        assert np.isfinite(np.delete(rows[at_ep], 4, axis=1)).all()
        assert rows[0][0] == -1e308 and rows[-1][0] == 1e308
        events = (tmp_path / "out" / "events.jsonl").read_text().splitlines()
        assert {"indices": [0, 1], "kind": "ep_candidate", "param": 0.0} \
            in map(json.loads, events)


# ---------------------------------------------------------------------------
# determinism

def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestDeterminism:
    @pytest.mark.parametrize("command,model", [
        ("sweep", "two_level_sweep.json"),
        ("locate", "two_level_sweep.json"),
        ("encircle", "two_level_sweep.json"),
        ("trap", "trapping_chain.json"),
        ("scatter", "double_pole.json"),
        ("scatter", "bic_pair.json"),
        ("heff", "open_system.json"),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, model):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(command, "--model", str(DATA / model),
                       "--out", str(out)) == 0
        assert tree_bytes(a) == tree_bytes(b)


# ---------------------------------------------------------------------------
# cold start: no code outside the tests imports scipy or mpmath, neither
# the fixture commands nor the crossing classification (whose critical
# width is in closed form)

SCIPY_FREE = [("scatter", "bic_pair.json"), ("heff", "open_system.json"),
              ("trap", "trapping_chain.json"),
              ("sweep", "two_level_sweep.json"),
              ("locate", "two_level_sweep.json"),
              ("encircle", "two_level_sweep.json")]

# the widths of the four classification tests in tests/test_twolevel.py
CROSSINGS = [(0.0, 0.0), (4.0, 0.5), (0.4, 0.05),
             (4 * 0.3 * 0.4 / 0.35, 4 * 0.3 * 0.05 / 0.35)]


def test_commands_without_optimizer_leave_scipy_unloaded(tmp_path):
    script = f"""
import sys
import numpy as np
import nhspec.cli
from nhspec import twolevel
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(scipy_loaded())
for command, model in {SCIPY_FREE!r}:
    rc = nhspec.cli.main([command, "--model", {str(DATA)!r} + "/" + model,
                          "--out", {str(tmp_path)!r} + "/" + command])
    print(command, rc, scipy_loaded())
for g1, g2 in {CROSSINGS!r}:
    m = twolevel.AvoidedCrossingModel(-1.0, 1.0, 1.0, -1.0, g1, g2, 0.3)
    print(twolevel.classify_crossing(m, np.linspace(0.0, 2.0, 41)).kind,
          scipy_loaded())
print("mpmath" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[0] == "False"
    assert out[1:7] == [f"{c} 0 False" for c, _ in SCIPY_FREE]
    assert out[7:11] == [f"{kind} False" for kind in (
        "discrete_avoided", "free_crossing", "avoided_crossing",
        "exceptional_point")]
    assert out[-2] == "False"
