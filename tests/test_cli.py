import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from nhspec import cli

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
        assert run("locate", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--seed-p1", "-0.1",
                   "--seed-p2", "-0.8") == 0
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
        doc = json.loads((DATA / "trapping_chain.json").read_text())
        doc["parameters"]["trapped_fraction"] = 0.01
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("trap", "--model", str(model), "--out", str(tmp_path)) == 0
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

    def test_unknown_emit(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--emit", "csv,png") == 2

    def test_bad_workers(self, tmp_path):
        assert run("sweep", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--workers", "0") == 2

    def test_bad_tol(self, tmp_path):
        assert run("locate", "--model", str(DATA / "two_level_sweep.json"),
                   "--out", str(tmp_path), "--tol-ep", "-1.0") == 2

    def test_bad_pv_grid(self, tmp_path):
        assert run("heff", "--model", str(DATA / "open_system.json"),
                   "--out", str(tmp_path), "--pv-grid", "100") == 2

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # Hermitian family: the pair gap is bounded below, no coalescence
        model = tmp_path / "hermitian.json"
        model.write_text(json.dumps({
            "version": "1", "kind": "two_level",
            "parameters": {"eps1": 1.0, "eps2": -1.0, "omega": 0.3},
            "locate": {"p1": "eps1_re", "p2": "eps2_re", "seed": [0.5, -0.5]}}))
        assert run("locate", "--model", str(model),
                   "--out", str(tmp_path)) == 3


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
        ("heff", "open_system.json"),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, model):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(command, "--model", str(DATA / model),
                       "--out", str(out), "--workers", "1") == 0
        assert tree_bytes(a) == tree_bytes(b)
