"""Command-line front end.

Reads a JSON model file, dispatches to the numerical layer, and writes
deterministic CSV/JSON (and optional SVG) artifacts.  Exit codes: 0 on
success, 2 on a model or input error, 3 on a numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import opensys, scattering, sweep, twolevel
from .errors import ModelFileError, NhspecError, SelfConsistencyFailure

MODEL_VERSION = "1"
KINDS = ("two_level", "pt_two_level", "avoided_crossing", "open_system",
         "toy_trapping", "smatrix")


# ---------------------------------------------------------------------------
# model-file ingestion

def _fail(msg):
    raise ModelFileError(msg)


def _require(record, field, where):
    if not isinstance(record, dict):
        _fail(f"{where} must be a JSON object")
    if field not in record:
        _fail(f"missing field {field!r} in {where}")
    return record[field]


def _as_float(value, name):
    if type(value) not in (int, float):     # not a string or a bool
        _fail(f"field {name!r} is not a number")
    x = float(value) if abs(value) <= sys.float_info.max else np.inf
    if not np.isfinite(x):
        _fail(f"field {name!r} is not finite")
    return x


def _as_int(value, name):
    if type(value) is int or type(value) is float and value.is_integer():
        if abs(value) > np.iinfo(np.intp).max // 8:     # numpy refuses a
            _fail(f"field {name!r} is too large")       # float array this long
        return int(value)       # bool is not an int here
    _fail(f"field {name!r} is not an integer")


def _as_complex(value, name):
    if isinstance(value, (int, float)):
        return complex(_as_float(value, name))
    if not (isinstance(value, list) and len(value) == 2):
        _fail(f"field {name!r} must be a number or a [re, im] pair")
    return complex(_as_float(value[0], name), _as_float(value[1], name))


def _as_array(value, name, *ndims):
    try:
        arr = np.asarray(value, float)
    except (TypeError, ValueError, OverflowError):
        _fail(f"field {name!r} is not a numeric array")
    if arr.ndim not in ndims or not np.isfinite(arr).all():
        _fail(f"field {name!r} must be a finite "
              f"{' or '.join(map(str, ndims))}-d array")
    return arr


def load_model_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(f"cannot read model file {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"model file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail("model file must contain a JSON object")
    version = _require(doc, "version", "model file")
    if version != MODEL_VERSION:
        _fail(f"unrecognized model file version {version!r}")
    kind = _require(doc, "kind", "model file")
    if kind not in KINDS:
        _fail(f"unknown model kind {kind!r}")
    if not isinstance(_require(doc, "parameters", "model file"), dict):
        _fail("field 'parameters' must be a JSON object")
    return doc


# model class and field parser of each kind that sweep, locate and encircle
# take; fields are read, and a missing one named, in declared order
_SWEEP_MODELS = {
    "two_level": (twolevel.TwoLevelModel, _as_complex),
    "pt_two_level": (twolevel.PTTwoLevelModel, _as_float),
    "avoided_crossing": (twolevel.AvoidedCrossingModel, _as_float)}


def _build_coupling(rec):
    profile = _require(rec, "profile", "coupling")
    if profile == "constant":
        return opensys.ConstantCoupling(
            _as_array(_require(rec, "values", "coupling"), "values", 2))
    if profile == "semicircle":
        return opensys.SemicircleCoupling(
            _as_array(_require(rec, "strengths", "coupling"), "strengths", 2))
    if profile == "tabulated":
        return opensys.TabulatedCoupling(
            grid=_as_array(_require(rec, "energies", "coupling"),
                           "energies", 1),
            values=_as_array(_require(rec, "values", "coupling"), "values", 3))
    _fail(f"unknown coupling profile {profile!r}")


def _build_open_system(p):
    window = _as_array(_require(p, "window", "parameters"), "window", 1)
    if len(window) != 2:
        _fail("field 'window' must be a [lo, hi] pair")
    grid_size = _as_int(p.get("grid_size", 201), "grid_size")
    v_direct = p.get("v_direct")
    if v_direct is not None:
        v_direct = _as_array(v_direct, "v_direct", 2)
    return opensys.OpenSystemModel(
        e_b=_as_array(_require(p, "e_b", "parameters"), "e_b", 1),
        coupling=_build_coupling(_require(p, "coupling", "parameters")),
        window=(float(window[0]), float(window[1])),
        grid_size=grid_size, v_direct=v_direct)


def _build_smatrix(p, grid):
    if "h_b" in p:
        h_b = _as_array(p["h_b"], "h_b", 1, 2)
        if h_b.ndim == 1:
            h_b = np.diag(h_b)
        return scattering.SMatrixModel.from_effective_hamiltonian(
            h_b, _as_array(_require(p, "gamma_hat", "parameters"),
                           "gamma_hat", 2), energy_grid=grid)
    poles = [_as_complex(z, "poles") for z in _require(p, "poles",
                                                       "parameters")]
    return scattering.SMatrixModel(
        poles=np.array(poles),
        couplings=np.array([[_as_complex(c, "couplings") for c in row]
                            for row in _require(p, "couplings", "parameters")]),
        energy_grid=grid)


def _linspace_block(rec, where):
    start = _as_float(_require(rec, "start", where), "start")
    stop = _as_float(_require(rec, "stop", where), "stop")
    field = "points" if "points" in rec else "steps"
    points = _as_int(_require(rec, field, where), field)
    if points < 2:
        _fail(f"{where} needs at least 2 points")
    if start == stop:
        _fail(f"{where} needs start != stop")
    return np.linspace(start, stop, points)


# ---------------------------------------------------------------------------
# deterministic emission

def write_csv(path, header, columns):
    """CSV of one 1-D array per column: bools as 1/0, integers by str, floats
    by repr (bit-exact round trip); columns of unequal length raise."""
    cells = [map(str, col.astype(int).tolist()) if col.dtype.kind in "biu"
             else map(repr, col.astype(float).tolist())
             for col in map(np.asarray, columns)]
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*cells, strict=True)]
    Path(path).write_text("\n".join(lines) + "\n")


def _plain(obj):
    """What json cannot encode itself: a complex value as [re, im], numpy
    scalars and arrays as Python values (np.float64 is a float already)."""
    if isinstance(obj, complex):        # np.complex128 too
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _dumps(path, obj, indent=None):
    # NaN and inf have no JSON spelling; emitting one is a numerical failure
    try:
        return json.dumps(obj, sort_keys=True, indent=indent,
                          allow_nan=False, default=_plain)
    except ValueError as exc:
        raise NhspecError(f"non-finite value for {path}: {exc}") from exc


def write_json(path, obj):
    Path(path).write_text(_dumps(path, obj, 2) + "\n", encoding="utf-8")


def write_jsonl(path, records):
    text = "".join(_dumps(path, r) + "\n" for r in records)
    Path(path).write_text(text, encoding="utf-8")


# minimal deterministic SVG: two stacked panels of polylines
_SVG_W, _SVG_H, _SVG_PAD = 640, 240, 40
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22")


def _panel(x, ys, y_off, label):
    """A framed panel with one polyline per row of ys (k, T) over x (T)."""
    lo_x, lo_y = float(x.min()), float(ys.min())
    span_x = float(x.max()) - lo_x or 1.0
    span_y = float(ys.max()) - lo_y or 1.0
    parts = [f'<rect x="{_SVG_PAD}" y="{y_off + 10}" '
             f'width="{_SVG_W - 2 * _SVG_PAD}" height="{_SVG_H - 50}" '
             'fill="none" stroke="#000000"/>',
             f'<text x="{_SVG_PAD}" y="{y_off + 8}" '
             f'font-size="12">{label}</text>']
    px = (_SVG_PAD + (x - lo_x) / span_x * (_SVG_W - 2 * _SVG_PAD)).tolist()
    py = y_off + 10 + (_SVG_H - 50) * (1.0 - (ys - lo_y) / span_y)
    for k, y in enumerate(py.tolist()):
        pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{_SVG_COLORS[k % len(_SVG_COLORS)]}"/>')
    return parts


def write_trajectory_svg(path, params, values):
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
            f'height="{2 * _SVG_H}">']
    body += _panel(params, values.real.T, 0, "Re z")
    body += _panel(params, values.imag.T, _SVG_H, "Im z")
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _model_for_sweep(doc):
    kind = doc["kind"]
    if kind not in _SWEEP_MODELS:
        _fail(f"model kind {kind!r} has no sweep interpretation")
    cls, parse = _SWEEP_MODELS[kind]
    p = doc["parameters"]
    return cls(**{name: parse(_require(p, name, "parameters"), name)
                  for name in cls._fields})


def _columns(records, *names):
    """One array per named attribute over a list of records."""
    return [np.array([getattr(r, name) for r in records]) for name in names]


def _long_form(x, values, *tables):
    """Columns x, k, Re z, Im z, *tables of one row per (x, state k)."""
    t, n = values.shape
    return [np.repeat(x, n), np.tile(np.arange(n), t), values.real.ravel(),
            values.imag.ravel(), *(a.ravel() for a in tables)]


def cmd_sweep(doc, out, emit):
    model = _model_for_sweep(doc)
    block = _require(doc, "sweep", "model file")
    spec = sweep.SweepSpec(
        model=model,
        parameter=_require(block, "parameter", "sweep block"),
        start=_as_float(_require(block, "start", "sweep block"), "start"),
        stop=_as_float(_require(block, "stop", "sweep block"), "stop"),
        steps=_as_int(_require(block, "steps", "sweep block"), "steps"))
    res = sweep.sweep(spec)
    if "csv" in emit:
        write_csv(out / "sweep.csv", "param k re_z im_z A r gap".split(),
                  _long_form(res.params, res.values, res.norms_A,
                             res.rigidity_r,
                             np.repeat(res.min_gap, res.values.shape[1])))
    if "json" in emit:
        write_jsonl(out / "events.jsonl",
                    [{"kind": e.kind, "param": e.param,
                      "indices": list(e.indices)} for e in res.events])
    if "svg" in emit:
        write_trajectory_svg(out / "trajectories.svg", res.params, res.values)
    return 0


def cmd_locate(doc, out, emit):
    model = _model_for_sweep(doc)
    block = _require(doc, "locate", "model file")
    p1 = _require(block, "p1", "locate block")
    p2 = _require(block, "p2", "locate block")
    seed = _as_array(_require(block, "seed", "locate block"), "seed", 1)
    if len(seed) != 2:
        _fail("field 'seed' must be a [p1, p2] pair")
    loc = sweep.locate_ep(model, tuple(seed.tolist()), p1=p1, p2=p2)
    if "json" in emit:
        write_json(out / "ep.json", {
            "p1": loc.p1, "p2": loc.p2, "z0": complex(loc.z0),
            "residual": loc.gap, "backward_error": loc.backward_error,
            "step": loc.step, "iterations": loc.iterations})
    return 0


def cmd_encircle(doc, out, emit):
    model = _model_for_sweep(doc)
    block = _require(doc, "encircle", "model file")
    spec = sweep.EncircleSpec(
        center=_as_complex(_require(block, "center", "encircle block"),
                           "center"),
        radius=_as_float(_require(block, "radius", "encircle block"),
                         "radius"),
        steps_per_cycle=_as_int(block.get("steps_per_cycle", 256),
                                "steps_per_cycle"),
        cycles=_as_int(block.get("cycles", 4), "cycles"))
    rep = sweep.encircle(spec, model)
    if "json" in emit:
        write_json(out / "cycles.json", {
            "encloses_ep": rep.encloses_ep,
            "eigenvalue_period": rep.eigenvalue_period,
            "eigenvector_period": rep.eigenvector_period,
            "cycles": [{"permutation": list(c.permutation),
                        "phases": [complex(p) for p in c.phases]}
                       for c in rep.cycles]})
    if "csv" in emit:
        header = ["theta"] + [f"{part}_z{k}" for k in range(rep.values.shape[1])
                              for part in ("re", "im")]
        # a complex row viewed as floats is re_z0, im_z0, re_z1, ...
        write_csv(out / "contour.csv", header,
                  [rep.theta, *rep.values.view(float).T])
    return 0


def cmd_trap(doc, out, emit):
    if doc["kind"] != "toy_trapping":
        _fail("trap requires a toy_trapping model")
    p = doc["parameters"]
    h0 = _as_array(_require(p, "h0", "parameters"), "h0", 1, 2)
    v = _as_array(_require(p, "v", "parameters"), "v", 1, 2)
    alphas = _linspace_block(_require(doc, "alphas", "model file"),
                             "alphas block")
    fraction = _as_float(p.get("trapped_fraction", 0.1), "trapped_fraction")
    rep = opensys.toy_trapping(h0, v, alphas, trapped_fraction=fraction)
    if "csv" in emit:
        own_max = np.maximum(rep.widths.max(axis=0), 1e-300)
        write_csv(out / "trapping.csv",
                  "alpha k re_z im_z gamma trapped_flag".split(),
                  _long_form(rep.alphas, rep.values, rep.widths,
                             rep.widths < fraction * own_max))
    if "json" in emit:
        write_json(out / "summary.json", {
            "alpha_cr": rep.alpha_cr, "slope": rep.slope,
            "fit_residual": rep.fit_residual, "n_trapped": rep.n_trapped})
    return 0


def cmd_scatter(doc, out, emit):
    if doc["kind"] != "smatrix":
        _fail("scatter requires an smatrix model")
    p = doc["parameters"]
    grid = _linspace_block(_require(doc, "grid", "model file"), "grid block")
    channel = _as_int(p.get("channel", 0), "channel")
    if "double_pole" in p:
        dp = p["double_pole"]
        rep = scattering.double_pole_lineshape(
            _as_float(_require(dp, "e_d", "double_pole"), "e_d"),
            _as_float(_require(dp, "gamma_d", "double_pole"), "gamma_d"),
            grid)
        bics = []
    else:
        model = _build_smatrix(p, grid)
        rep = scattering.lineshape(model, grid, channel=channel)
        bics = scattering.detect_bic(model, channel=channel)
    if "csv" in emit:
        write_csv(out / "smatrix.csv",
                  "energy channel re_s im_s sigma phase".split(),
                  [rep.grid, np.full(len(rep.grid), channel),
                   rep.s_values.real, rep.s_values.imag, rep.sigma, rep.phase])
    if "json" in emit:
        write_json(out / "features.json", {
            "total_phase_change": rep.total_phase_change,
            "sigma_at_center": rep.sigma_at_center,
            "halfmax_span": rep.halfmax_span,
            "breit_wigner_span": rep.breit_wigner_span,
            "minima": rep.minima, "maxima": rep.maxima,
            "bic": [{"index": b.index, "energy": b.energy,
                     "phase_jump": b.phase_jump,
                     "peak_resolved": b.peak_resolved} for b in bics]})
    return 0


def cmd_heff(doc, out, emit):
    if doc["kind"] != "open_system":
        _fail("heff requires an open_system model")
    model = _build_open_system(doc["parameters"])
    states = opensys.solve_resonances(model)
    z, width, energy, converged, iterations, residual = _columns(
        states, "z", "width", "energy", "converged", "iterations", "residual")
    if "csv" in emit:
        write_csv(out / "resonances.csv", "index re_z im_z width energy "
                  "converged iterations residual".split(),
                  [np.arange(len(states)), z.real, z.imag, width, energy,
                   converged, iterations, residual])
    failed = np.flatnonzero(~converged).tolist()
    if failed:
        raise SelfConsistencyFailure(f"states {failed} did not converge")
    return 0


COMMANDS = {"sweep": cmd_sweep, "locate": cmd_locate,
            "encircle": cmd_encircle, "trap": cmd_trap,
            "scatter": cmd_scatter, "heff": cmd_heff}


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nhspec",
        description="Non-Hermitian spectral analysis of open quantum systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--emit", default="csv,json",
                       help="comma-separated subset of csv,json,svg")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    emit = tuple(s for s in args.emit.split(",") if s)
    if not set(emit) <= {"csv", "json", "svg"}:
        print("nhspec: unknown emit format in " + args.emit, file=sys.stderr)
        return 2
    try:
        doc = load_model_file(args.model)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](doc, out, emit)
    except (ModelFileError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"nhspec: input error: {exc}", file=sys.stderr)
        return 2
    except NhspecError as exc:
        print(f"nhspec: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
