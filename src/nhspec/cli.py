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
from .errors import ModelFileError, NhspecError

MODEL_VERSION = "1"
KINDS = ("two_level", "pt_two_level", "avoided_crossing", "open_system",
         "toy_trapping", "smatrix")


# ---------------------------------------------------------------------------
# model-file ingestion

def _fail(msg):
    raise ModelFileError(msg)


def _require(record, field, where):
    if field not in record:
        _fail(f"missing field {field!r} in {where}")
    return record[field]


def _as_float(value, name):
    try:
        x = float(value)
    except (TypeError, ValueError):
        _fail(f"field {name!r} is not a number")
    if not np.isfinite(x):
        _fail(f"field {name!r} is not finite")
    return x


def _as_complex(value, name):
    if isinstance(value, (int, float)):
        return complex(_as_float(value, name))
    if not (isinstance(value, list) and len(value) == 2):
        _fail(f"field {name!r} must be a number or a [re, im] pair")
    return complex(_as_float(value[0], name), _as_float(value[1], name))


def _as_array(value, name, ndim):
    try:
        arr = np.asarray(value, float)
    except (TypeError, ValueError):
        _fail(f"field {name!r} is not a numeric array")
    if arr.ndim != ndim or not np.isfinite(arr).all():
        _fail(f"field {name!r} must be a finite {ndim}-d array")
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
    _require(doc, "parameters", "model file")
    return doc


def _build_two_level(p):
    return twolevel.TwoLevelModel(
        eps1=_as_complex(_require(p, "eps1", "parameters"), "eps1"),
        eps2=_as_complex(_require(p, "eps2", "parameters"), "eps2"),
        omega=_as_complex(_require(p, "omega", "parameters"), "omega"))


def _build_pt(p):
    return twolevel.PTTwoLevelModel(
        e=_as_float(_require(p, "e", "parameters"), "e"),
        gamma=_as_float(_require(p, "gamma", "parameters"), "gamma"),
        omega=_as_float(_require(p, "omega", "parameters"), "omega"))


def _build_avoided(p):
    names = ("e1_0", "e1_slope", "e2_0", "e2_slope",
             "gamma1_0", "gamma2_0", "omega")
    vals = {n: _as_float(_require(p, n, "parameters"), n) for n in names}
    return twolevel.AvoidedCrossingModel(**vals)


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
            values=np.asarray(_require(rec, "values", "coupling"), float))
    _fail(f"unknown coupling profile {profile!r}")


def _build_open_system(p, pv_grid=None):
    window = _as_array(_require(p, "window", "parameters"), "window", 1)
    if len(window) != 2:
        _fail("field 'window' must be a [lo, hi] pair")
    grid_size = int(p.get("grid_size", 201))
    if pv_grid is not None:
        grid_size = pv_grid
    v_direct = p.get("v_direct")
    if v_direct is not None:
        v_direct = _as_array(v_direct, "v_direct", 2)
    return opensys.OpenSystemModel(
        e_b=_as_array(_require(p, "e_b", "parameters"), "e_b", 1),
        coupling=_build_coupling(_require(p, "coupling", "parameters")),
        window=(float(window[0]), float(window[1])),
        grid_size=grid_size, v_direct=v_direct)


def _build_smatrix(p):
    if "h_b" in p:
        h_b = np.asarray(p["h_b"], float)
        if h_b.ndim == 1:
            h_b = np.diag(h_b)
        return scattering.SMatrixModel.from_effective_hamiltonian(
            h_b, _as_array(_require(p, "gamma_hat", "parameters"),
                           "gamma_hat", 2))
    poles = [_as_complex(z, "poles") for z in _require(p, "poles",
                                                       "parameters")]
    return scattering.SMatrixModel(
        poles=np.array(poles),
        couplings=np.array([[_as_complex(c, "couplings") for c in row]
                            for row in _require(p, "couplings", "parameters")]))


def _linspace_block(rec, where):
    start = _as_float(_require(rec, "start", where), "start")
    stop = _as_float(_require(rec, "stop", where), "stop")
    points = int(_require(rec, "points" if "points" in rec else "steps",
                          where))
    if points < 2:
        _fail(f"{where} needs at least 2 points")
    return np.linspace(start, stop, points)


# ---------------------------------------------------------------------------
# deterministic emission

def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path, obj):
    Path(path).write_text(
        json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def write_jsonl(path, records):
    lines = [json.dumps(_jsonable(r), sort_keys=True) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


# minimal deterministic SVG: two stacked panels of polylines
_SVG_W, _SVG_H, _SVG_PAD = 640, 240, 40
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22")


def _panel(x, ys, y_off, label):
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y = float(min(y.min() for y in ys))
    hi_y = float(max(y.max() for y in ys))
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0
    parts = [f'<rect x="{_SVG_PAD}" y="{y_off + 10}" '
             f'width="{_SVG_W - 2 * _SVG_PAD}" height="{_SVG_H - 50}" '
             'fill="none" stroke="#000000"/>',
             f'<text x="{_SVG_PAD}" y="{y_off + 8}" '
             f'font-size="12">{label}</text>']
    for k, y in enumerate(ys):
        pts = []
        for xv, yv in zip(x, y):
            px = _SVG_PAD + (xv - lo_x) / span_x * (_SVG_W - 2 * _SVG_PAD)
            py = y_off + 10 + (_SVG_H - 50) * (1.0 - (yv - lo_y) / span_y)
            pts.append(f"{px:.3f},{py:.3f}")
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}"/>')
    return parts


def write_trajectory_svg(path, params, values):
    x = np.asarray(params, float)
    re = [values[:, k].real for k in range(values.shape[1])]
    im = [values[:, k].imag for k in range(values.shape[1])]
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
            f'height="{2 * _SVG_H}">']
    body += _panel(x, re, 0, "Re z")
    body += _panel(x, im, _SVG_H, "Im z")
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _model_for_sweep(doc, pv_grid=None):
    kind = doc["kind"]
    p = doc["parameters"]
    if kind == "two_level":
        return _build_two_level(p)
    if kind == "pt_two_level":
        return _build_pt(p)
    if kind == "avoided_crossing":
        return _build_avoided(p)
    if kind == "open_system":
        return _build_open_system(p, pv_grid)
    _fail(f"model kind {kind!r} has no sweep interpretation")


def cmd_sweep(doc, out, config):
    block = _require(doc, "sweep", "model file")
    if doc["kind"] == "open_system":
        _fail("sweep requires a matrix-model kind, not open_system")
    model = _model_for_sweep(doc)
    spec = sweep.SweepSpec(
        model=model,
        parameter=_require(block, "parameter", "sweep block"),
        start=_as_float(_require(block, "start", "sweep block"), "start"),
        stop=_as_float(_require(block, "stop", "sweep block"), "stop"),
        steps=int(_require(block, "steps", "sweep block")))
    result = sweep.sweep(spec)

    n = len(result.rows[0].values)
    emit = config.get("emit", ("csv", "json"))
    if "csv" in emit:
        header = ["param", "k", "re_z", "im_z", "A", "r", "gap"]
        rows = []
        for r in result.rows:
            for k in range(n):
                rows.append([r.param, k, r.values[k].real, r.values[k].imag,
                             r.norms_A[k], r.rigidity_r[k], r.min_gap])
        write_csv(out / "sweep.csv", header, rows)
    if "json" in emit:
        write_jsonl(out / "events.jsonl",
                    [{"kind": e.kind, "param": e.param,
                      "indices": list(e.indices)} for e in result.events])
    if "svg" in emit:
        params = np.array([r.param for r in result.rows])
        values = np.array([r.values for r in result.rows])
        write_trajectory_svg(out / "trajectories.svg", params, values)
    return 0


def cmd_locate(doc, out, config):
    model = _model_for_sweep(doc)
    block = _require(doc, "locate", "model file")
    p1 = _require(block, "p1", "locate block")
    p2 = _require(block, "p2", "locate block")
    seed = _require(block, "seed", "locate block")
    seed = (_as_float(seed[0], "seed"), _as_float(seed[1], "seed"))
    if config.get("seed_p1") is not None:
        seed = (config["seed_p1"], seed[1])
    if config.get("seed_p2") is not None:
        seed = (seed[0], config["seed_p2"])
    loc = sweep.locate_ep(model, seed, p1=p1, p2=p2,
                          gap_tol=config.get("tol_ep", 1e-10))
    write_json(out / "ep.json", {
        "p1": loc.p1, "p2": loc.p2, "z0": complex(loc.z0),
        "residual": loc.gap, "iterations": loc.iterations})
    return 0


def cmd_encircle(doc, out, config):
    model = _model_for_sweep(doc)
    block = _require(doc, "encircle", "model file")
    spec = sweep.EncircleSpec(
        center=_as_complex(_require(block, "center", "encircle block"),
                           "center"),
        radius=_as_float(_require(block, "radius", "encircle block"),
                         "radius"),
        steps_per_cycle=int(block.get("steps_per_cycle", 256)),
        cycles=int(block.get("cycles", 4)))
    rep = sweep.encircle(spec, model)
    write_json(out / "cycles.json", {
        "encloses_ep": rep.encloses_ep,
        "eigenvalue_period": rep.eigenvalue_period,
        "eigenvector_period": rep.eigenvector_period,
        "cycles": [{"permutation": list(c.permutation),
                    "phases": [complex(p) for p in c.phases]}
                   for c in rep.cycles]})
    n = len(rep.contour[0][1])
    header = ["theta"] + [f"{part}_z{k}" for k in range(n)
                          for part in ("re", "im")]
    rows = []
    for theta, vals in rep.contour:
        row = [theta]
        for k in range(n):
            row += [vals[k].real, vals[k].imag]
        rows.append(row)
    write_csv(out / "contour.csv", header, rows)
    return 0


def cmd_trap(doc, out, config):
    if doc["kind"] != "toy_trapping":
        _fail("trap requires a toy_trapping model")
    p = doc["parameters"]
    h0 = np.asarray(_require(p, "h0", "parameters"), float)
    v = np.asarray(_require(p, "v", "parameters"), float)
    alphas = _linspace_block(_require(doc, "alphas", "model file"),
                             "alphas block")
    fraction = p.get("trapped_fraction", 0.1)
    rep = opensys.toy_trapping(h0, v, alphas, trapped_fraction=fraction)
    n = rep.widths.shape[1]
    own_max = np.maximum(rep.widths.max(axis=0), 1e-300)
    header = ["alpha", "k", "re_z", "im_z", "gamma", "trapped_flag"]
    rows = []
    for t in range(len(rep.alphas)):
        for k in range(n):
            rows.append([rep.alphas[t], k, rep.values[t, k].real,
                         rep.values[t, k].imag, rep.widths[t, k],
                         bool(rep.widths[t, k] < fraction * own_max[k])])
    write_csv(out / "trapping.csv", header, rows)
    write_json(out / "summary.json", {
        "alpha_cr": rep.alpha_cr, "slope": rep.slope,
        "fit_residual": rep.fit_residual, "n_trapped": rep.n_trapped})
    return 0


def cmd_scatter(doc, out, config):
    if doc["kind"] != "smatrix":
        _fail("scatter requires an smatrix model")
    p = doc["parameters"]
    grid = _linspace_block(_require(doc, "grid", "model file"), "grid block")
    channel = int(p.get("channel", 0))
    if "double_pole" in p:
        dp = p["double_pole"]
        rep = scattering.double_pole_lineshape(
            _as_float(_require(dp, "e_d", "double_pole"), "e_d"),
            _as_float(_require(dp, "gamma_d", "double_pole"), "gamma_d"),
            grid)
        bics = []
    else:
        model = _build_smatrix(p)
        model.energy_grid = grid
        rep = scattering.lineshape(model, grid, channel=channel)
        bics = scattering.detect_bic(model, channel=channel,
                                     bic_tol=config.get("bic_tol", 1e-12))
    header = ["energy", "channel", "re_s", "im_s", "sigma", "phase"]
    rows = [[rep.grid[t], channel, rep.s_values[t].real, rep.s_values[t].imag,
             rep.sigma[t], rep.phase[t]] for t in range(len(rep.grid))]
    write_csv(out / "smatrix.csv", header, rows)
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


def cmd_heff(doc, out, config):
    if doc["kind"] != "open_system":
        _fail("heff requires an open_system model")
    model = _build_open_system(doc["parameters"], config.get("pv_grid"))
    states = opensys.solve_resonances(model)
    header = ["index", "re_z", "im_z", "width", "energy", "converged",
              "iterations", "residual"]
    rows = [[k, s.z.real, s.z.imag, s.width, s.energy, s.converged,
             s.iterations, s.residual] for k, s in enumerate(states)]
    write_csv(out / "resonances.csv", header, rows)
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
        # accepted and validated for compatibility; nothing uses it since
        # sweeps diagonalize stacked grids instead of a thread pool
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--tol-ep", type=float, default=1e-10)
        p.add_argument("--pv-grid", type=int, default=None)
        if name == "locate":
            p.add_argument("--seed-p1", type=float, default=None)
            p.add_argument("--seed-p2", type=float, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    emit = tuple(s for s in args.emit.split(",") if s)
    if not set(emit) <= {"csv", "json", "svg"}:
        print("nhspec: unknown emit format in " + args.emit, file=sys.stderr)
        return 2
    if args.workers < 1:
        print("nhspec: workers must be >= 1", file=sys.stderr)
        return 2
    if args.tol_ep <= 0:
        print("nhspec: --tol-ep must be positive", file=sys.stderr)
        return 2
    if args.pv_grid is not None and (args.pv_grid < 3 or args.pv_grid % 2 == 0):
        print("nhspec: --pv-grid must be odd and >= 3", file=sys.stderr)
        return 2
    config = {"emit": emit, "tol_ep": args.tol_ep,
              "pv_grid": args.pv_grid,
              "seed_p1": getattr(args, "seed_p1", None),
              "seed_p2": getattr(args, "seed_p2", None)}
    try:
        doc = load_model_file(args.model)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](doc, out, config)
    except (ModelFileError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"nhspec: input error: {exc}", file=sys.stderr)
        return 2
    except NhspecError as exc:
        print(f"nhspec: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
