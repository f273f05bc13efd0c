"""Per-layer tracing from outside the program.

`Tracer.install` replaces public module attributes and class methods of
nhspec with timing wrappers and `uninstall` puts the originals back.
Each wrapped call is a span: the tracer keeps per-name call counts,
total time, self time (total minus the time of wrapped calls made
inside it) and, for every span open at the time, how many wrapped calls
of each name happened inside it.  `layer_metrics` turns the recorded
state of one pass into the per-layer metrics named in BENCHMARK.json.

Stages without a public entry point are not wrapped; their time shows
as the self time of the wrapped caller.
"""

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span name); a dotted path is a class method
TARGETS = (
    ("nhspec.linalg", "eig", "linalg.eig"),
    ("nhspec.linalg", "c_normalize", "linalg.c_normalize"),
    ("nhspec.twolevel", "TwoLevelModel.matrix", "twolevel.matrix"),
    ("nhspec.twolevel", "PTTwoLevelModel.matrix", "twolevel.matrix"),
    ("nhspec.sweep", "MatrixFamily.__call__", "sweep.family"),
    ("nhspec.sweep", "PlaneFamily.__call__", "sweep.plane_family"),
    ("nhspec.sweep", "sweep", "sweep.sweep"),
    ("nhspec.sweep", "locate_ep", "sweep.locate_ep"),
    ("nhspec.sweep", "encircle", "sweep.encircle"),
    ("nhspec.opensys", "solve_resonances", "opensys.solve_resonances"),
    ("nhspec.opensys", "assemble_heff", "opensys.assemble_heff"),
    ("nhspec.opensys", "pv_integral", "opensys.pv_integral"),
    ("nhspec.opensys", "toy_trapping", "opensys.toy_trapping"),
    ("nhspec.scattering", "lineshape", "scattering.lineshape"),
    ("nhspec.scattering", "s_matrix_polesum", "scattering.polesum"),
    ("nhspec.scattering", "detect_bic", "scattering.detect_bic"),
)


def _eig_flops(args, kwargs):
    h = args[0] if args else kwargs["H"]
    n = h.n if hasattr(h, "n") else len(h)
    # dense nonsymmetric eigenproblem with vectors: ~25 n^3 flops
    return {"linalg.eig_flops": 25.0 * n ** 3}


def _sweep_points(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return {"sweep.grid_points": spec.steps}


def _lineshape_energies(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"scattering.energies": len(grid)}


def _sweep_events(result):
    return {"sweep.events": len(result.events)}


def _resonance_counts(states):
    return {"opensys.fixed_point_iters": sum(s.iterations for s in states),
            "opensys.states": len(states),
            "opensys.converged": sum(bool(s.converged) for s in states)}


ON_CALL = {"linalg.eig": _eig_flops, "sweep.sweep": _sweep_points,
           "scattering.lineshape": _lineshape_energies}
ON_RETURN = {"sweep.sweep": _sweep_events,
             "opensys.solve_resonances": _resonance_counts}


class Tracer:
    """Span counters kept in memory; `state()` is a plain mergeable dict."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.inside = defaultdict(int)      # "outer>inner" -> calls
        self.extra = defaultdict(float)
        self._stack = []                    # [name, start, child_time]

    def state(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "inside": dict(self.inside),
                "extra": dict(self.extra)}

    def install(self):
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        on_call = ON_CALL.get(name)
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                for k, v in on_call(args, kwargs).items():
                    self.extra[k] += v
            self.calls[name] += 1
            stack = self._stack
            for frame in stack:
                self.inside[frame[0] + ">" + name] += 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                # a re-entered name is timed once, by its outermost span
                if not any(f[0] == name for f in stack):
                    self.total[name] += dur
                    self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if on_return is not None:
                for k, v in on_return(result).items():
                    self.extra[k] += v
            return result

        return functools.wraps(fn)(wrapper)


def merge(states):
    """Sum a list of `Tracer.state()` dicts."""
    out = {"calls": {}, "total": {}, "self": {}, "inside": {}, "extra": {}}
    for st in states:
        for part, values in st.items():
            for k, v in values.items():
                out[part][k] = out[part].get(k, 0) + v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(state):
    """Per-layer metrics of one pass from a (merged) tracer state.

    A layer that the workload does not exercise reports 0.
    """
    calls = state["calls"].get
    total = state["total"].get
    extra = state["extra"].get
    inside = state["inside"].get
    eig_s = total("linalg.eig", 0.0)
    points = inside("sweep.sweep>linalg.eig", 0)
    lineshape_s = total("scattering.lineshape", 0.0)
    return {
        "linalg.eig_calls": calls("linalg.eig", 0),
        "linalg.eig_s": eig_s,
        "linalg.eig_gflops": _ratio(extra("linalg.eig_flops", 0.0), eig_s) / 1e9,
        "linalg.c_normalize_calls": calls("linalg.c_normalize", 0),
        "linalg.c_normalize_s": total("linalg.c_normalize", 0.0),
        "twolevel.matrix_calls": calls("twolevel.matrix", 0),
        "twolevel.matrix_s": total("twolevel.matrix", 0.0),
        "sweep.sweep_s": total("sweep.sweep", 0.0),
        "sweep.sweep_self_s": state["self"].get("sweep.sweep", 0.0),
        "sweep.points_evaluated": points,
        "sweep.useful_point_ratio": _ratio(extra("sweep.grid_points", 0), points),
        "sweep.events": extra("sweep.events", 0),
        "sweep.locate_ep_s": total("sweep.locate_ep", 0.0),
        "sweep.locate_ep_evals": inside("sweep.locate_ep>sweep.plane_family", 0),
        "sweep.encircle_s": total("sweep.encircle", 0.0),
        "sweep.encircle_evals": inside("sweep.encircle>sweep.family", 0),
        "opensys.solve_resonances_s": total("opensys.solve_resonances", 0.0),
        "opensys.assemble_heff_calls": calls("opensys.assemble_heff", 0),
        "opensys.assemble_heff_s": total("opensys.assemble_heff", 0.0),
        "opensys.pv_integral_calls": calls("opensys.pv_integral", 0),
        "opensys.pv_integral_s": total("opensys.pv_integral", 0.0),
        "opensys.fixed_point_iters": extra("opensys.fixed_point_iters", 0),
        "opensys.converged_frac": _ratio(extra("opensys.converged", 0),
                                         extra("opensys.states", 0)),
        "opensys.toy_trapping_s": total("opensys.toy_trapping", 0.0),
        "scattering.lineshape_s": lineshape_s,
        "scattering.polesum_calls": calls("scattering.polesum", 0),
        "scattering.polesum_s": total("scattering.polesum", 0.0),
        "scattering.us_per_energy": 1e6 * _ratio(
            lineshape_s, extra("scattering.energies", 0)),
        "scattering.detect_bic_s": total("scattering.detect_bic", 0.0),
    }
