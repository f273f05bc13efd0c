"""One measuring process of the benchmark; started by run.py.

It builds the workload's inputs from the seed and prints "ready" when
the first op could start.  With --setup-only it stops there.  Otherwise
it runs passes over the workload's fixed op list for about --seconds,
one op at a time, times each op, checks every output after the pass,
and prints one JSON line with the samples summary and the environment.

With --trace 1 it alternates untraced and traced passes; the traced
ones give the per-layer metrics and the pair gives the tracing overhead.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 3


class Sample:
    def __init__(self, op, seconds, output=None, error=None):
        self.op = op
        self.seconds = seconds
        self.ref = None             # seconds / reference-kernel seconds
        self.output = output
        self.error = error          # raised NhspecError or bad exit code
        self.problem = None         # failed correctness check
        self.checked = False


class ComputeReference:
    """Fixed work, independent of nhspec, timed next to every op.

    The machine's speed drifts by tens of percent over seconds (host
    contention); an op's time divided by a reference kernel's time
    measured around it is the *_ref unit, which follows that drift far
    less.  The kernel has to load the machine the way the op does:
    `mixed` is interpreter work plus small dense LAPACK calls, like the
    sweeps and the per-energy S loops; `arrays` is passes over
    (2001, 10, 10) arrays, like the continuum quadrature, which `mixed`
    did not track.  Calling it times every kind, each as the median of
    three runs, and returns {kind: seconds}.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)) \
            + 1j * rng.standard_normal((48, 48))
        self._grid = rng.standard_normal((2001, 10, 10))
        self._np = np

    def _mixed(self):
        for _ in range(4):
            self._np.linalg.eig(self._a)
        x = 0
        for i in range(40000):
            x += i * i

    def _arrays(self):
        np = self._np
        np.trapezoid(np.gradient(self._grid, axis=0) * self._grid, axis=0)

    @staticmethod
    def _median_of_three(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def __call__(self):
        return {"mixed": self._median_of_three(self._mixed),
                "arrays": self._median_of_three(self._arrays)}


def process_reference():
    """Reference kernel for CLI ops: a fresh interpreter importing numpy,
    which tracks process start and import work better than arithmetic."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return {"process": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# passes: start_pass, run_op for each op, end_pass checks the outputs

class InprocWorkload:
    def __init__(self, name, seed, tiny):
        import inproc
        from nhspec.errors import NhspecError

        self.ops = inproc.WORKLOADS[name](seed, tiny)
        self.reference = ComputeReference()
        self._error_type = NhspecError
        self._tracer = None

    def start_pass(self, tracer):
        self._tracer = tracer
        if tracer is not None:
            tracer.reset()
            tracer.install()

    def run_op(self, op):
        t0 = time.perf_counter()
        try:
            out = op.run()
        except self._error_type as exc:
            return Sample(op, time.perf_counter() - t0,
                          error=f"{type(exc).__name__}: {exc}")
        return Sample(op, time.perf_counter() - t0, out)

    def end_pass(self, samples):
        state = None
        if self._tracer is not None:
            self._tracer.uninstall()
            state = self._tracer.state()
        for s in samples:
            if s.error is None:
                s.problem = s.op.check(s.output)
                s.checked = True
            s.output = None
        return state

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli_main_s(self):
        return 0.0


class CliWorkload:
    def __init__(self, seed, workdir):
        import cli_fixtures

        self.workdir = workdir
        self.ops = cli_fixtures.build(seed, workdir)
        self.reference = process_reference
        self._run = cli_fixtures.run
        self._traced = False

    def _state_file(self, op):
        return self.workdir / f"{op.name}.trace.json"

    def start_pass(self, tracer):
        self._traced = tracer is not None

    def run_op(self, op):
        prefix = [sys.executable, "-m", "nhspec.cli"]
        if self._traced:
            prefix = [sys.executable, str(HERE / "tracecli.py"),
                      str(self._state_file(op))]
        t0 = time.perf_counter()
        rc, stderr = self._run(op, self.workdir, prefix)
        sample = Sample(op, time.perf_counter() - t0, output=stderr)
        if rc != op.expect_rc:
            sample.error = f"exit code {rc}: {stderr.strip()[-300:]}"
        return sample

    def end_pass(self, samples):
        for s in samples:
            if s.error is None:
                try:
                    s.problem = s.op.check(self.workdir / s.op.name, s.output)
                except (OSError, ValueError, KeyError, TypeError,
                        IndexError) as exc:
                    s.problem = f"artifact unreadable: {exc!r}"
                s.checked = True
            s.output = None
        if not self._traced:
            return None
        import layers

        return layers.merge([json.loads(self._state_file(s.op).read_text())
                             for s in samples])

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def cli_main_s(self):
        """In-process cli.main over every command, imports already warm."""
        import nhspec.cli

        times = []
        with open(os.devnull, "w") as sink, redirect_stderr(sink):
            for _ in range(IMPORT_PROBES):
                t0 = time.perf_counter()
                for op in self.ops:
                    nhspec.cli.main([op.command] + op.argv(self.workdir))
                times.append(time.perf_counter() - t0)
        return statistics.median(times)


def run_pass(workload, tracer):
    """One pass over the op list, one op at a time, the reference kernel
    timed before the first op and after each; returns (samples, tracer
    state, kernel times)."""
    gc.collect()
    ref = workload.reference
    cal = [ref()]
    samples = []
    workload.start_pass(tracer)
    for op in workload.ops:
        samples.append(workload.run_op(op))
        cal.append(ref())
    state = workload.end_pass(samples)
    for k, s in enumerate(samples):
        kind = s.op.kernel
        s.ref = s.seconds / (0.5 * (cal[k][kind] + cal[k + 1][kind]))
    return samples, state, cal


def measure(workload, seconds, trace):
    """Run cycles of passes until the next one would overrun `seconds`.

    A cycle is one untraced pass, followed with --trace 1 by a traced one.
    Returns the untraced passes' samples, the traced passes' (samples,
    tracer state), and the untraced passes' reference-kernel times.
    """
    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer()
    plain, traced, cal = [], [], []
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        samples, _, c = run_pass(workload, None)
        plain.append(samples)
        cal.append(c)
        if trace:
            samples, state, _ = run_pass(workload, tracer)
            traced.append((samples, state))
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > seconds:
            return plain, traced, cal


# ---------------------------------------------------------------------------
# probes and the environment

def _scipy_import_s(importtime_log):
    """Cumulative import time of the outermost scipy modules, in seconds.

    -X importtime prints modules after their children, indented by
    depth; read backwards, each line's parent is the last shallower one.
    """
    total_us = 0
    stack = []
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue                    # the header line
        field = parts[2].rstrip()
        depth = len(field) - len(field.lstrip())
        name = field.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (parent == "scipy" or parent.startswith("scipy.")):
            total_us += cumulative
        stack.append((depth, name))
    return total_us / 1e6


def import_probes():
    """Fresh-interpreter import time of nhspec.cli and of its scipy part."""
    code = ("import time; t = time.perf_counter(); import nhspec.cli; "
            "print(time.perf_counter() - t)")
    wall, scipy_part = [], []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        wall.append(float(out))
        log = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import nhspec.cli"], check=True,
                             capture_output=True, text=True).stderr
        scipy_part.append(_scipy_import_s(log))
    return statistics.median(wall), statistics.median(scipy_part)


def _git_commit():
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# summary

def _per_op(passes):
    out = {}
    for samples in passes:
        for s in samples:
            rec = out.setdefault(s.op.name, {"times": [], "refs": [],
                                             "errors": [], "problems": [],
                                             "checked": 0})
            rec["times"].append(s.seconds)
            rec["refs"].append(s.ref)
            rec["checked"] += s.checked
            if s.error and s.error not in rec["errors"]:
                rec["errors"].append(s.error)
            if s.problem and s.problem not in rec["problems"]:
                rec["problems"].append(s.problem)
    for rec in out.values():
        times = rec.pop("times")
        rec["samples"] = len(times)
        rec["median_s"] = statistics.median(times)
        rec["median_ref"] = statistics.median(rec.pop("refs"))
    return out


def _pass_totals(passes, attr):
    return [sum(getattr(s, attr) for s in p) for p in passes]


def summarize(workload, plain, traced, cal, trace):
    all_passes = plain + [samples for samples, _ in traced]
    samples = [s for p in all_passes for s in p]
    failed = sum(1 for s in samples if s.error or s.problem)
    pass_s = statistics.median(_pass_totals(plain, "seconds"))
    # median over ops of each op's median: with an even number of ops the
    # plain median of all samples would sit between two ops' extremes
    op_refs = [statistics.median(s.ref for p in plain for s in p
                                 if s.op is op) for op in workload.ops]
    summary = {
        "correct": not any(s.problem for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "ops": _per_op(all_passes),
        "pass_s": _pass_totals(plain, "seconds"),
        "pass_ref": _pass_totals(plain, "ref"),
        "op_samples": sum(len(p) for p in plain),
        # machine speed during the run: median total time of the kernels
        "ref_kernel_s": statistics.median(sum(t.values()) for c in cal
                                          for t in c),
        "pass_cal_s": cal,
        "pass_op_s": [[s.seconds for s in p] for p in plain],
    }
    if not trace:
        summary["metrics"] = {
            "pass_ref": statistics.median(summary["pass_ref"]),
            "op_p50_ref": statistics.median(op_refs),
            "ok_frac": 1.0 - failed / len(samples),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        return summary
    import layers

    per_pass = [layers.layer_metrics(state) for _, state in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    traced_pass_s = statistics.median(
        _pass_totals([p for p, _ in traced], "seconds"))
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_probes()
    metrics["cli.main_s"] = workload.cli_main_s()
    metrics["trace.pass_s"] = traced_pass_s
    metrics["trace.untraced_pass_s"] = pass_s
    # in reference units, so the machine's drift between the two passes
    # of a cycle cancels
    metrics["trace.overhead"] = statistics.median(
        _pass_totals([p for p, _ in traced], "ref")) \
        / statistics.median(summary["pass_ref"])
    metrics["trace.ref_kernel_s"] = summary["ref_kernel_s"]
    summary["metrics"] = metrics
    summary["traced_passes"] = len(traced)
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli_fixtures":
        workload = CliWorkload(args.seed, args.workdir)
    else:
        workload = InprocWorkload(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    plain, traced, cal = measure(workload, args.seconds, args.trace)
    summary = summarize(workload, plain, traced, cal, args.trace)
    summary["environment"] = environment()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
