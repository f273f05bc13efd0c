"""nhspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  The program is used as it stands
in src/; nothing is installed.  Each run starts fresh interpreters: a
few that only set up the workload, to time set-up, and then one that
also measures it (see worker.py).  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is the run record (samples, per-op medians, environment),
also written to .perfbench/records/.

--smoke runs every workload once, traced and untraced, on tiny inputs
and fails unless every metric named in BENCHMARK.json is printed with
its unit and every op's output was checked.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_fixtures", "sweep_small", "sweep_large", "continuum")
SETUP_SAMPLES = 5
# one BLAS thread: a closed loop with a single client, and steadier
# timings on a shared machine; recorded with every run
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def _pin_to_one_cpu():
    """Run this process and every process it starts on one CPU, so the
    reference kernel and the ops it is set against share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(workload, seed, seconds, trace, workdir, tiny, setup_only):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    if tiny:
        argv.append("--tiny")
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + 120)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return setup_s, rest


def run(workload, seed, seconds, trace, tiny=False, setup_samples=SETUP_SAMPLES):
    """One benchmark run; returns (result line, run record)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "nhspec" / "__init__.py").is_file():
        raise BenchError(f"no nhspec sources under {ROOT / 'src'}")
    # byte-compile once so no timed interpreter pays for it
    compileall.compile_dir(ROOT / "src", quiet=1)
    _pin_to_one_cpu()
    workdir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up probes on both sides of the measuring run, so that they
        # sample the machine's drift over the whole run
        probes = 0 if trace else setup_samples - 1
        setups = [_worker(workload, seed, seconds, trace, workdir, tiny,
                          setup_only=True)[0] for _ in range(probes // 2)]
        setup_s, out = _worker(workload, seed, seconds, trace, workdir, tiny,
                               setup_only=False)
        setups.append(setup_s)
        setups += [_worker(workload, seed, seconds, trace, workdir, tiny,
                           setup_only=True)[0]
                   for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = json.loads(out.strip().splitlines()[-1])
    metrics = summary.pop("metrics")
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    units = _units()
    result = {
        "correct": summary.pop("correct"),
        "attempted": summary.pop("attempted"),
        "failed": summary.pop("failed"),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "setup_samples_s": setups,
              **summary}
    return result, record


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def smoke():
    """Every workload once, tiny inputs, traced and untraced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run(w["name"], 1, 0, trace, tiny=True,
                                 setup_samples=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(want))} differ")
            for op, rec in record["ops"].items():
                unchecked = rec["samples"] - rec["checked"]
                if unchecked and not rec["errors"]:
                    problems.append(f"{w['name']}: {op} output not checked")
                if rec["problems"]:
                    problems.append(f"{w['name']}: {op}: {rec['problems']}")
            print(f"smoke {w['name']} trace={trace}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print("smoke FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="nhspec benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
