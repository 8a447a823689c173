"""npaft benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-n200 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload's inputs are generated from ``--seed``. With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer metrics, taken from spans recorded around npaft's functions
(each fit also runs once untraced, for the overhead ratio and the
determinism check). Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 a result was printed, 1 the run could not produce every
metric, 2 bad arguments or no npaft source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 4   # fresh interpreters timed besides this process
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_json()["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import and input generation, print the seconds")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; set before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def setup(workload: str, seed: int):
    """One set-up: import the package and generate the workload's inputs."""
    t0 = perf_counter()
    import workloads
    import pipeline  # noqa: F401  (imports the rest of npaft, as the CLI does)
    w = workloads.WORKLOADS[workload]
    inputs = workloads.Inputs(w, seed)
    return perf_counter() - t0, w, inputs


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def fingerprint(nproc: int) -> str:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
    return (f"nproc={nproc} cpu={model!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} {blas}")


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    doc = benchmark_json()
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "npaft" / "__init__.py").is_file():
        print(f"error: no npaft source tree at {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    setup_s, w, inputs = setup(args.workload, args.seed)
    import npaft
    if Path(npaft.__file__).resolve().parent != SRC / "npaft":
        print(f"error: imported npaft from {npaft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import metrics
    import workloads
    from pipeline import Runner

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(w, inputs, workdir, traced=bool(args.trace))
    defs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    try:
        setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        runner.run(args.seconds)
        if args.trace:
            values = metrics.per_layer(runner)
        else:
            values = metrics.end_to_end(runner, setup_samples)
    except (RuntimeError, ValueError, KeyError, OSError, subprocess.TimeoutExpired) as exc:
        # no result without every metric, e.g. when every fit failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for e in runner.errors:
            print(f"  failed op: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {name: values[name] for name in defs}
    declared = declared_metrics(args.trace)
    units = {name: defs[name][0] for name in values}
    if units != declared:
        print(f"error: metrics {units} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 1

    print(f"# npaft benchmark workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} fits={runner.rounds} post-fit rounds={runner.post_rounds}")
    print(f"# machine {fingerprint(nproc)}")
    print(f"# inputs n={w.n} holdout={w.holdout} "
          f"trees={w.n_trees} chains={w.chains} sweeps/chain={w.iterations} "
          f"draws={runner.draws.n_draws} cohorts={len(runner.cohorts)} of "
          f"{runner.candidates} candidates")
    batch = w.intercept_batch if args.trace else 0
    print(f"# known defects: intercept fit failed on {runner.intercept_failed} of "
          f"{runner.candidates + batch} cohorts ({batch} in the batch); default "
          f"bandwidth failed on {len(runner.bandwidth_failed)} of {len(runner.cohorts)}")
    for slot, (rmse, coverage) in sorted(runner.ite_scores.items()):
        print(f"# cohort {slot}: censored={runner.censored_fraction[slot]:.4f} "
              f"ite rmse={rmse:.4f} (max {workloads.RMSE_MAX}) "
              f"coverage95={coverage:.4f} (min {w.coverage_min})")
    print(f"# draws.npz sha256={runner.sha} (first fit)")
    if args.trace:
        print(f"# {'metric':34s} {'value':>14s}  unit   moves")
        for name, v in values.items():
            unit, _, moves = defs[name]
            print(f"  {name:34s} {v:14.6g}  {unit:6s} {moves}")
        spans = OUT / f"spans-{w.name}-seed{args.seed}.npz"
        runner.tracer.save(spans)
        print(f"# {len(runner.tracer.name)} spans written to {spans.relative_to(ROOT)}")
    else:
        print(f"# {'metric':14s} {'value':>12s} {'upper':>12s}      n  unit")
        samples = {m: runner.pooled(op) for m, op in metrics.TIMED_OPS.items()}
        samples["setup_s"] = setup_samples
        for name, v in values.items():
            unit = defs[name][0]
            if name in samples:
                label, hi = metrics.upper_percentile(samples[name])
                print(f"  {name:14s} {v:12.6g} {hi:12.6g} {label:>4s} {len(samples[name]):3d}  {unit}")
            else:
                print(f"  {name:14s} {v:12.6g} {'':>12s}      1  {unit}")
    ratio = runner.failed / runner.attempted
    print(f"  ops_failed_ratio {ratio:.6g} (failed {runner.failed} of {runner.attempted} attempted)")
    for e in runner.errors:
        print(f"# failed op: {e}")
    for e in runner.checks_failed:
        print(f"# failed check: {e}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
