#!/usr/bin/env python3
"""shufflab benchmark: one workload per run, untraced or traced.

Run from a checkout of the repository (the package is imported from its
``src/`` directory; nothing needs installing):

    python3 bench/run.py --workload chisq-square --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run repeats passes of the workload until ``--seconds`` have elapsed.  With
``--trace 0`` pass 0 and pass 1 use the same pass seed (their output files
must be byte-identical) and each later pass a new one; the end-to-end
metrics are the median pass wall time, the work-normalised Monte Carlo
variance, the peak RSS and the set-up time of a fresh interpreter.  With
``--trace 1`` an untraced warm-up pass is followed by traced and untraced
passes in turn, all on one pass seed; the per-layer metrics come from the
spans of the traced passes, and ``trace.overhead_s`` is the median traced
pass time minus the median warm untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("chisq-square", "detect-sample", "advantage-curve")

# One BLAS thread: the kernels here are batches of small matrices, which
# OpenBLAS does not speed up with more threads, and a second thread only
# adds contention noise on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import shufflab.cli\n"
    "shufflab.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
PASS_SEED_STRIDE = 1_000_003

END_TO_END = {"setup_s": "s", "wall_s": "s", "rel_var_x_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "randmat.self_s": "s", "randmat.calls": "count", "randmat.matrices": "count",
    "randmat.matrices_per_s": "1/s",
    "chisq.self_s": "s", "chisq.samples": "count", "chisq.samples_per_s": "1/s",
    "model.self_s": "s", "model.draws": "count", "model.draws_per_s": "1/s",
    "detect.self_s": "s", "detect.trials": "count", "detect.error_sum": "fraction",
    "hermite.self_s": "s", "hermite.calls": "count", "hermite.evals": "count",
    "hermite.evals_per_s": "1/s",
    "advantage.self_s": "s", "advantage.patterns": "count", "advantage.bound_s": "s",
    "matrixio.self_s": "s", "matrixio.bytes": "B", "matrixio.mb_per_s": "MB/s",
    "cli.self_s": "s", "cli.rows": "count",
    "trace.overhead_s": "s",
}
# rate metric -> (count metric, time metric, scale of the count)
RATES = {
    "randmat.matrices_per_s": ("randmat.matrices", "randmat.self_s", 1.0),
    "chisq.samples_per_s": ("chisq.samples", "chisq.self_s", 1.0),
    "model.draws_per_s": ("model.draws", "model.self_s", 1.0),
    "hermite.evals_per_s": ("hermite.evals", "hermite.self_s", 1.0),
    "matrixio.mb_per_s": ("matrixio.bytes", "matrixio.self_s", 1e-6),
}


def pass_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th distinct pass of a run at workload seed ``seed``."""
    return seed + PASS_SEED_STRIDE * index


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed: int, passes: int, distinct: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "distinct_pass_seeds": distinct,
        **workload.sizes,
    }


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def layer_metrics(tracer, runs: list[int], overhead_s: float, error_sum: float | None) -> dict:
    """Per-layer metrics: median self times over traced passes, counts of the first."""
    totals = [tracer.layer_totals(r) for r in runs]
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            out[name] = statistics.median(t.get(name, 0.0) for t in totals)
        else:
            out[name] = totals[0].get(name, 0)
    for name, (count, secs, scale) in RATES.items():
        out[name] = out[count] * scale / out[secs] if out[secs] > 0 else 0.0
    out["trace.overhead_s"] = overhead_s
    out["detect.error_sum"] = error_sum if error_sum is not None else 0.0
    return out


def counts_only(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if not k.endswith("_s")}


def same_files(ref: dict[str, str], got: dict[str, str]) -> tuple[bool, str]:
    """Compare two passes' file digests."""
    differ = sorted(k for k in ref.keys() | got.keys() if got.get(k) != ref.get(k))
    return not differ, f"differs in {differ}"


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "shufflab" / "cli.py").is_file():
        print(f"error: {SRC / 'shufflab'} not found; run from a shufflab checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import shufflab

    if Path(shufflab.__file__).resolve().parent != SRC / "shufflab":
        print(f"error: imported shufflab from {shufflab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    rec = workloads.Recorder()
    traced = bool(args.trace)
    tracer = Tracer()
    out_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_s = 0.0
    if not traced:
        setup_s = rec.call("set-up", measure_setup) or 0.0

    walls: dict[bool, list[float]] = {False: [], True: []}
    first_digests: dict[int, dict[str, str]] = {}
    distinct: list = []
    traced_runs: list[int] = []
    start = time.perf_counter()
    index = 0
    try:
        while True:
            # --trace 0: pass seeds 0, 0, 1, 2, ...
            # --trace 1: pass seed 0 throughout; warm-up, then traced and untraced in turn
            sub = 0 if traced else max(index - 1, 0)
            trace_this = traced and index % 2 == 1
            seed = pass_seed(args.seed, sub)
            t0 = time.perf_counter()
            if trace_this:
                with tracer.installed(run=index):
                    out = workload.run_pass(rec, seed, out_dir)
            else:
                out = workload.run_pass(rec, seed, out_dir)
            walls[trace_this].append(time.perf_counter() - t0)
            if trace_this:
                tracer.count("cli.rows", out.rows)
                traced_runs.append(index)
            if sub in first_digests:
                rec.check(f"pass {index} outputs byte-identical to pass seed {seed}",
                          lambda ref=first_digests[sub], got=out.digests: same_files(ref, got))
            else:
                first_digests[sub] = out.digests
                distinct.append(out)
            index += 1
            # a traced run ends on an untraced pass, so both kinds are warm
            complete = (index >= 3 and index % 2 == 1) if traced else index >= 2
            if complete and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    workload.check_pooled(rec, workloads.pooled_estimates(distinct), distinct)
    prov = provenance(workload, args.seed, index, len(distinct))
    if traced:
        first = counts_only(tracer.layer_totals(traced_runs[0]))
        for r in traced_runs[1:]:
            rec.check(f"layer counts of traced pass {r} repeat", lambda r=r: (
                counts_only(tracer.layer_totals(r)) == first,
                "counts differ from the first traced pass"))
        overhead = statistics.median(walls[True]) - statistics.median(walls[False][1:])
        metrics = layer_metrics(tracer, traced_runs, overhead, distinct[0].error_sum)
        units = PER_LAYER
        OUT_ROOT.mkdir(exist_ok=True)
        tracer.write(OUT_ROOT / f"trace-{workload.name}-seed{args.seed}.jsonl", prov)
    else:
        wall_s = statistics.median(walls[False])
        rel_var = statistics.fmean(workloads.relative_variance(p) for p in distinct)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "rel_var_x_s": rel_var * wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(f"provenance {json.dumps(prov)}")
    print(f"pass wall times: untraced {[round(w, 3) for w in walls[False]]}, "
          f"traced {[round(w, 3) for w in walls[True]]}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} fail_rate = {rec.failed}/{rec.attempted} operations")
    if distinct[0].error_sum is not None:
        print(f"{workload.name} detect_error_sum = {distinct[0].error_sum:.4f} "
              "(sigma=0.05, standing criterion-3 failure, not gated)")
    result = {
        "correct": rec.failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process so peak RSS stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
