"""sarod benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload localize-propagated --seed 1 --seconds 45 --trace 0

The run imports ``sarod`` from ``src/`` (and fails if it is missing),
generates the workload's seeded job list and writes the networks as JSON
(set-up), then runs whole passes of the job list, checking every job's
output, until another pass would overrun ``--seconds``.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it wraps the layers'
functions (see ``tracing.py``) and reports per-layer self-time shares and
counts per pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("localize-propagated", "rigidity-analysis")
SETUP_REPEATS = 3
# The layer each workload is built to stress; the traced run says whether it
# really has the largest self time.
EXPECTED_LAYER = {
    "localize-propagated": "snl.factor",
    "rigidity-analysis": "rigidity.factor",
}
# Per-layer counters reported per pass, and ratios of two counters.
PER_PASS_COUNTS = (
    "snl.factor_calls", "snl.factor_flops", "rigidity.factor_calls", "rigidity.factor_flops",
    "snl.nonlinear_calls", "snl.nonlinear_nfev", "snl.recover_calls", "snl.propagate_calls",
    "graph.path_matrix_calls", "graph.cycle_basis_calls", "rigidity.lm_calls", "rigidity.lm_nfev",
    "geometry.rigidity_function_calls",
)
RATIOS = {
    "snl.nonlinear_zero_ratio": ("snl.nonlinear_zeros", "snl.nonlinear_calls"),
    "rigidity.lm_converged_ratio": ("rigidity.lm_converged", "rigidity.lm_calls"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one sarod benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (non-negative)")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny job sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def git_sha(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "sarod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def blas_threads():
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            info = config["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(getattr(numpy.__config__, "CONFIG", None)),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def run_passes(jobs, seconds, workdir, run_job, tracer=None):
    """Whole passes over the job list until another pass would overrun ``seconds``.

    Returns the job outcomes, the pass count, the wall time and the
    throughput (jobs per second) of every round.
    """
    per_round = sum(1 for job in jobs if job.round == jobs[0].round)
    outcomes = []
    round_rates = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = round_start = time.perf_counter()
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{passes}:{idx}"
            outcomes.append(run_job(job, workdir))
            if idx + 1 == len(jobs) or jobs[idx + 1].round != job.round:
                now = time.perf_counter()
                round_rates.append(per_round / (now - round_start))
                round_start = now
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return outcomes, passes, now - start, round_rates


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sarod" / "__init__.py").is_file():
        print(f"error: no sarod source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")

    t_import = time.perf_counter()
    import numpy as np  # noqa: F401
    import sarod

    import tracing
    import workloads

    import_s = time.perf_counter() - t_import
    if Path(sarod.__file__).resolve().parent != SRC / "sarod":
        print(f"error: imported sarod from {sarod.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, env, import_s, workloads, tracing, str(workdir), out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, env, import_s, workloads, tracing, workdir, out_dir) -> int:
    jobs = workloads.plan(args.workload, args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads.setup(jobs, workdir, tracer.call if tracer else None)
        setup_times.append(time.perf_counter() - t0)

    # Warm-up on one tiny job of the same kind, outside all timing.
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir)
    warm = workloads.plan(args.workload, args.seed, smoke=True)[:1]
    workloads.setup(warm, warm_dir)
    workloads.run_job(warm[0], warm_dir)

    if tracer:
        tracer.install()
        first_span = len(tracer.spans)
    try:
        outcomes, passes, wall, round_rates = run_passes(jobs, args.seconds, workdir, workloads.run_job, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    print(f"set-up: import {import_s:.3f} s, set-ups " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    attempted = len(outcomes)
    failed = [(jobs[i % len(jobs)], o) for i, o in enumerate(outcomes) if o.failed]
    correct = not any(o.unchecked for o in outcomes)
    print(f"workload {args.workload} seed {args.seed}: {passes} pass(es) of {len(jobs)} jobs in {wall:.3f} s; "
          f"failed {len(failed)}/{attempted} (failed_frac {len(failed) / attempted:.4f}); correct {correct}")
    for job, outcome in failed[: len(jobs)]:
        print(f"  failed: {job.label}: {outcome.reason}")

    if tracer is None:
        metrics = {
            "jobs_per_s": (statistics.median(round_rates), "1/s"),
            "job_p50_s": (statistics.median(o.latency for o in outcomes), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = layer_metrics(args, tracing, tracer, first_span, passes, wall, statistics.median(round_rates),
                                attempted, len(failed), out_dir, env)

    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(args, tracing, tracer, first_span, passes, wall, jobs_per_s, attempted, failed, out_dir, env) -> dict:
    spanned = tracer.top_level_time(first_span)
    unspanned = wall - spanned
    job_self = {layer: tracer.self_time.get(layer, 0.0) for layer in tracing.JOB_LAYERS}
    error = sum(job_self.values()) + unspanned - wall
    if abs(error) > 1e-9 * max(wall, 1.0) or min(job_self.values()) < -1e-9:
        raise RuntimeError(f"self-time accounting is off by {error:.3e} s")
    print(f"self-time accounting: spans {sum(job_self.values()):.6f} s + unspanned {unspanned:.6f} s "
          f"= traced wall {wall:.6f} s (error {error:.1e} s)")

    largest = max(job_self, key=job_self.get)
    expected = EXPECTED_LAYER[args.workload]
    verdict = "holds" if largest == expected else "DOES NOT HOLD"
    print(f"largest self time: {largest} ({job_self[largest] / wall:.1%} of traced wall); "
          f"expected {expected}: {verdict}")

    # Job-phase layers are reported as shares of the traced wall time: a layer
    # that the workload bypasses would otherwise read exactly 0 s in every run.
    # Seconds per pass are share * trace.wall_s; the trace file keeps them.
    metrics = {}
    for layer in tracing.SETUP_LAYERS:
        metrics[layer + "_s"] = (tracer.self_time.get(layer, 0.0), "s")
    for layer in tracing.JOB_LAYERS:
        metrics[layer + "_share"] = (job_self[layer] / wall, "ratio")
    counts = tracer.counts
    for name in PER_PASS_COUNTS:
        metrics[name] = (counts[name] / passes, "flop" if name.endswith("_flops") else "count")
    for name, (num, den) in RATIOS.items():
        metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    metrics["bench.failed_frac"] = (failed / attempted, "ratio")
    metrics["trace.wall_s"] = (wall / passes, "s")
    metrics["trace.unspanned_s"] = (unspanned / passes, "s")
    metrics["trace.spans"] = ((len(tracer.spans) - first_span) / passes, "count")
    metrics["trace.jobs_per_s"] = (jobs_per_s, "1/s")

    trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed, "passes": passes,
                   "self_time_s_per_pass": {k: v / passes for k, v in job_self.items()},
                   "span_fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh)
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
