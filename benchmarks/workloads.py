"""Workload job lists, their set-up, and the per-job correctness gate.

Each workload is a fixed job list drawn from ``--seed``.  Set-up generates
every job's network, scales its coordinates, and writes it as network JSON;
a job then hands only that file (or the framework loaded from it) to the
program.  All library calls go through module attributes, so a traced run
sees them through the wrappers in ``tracing.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import sarod.cli
import sarod.construction
import sarod.netio
import sarod.rigidity
from sarod.geometry import Framework
from sarod.graph import Bipartition, Graph

# Status the localize path must report per recipe, as pinned by the
# acceptance tests for each connectivity regime.
EXPECTED_STATUS = {
    "quad2v": "localizable",
    "bilat-D1A1": "localizable",
    "mix-D2A1": "heuristic-unique",
}
OK_STATUSES = ("localizable", "heuristic-unique")
# Scale-relative RMSE a localize job may not exceed.  Exact data gives
# 1e-15..1e-9 at the sizes below.
RMSE_TOL = 1e-6
ORACLE_TRIALS = 50
QUAD_CLASSES = {1: (1, 2, 3), 2: (1,), 3: (1, 2), 4: (1, 3)}
QUAD_EDGES = ((1, 2), (2, 3), (3, 4), (1, 4))

# A workload is a number of rounds; each round runs one job of every class
# (kind, recipe, n, coordinate scale).  Sizes put the median job inside one
# tight cost cluster: bilat-D1A1 on localize-propagated, and classes of equal
# cost on rigidity-analysis.  A pass takes about 38 s on a 2-core x86 box with
# one BLAS thread.  An "oracle" class runs one random 4-cycle whose A-set
# class cycles through QUAD_CLASSES from round to round.
PROPAGATED_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
WORKLOADS = {
    "localize-propagated": (5, [("localize", recipe, n, scale) for scale in PROPAGATED_SCALES
                                for recipe, n in (("quad2v", 300), ("bilat-D1A1", 150), ("mix-D2A1", 140))]),
    "rigidity-analysis": (10, [("analysis", "quad2v", 260, 1.0), ("analysis", "type2D1", 250, 1.0),
                              ("analysis", "minimal", 270, 1.0), ("analysis", "bilat-D1A1", 180, 1.0),
                              ("analysis", "mix-D2A1", 130, 1.0), ("oracle", "4-cycle", 4, 1.0)]),
}
SMOKE = {
    "localize-propagated": (1, [("localize", recipe, n, scale) for scale in (1e-6, 1.0, 1e6)
                                for recipe, n in (("quad2v", 12), ("bilat-D1A1", 9), ("mix-D2A1", 8))]),
    "rigidity-analysis": (1, [("analysis", recipe, 10, 1.0) for recipe in
                              ("quad2v", "type2D1", "minimal", "bilat-D1A1", "mix-D2A1")]
                          + [("oracle", "4-cycle", 4, 1.0)]),
}


@dataclass
class Job:
    kind: str
    recipe: str
    n: int
    scale: float
    gen_seed: int
    round: int
    path: str = ""
    truth: np.ndarray | None = None

    @property
    def quad_class(self) -> int:
        return self.round % len(QUAD_CLASSES) + 1

    @property
    def label(self) -> str:
        if self.kind == "oracle":
            return f"4-cycle A-set class {self.quad_class} seed={self.gen_seed}"
        return f"{self.recipe} n={self.n} scale={self.scale:g} seed={self.gen_seed}"


@dataclass
class Outcome:
    latency: float
    failed: bool
    unchecked: bool = False  # the output could not be read or contradicts itself
    reason: str = ""


def plan(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list, round by round; the same seed gives the same list."""
    rounds, classes = (SMOKE if smoke else WORKLOADS)[workload]
    rng = np.random.default_rng(seed)
    return [Job(kind, recipe, n, scale, int(rng.integers(2**31)), r)
            for r in range(rounds) for kind, recipe, n, scale in classes]


def _random_quad(rng) -> np.ndarray:
    while True:
        p = rng.uniform(0.0, 1.0, (4, 2))
        diffs = p[:, None, :] - p[None, :, :]
        if (np.sqrt((diffs**2).sum(-1)) + np.eye(4)).min() > 0.05:
            return p


def _quad_framework(case: int, seed: int) -> Framework:
    """Random 4-cycle of one A-set class, off the criterion's decision boundary.

    The criterion is decisive only away from its threshold, so instances
    within 1e-6 of it are redrawn, as in the acceptance sweep.
    """
    rng = np.random.default_rng(seed)
    g = Graph(4, QUAD_EDGES)
    bip = Bipartition.from_a_set(4, QUAD_CLASSES[case])
    while True:
        fw = Framework(g, bip, _random_quad(rng))
        verdict = sarod.rigidity.quad_global_rigidity(fw)
        if verdict.margin > 1e-6 and not verdict.boundary:
            return fw


def setup(jobs: list[Job], workdir: str, call=None):
    """Generate every job's network and write it as network JSON in ``workdir``.

    ``call(name, fn, *args)`` runs a library call; a traced run passes one
    that opens a span.
    """
    call = call or (lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
    for idx, job in enumerate(jobs):
        if job.kind == "oracle":
            fw = _quad_framework(job.quad_class, job.gen_seed)
        else:
            con = call("construction.generate", sarod.construction.generate, job.recipe, job.n, job.gen_seed)
            fw = con.framework
            if job.scale != 1.0:
                fw = Framework(fw.graph, fw.bipartition, fw.points * job.scale)
        job.path = os.path.join(workdir, f"net-{idx:03d}.json")
        job.truth = fw.points
        call("netio.setup_write", sarod.netio.save_network, job.path, fw, (1, 2))


def _raised(t0: float, exc: Exception) -> Outcome:
    return Outcome(time.perf_counter() - t0, True, reason=f"raised {type(exc).__name__}: {exc}")


def run_job(job: Job, workdir: str) -> Outcome:
    if job.kind == "localize":
        return _run_localize(job, workdir)
    if job.kind == "analysis":
        return _run_analysis(job)
    return _run_oracle(job)


def _run_localize(job: Job, workdir: str) -> Outcome:
    csv_path = os.path.join(workdir, "est.csv")
    report_path = os.path.join(workdir, "run.json")
    for path in (csv_path, report_path):
        if os.path.exists(path):
            os.remove(path)
    argv = ["localize", "--net", job.path, "--out-csv", csv_path, "--out-report", report_path]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = sarod.cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        return _raised(t0, exc)
    latency = time.perf_counter() - t0
    if rc == 1:
        return Outcome(latency, True, reason=f"exit 1: {sink.getvalue().strip()}")
    try:
        with open(report_path) as fh:
            status = json.load(fh)["status"]
        with open(csv_path, newline="") as fh:
            est = np.array([[float(r["est_x"]), float(r["est_y"])] for r in csv.DictReader(fh)])
        rmse = float(np.sqrt(np.mean(np.sum((est - job.truth) ** 2, axis=1)))) / job.scale
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(latency, True, True, f"unreadable output: {type(exc).__name__}: {exc}")
    if rc != (0 if status in OK_STATUSES else 2):
        return Outcome(latency, True, True, f"exit {rc} contradicts status {status}")
    expected = EXPECTED_STATUS[job.recipe]
    if status != expected:
        return Outcome(latency, True, reason=f"status {status}, expected {expected} (relative RMSE {rmse:.2e})")
    if not rmse <= RMSE_TOL:
        return Outcome(latency, True, reason=f"status {status} but relative RMSE {rmse:.2e} > {RMSE_TOL:g}")
    return Outcome(latency, False)


def _run_analysis(job: Job) -> Outcome:
    t0 = time.perf_counter()
    try:
        fw, _ = sarod.netio.load_network(job.path)
        report = sarod.rigidity.infinitesimal_rigidity_test(fw)
        dual = sarod.rigidity.duality_check(fw)
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        return _raised(t0, exc)
    latency = time.perf_counter() - t0
    required = 2 * fw.n - 4
    if report.rank != required or not dual.equal:
        return Outcome(latency, True, reason=f"rank {report.rank} (required {required}), "
                                             f"duality ranks {dual.rank}/{dual.rank_swapped}")
    return Outcome(latency, False)


def _run_oracle(job: Job) -> Outcome:
    t0 = time.perf_counter()
    try:
        fw, _ = sarod.netio.load_network(job.path)
        verdict = sarod.rigidity.quad_global_rigidity(fw)
        shapes = sarod.rigidity.equivalent_shape_search(fw, trials=ORACLE_TRIALS)
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        return _raised(t0, exc)
    latency = time.perf_counter() - t0
    if verdict.rigid != (len(shapes) == 1):
        return Outcome(latency, True, reason=f"criterion rigid={bool(verdict.rigid)}, oracle found {len(shapes)} shapes")
    return Outcome(latency, False)
