"""Span tracing of the sarod layers, applied from outside the package.

A :class:`Tracer` replaces selected module attributes with wrappers that
open a span (name, start, end, parent span, job id) around each call and
update counters.  The attribute is replaced where the *caller* looks it
up: ``sarod.snl`` imported ``numerical_rank`` by name from
``sarod.rigidity``, so calls made by the localization code are traced as
``snl.factor`` through ``sarod.snl.numerical_rank`` while calls made by
the rank tests are traced as ``rigidity.factor`` through
``sarod.rigidity.numerical_rank``.  Nothing under ``src/`` changes, and
untraced runs install no wrapper at all.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap and the self times of all spans plus the un-spanned time add up to
the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

import sarod.cli
import sarod.netio
import sarod.rigidity
import sarod.snl

# Layers that live in the set-up phase; all other layers are job-phase.
SETUP_LAYERS = ("construction.generate", "netio.setup_write")

# Acceptance thresholds the instrumented solvers apply to their own starts,
# read from the package so the counters follow its defaults.
SNL_ZERO_TOL = sarod.snl.SolverConfig().zero_tol
ORACLE_RESIDUAL_TOL = inspect.signature(sarod.rigidity.equivalent_shape_search).parameters["residual_tol"].default


def svd_flops(shape, vectors: str) -> int:
    """Flop estimate of a dense SVD from the matrix shape.

    Golub & Van Loan, Matrix Computations (4th ed.), Fig. 8.6.1 counts for
    an m x n matrix with m >= n: singular values only 4mn^2 - 4n^3/3;
    values and V 4mn^2 + 8n^3; values, full U and V 4m^2 n + 8mn^2 + 9n^3.
    A computed count, not a measurement: it ignores cache behaviour and the
    LAPACK routine's actual path, and it repeats exactly for equal shapes.
    """
    if len(shape) != 2 or 0 in shape:
        return 0
    m, n = max(shape), min(shape)
    if vectors == "none":
        return 4 * m * n * n - (4 * n**3) // 3
    if vectors == "v":
        return 4 * m * n * n + 8 * n**3
    return 4 * m * m * n + 8 * m * n * n + 9 * n**3


def _factor_hook(layer: str, vectors: str):
    def hook(tracer, args, result):
        tracer.counts[layer + "_flops"] += svd_flops(np.shape(args[0]), vectors)

    return hook


def _snl_nonlinear_hook(tracer, args, result):
    tracer.counts["snl.nonlinear_nfev"] += int(result.nfev)
    if float(np.sum(result.fun**2)) < SNL_ZERO_TOL:
        tracer.counts["snl.nonlinear_zeros"] += 1


def _oracle_lm_hook(tracer, args, result):
    tracer.counts["rigidity.lm_calls"] += 1
    tracer.counts["rigidity.lm_nfev"] += int(result.nfev)
    if np.all(np.isfinite(result.fun)) and float(np.max(np.abs(result.fun))) <= ORACLE_RESIDUAL_TOL:
        tracer.counts["rigidity.lm_converged"] += 1


def _count_hook(name: str):
    def hook(tracer, args, result):
        tracer.counts[name] += 1

    return hook


# (module, attribute, span name or None for counter-only, hook).  Every
# entry wraps the binding its caller resolves at call time.
INSTRUMENTS = [
    (sarod.cli, "cmd_localize", "cli.localize", None),
    (sarod.cli, "load_network", "netio.load", None),
    (sarod.netio, "load_network", "netio.load", None),
    (sarod.cli, "write_result_csv", "netio.write", None),
    (sarod.cli, "write_report", "netio.write", None),
    (sarod.cli, "build_network", "snl.build_network", None),
    (sarod.cli, "localize_network", "snl.localize", None),
    (sarod.cli, "solution_residuals", "snl.residuals", None),
    (sarod.snl, "synthesize_measurements", "geometry.synthesize", None),
    (sarod.snl, "enumerate_triples", "graph.enumerate_triples", None),
    (sarod.snl, "triple_index_components", "graph.components", None),
    (sarod.snl, "fundamental_cycle_basis", "graph.cycle_basis", None),
    (sarod.snl, "path_matrix", "graph.path_matrix", None),
    (sarod.snl, "propagate_bearings", "snl.propagate", None),
    (sarod.snl, "propagate_distances", "snl.propagate", None),
    (sarod.snl, "assemble_bearing_system", "snl.assemble", None),
    (sarod.snl, "assemble_distance_system", "snl.assemble", None),
    (sarod.snl, "solve_sa_connected", "snl.solve", None),
    (sarod.snl, "solve_rod_connected", "snl.solve", None),
    (sarod.snl, "solve_disconnected", "snl.solve", None),
    (sarod.snl, "numerical_rank", "snl.factor", _factor_hook("snl.factor", "none")),
    (sarod.snl, "null_space", "snl.factor", _factor_hook("snl.factor", "full")),
    (sarod.snl, "lstsq", "snl.factor", _factor_hook("snl.factor", "v")),
    (sarod.snl, "least_squares", "snl.nonlinear", _snl_nonlinear_hook),
    (sarod.snl, "recover_positions", "snl.recover", None),
    (sarod.rigidity, "infinitesimal_rigidity_test", "rigidity.rank_test", None),
    (sarod.rigidity, "duality_check", "rigidity.duality", None),
    (sarod.rigidity, "assemble_rigidity_matrix", "rigidity.assemble", None),
    (sarod.rigidity, "enumerate_triples", "graph.enumerate_triples", None),
    (sarod.rigidity, "numerical_rank", "rigidity.factor", _factor_hook("rigidity.factor", "none")),
    (sarod.rigidity, "null_space", "rigidity.factor", _factor_hook("rigidity.factor", "full")),
    (sarod.rigidity, "quad_global_rigidity", "rigidity.quad_criterion", None),
    (sarod.rigidity, "equivalent_shape_search", "rigidity.shape_search", None),
    # The oracle makes tens of thousands of these calls; they are counted,
    # not spanned, and their time stays in rigidity.shape_search.
    (sarod.rigidity, "least_squares", None, _oracle_lm_hook),
    (sarod.rigidity, "rigidity_function", None, _count_hook("geometry.rigidity_function_calls")),
]

JOB_LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in INSTRUMENTS if name))


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # "<span>_calls" per span name, plus the hooks' counters
        self.job = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple] = []

    def open(self, name: str) -> list:
        frame = [len(self.spans), 0.0]
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(frame)
        return frame

    def close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        rec = self.spans[frame[0]]
        rec[2] = end
        duration = end - rec[1]
        self.self_time[rec[0]] += duration - frame[1]
        self.counts[rec[0] + "_calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark itself."""
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def install(self):
        for module, attr, name, hook in INSTRUMENTS:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return spanned

    def top_level_time(self, since: int = 0) -> float:
        """Summed duration of the root spans recorded from index ``since`` on."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] == -1)
