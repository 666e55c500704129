"""Command-line front end.

Subcommands: ``generate`` (build a network from a seeded recipe),
``analyze`` (rigidity/duality/connectivity/localizability report),
``localize`` (solve and emit CSV + report),
``check-quad`` (quadrilateral global-rigidity criterion and shape count), and ``report``
(batch sweeps to an aggregate CSV).  Exit codes: 0 success/localizable,
2 unlocalizable (or not rigid for check-quad), 1 usage or data errors.
All flags are long-form and all randomness is seeded, so identical inputs
produce identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import replace

from .construction import RECIPES, generate
from .graph import enumerate_triples, triple_index_components
from .netio import _json_default, load_measurements, load_network, save_network, write_report, write_result_csv
from .rigidity import _QUAD_EDGES, duality_check, equivalent_shape_search, infinitesimal_rigidity_test, quad_global_rigidity
from .snl import SolverConfig, build_network, localizability_check, localize_network, solution_residuals


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_generate(args) -> int:
    try:
        con = generate(args.recipe, args.n, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    save_network(args.out, con.framework, anchors=(1, 2), construction=con.steps)
    print(f"wrote {args.out}: n={con.framework.n} m={con.framework.m} recipe={con.recipe} seed={con.seed}")
    return 0


def _analysis_report(fw, anchors, config: SolverConfig) -> dict:
    report: dict = {"n": fw.n, "m": fw.m}
    rigidity = infinitesimal_rigidity_test(fw, config.rtol)
    report["rigidity"] = rigidity.to_dict()
    dual = duality_check(fw, config.rtol)
    report["duality"] = {"rank": dual.rank, "rank_swapped": dual.rank_swapped, "equal": dual.equal}
    sa_t, rod_t = enumerate_triples(fw.graph, fw.bipartition, "full")
    _, c_a = triple_index_components(sa_t, fw.graph)
    _, c_d = triple_index_components(rod_t, fw.graph)
    report["sa_components"] = c_a
    report["rod_components"] = c_d
    if fw.n == 4 and set(fw.graph.edges) == _QUAD_EDGES and fw.bipartition.is_nontrivial():
        report["quadrilateral"] = quad_global_rigidity(fw).to_dict()
    if len(anchors) >= 2:
        net = build_network(fw, anchors)
        verdict, evidence = localizability_check(net, config)
        report["anchors"] = list(anchors)
        report["localizability"] = verdict
        report["evidence"] = evidence
    return report


def cmd_analyze(args) -> int:
    try:
        fw, anchors = load_network(args.net)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"{args.net}: {exc}")
    try:
        report = _analysis_report(fw, anchors, SolverConfig(seed=args.seed, starts=args.starts, rtol=args.rtol))
    except ValueError as exc:
        return _fail(str(exc))
    if args.out:
        write_report(args.out, report)
    else:
        print(json.dumps(report, indent=1, default=_json_default))
    return 0


def cmd_localize(args) -> int:
    try:
        fw, anchors = load_network(args.net)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"{args.net}: {exc}")
    if len(anchors) < 2:
        return _fail("network file declares fewer than 2 anchors")
    measurements = None
    if args.measurements:
        try:
            measurements = load_measurements(args.measurements)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            return _fail(f"{args.measurements}: {exc}")
    try:
        config = SolverConfig(seed=args.seed, starts=args.starts, rtol=args.rtol)
        net = build_network(fw, anchors, measurements)
        t0 = time.perf_counter()
        result = localize_network(net, config)
        elapsed = time.perf_counter() - t0
    except ValueError as exc:
        return _fail(str(exc))
    report = {
        "method": result.method,
        "status": result.solution.status,
        "mse": result.mse,
        "runtime_s": elapsed,
        "anchors": list(anchors),
        "info": result.solution.info,
        "residuals": solution_residuals(net, result.solution),
    }
    if args.out_csv:
        write_result_csv(args.out_csv, net.truth, result.positions)
    if args.out_report:
        write_report(args.out_report, report)
    print(f"method={result.method} status={result.solution.status} mse={result.mse:.3e} time={elapsed:.3f}s")
    return 0 if result.solution.status in ("localizable", "heuristic-unique") else 2


def cmd_check_quad(args) -> int:
    try:
        fw, _ = load_network(args.net)
        verdict = quad_global_rigidity(fw)
        shape_count = len(equivalent_shape_search(fw))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"{args.net}: {exc}")
    print(json.dumps({**verdict.to_dict(), "shape_count": shape_count}, indent=1))
    return 0 if verdict.rigid else 2


def _spec_runs(spec) -> list:
    """The runs of a batch spec; raises ValueError naming the first malformed part."""
    runs = spec.get("runs") if isinstance(spec, dict) else spec
    if not isinstance(runs, list):
        raise ValueError('"runs" must be a list of {"recipe", "n", "seeds"} objects')
    for k, entry in enumerate(runs):
        if not isinstance(entry, dict) or "recipe" not in entry:
            raise ValueError(f'run {k} needs a "recipe"')
        if type(entry.get("n")) is not int:
            raise ValueError(f'run {k} needs an integer "n"')
        seeds = entry.get("seeds", [])
        if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds):
            raise ValueError(f'run {k}: "seeds" must be a list of non-negative integers, got {seeds!r}')
    return runs


def cmd_report(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"{args.spec}: {exc}")
    try:
        runs = _spec_runs(spec)
    except ValueError as exc:
        return _fail(f"{args.spec}: {exc}")
    try:
        base_config = SolverConfig(starts=args.starts, rtol=args.rtol)
    except ValueError as exc:
        return _fail(str(exc))
    evidence = [
        "sa_components", "rod_components", "free_bearing_dim", "free_distance_dim", "sa_closure_mismatch",
        "rod_closure_mismatch", "rank_distance_system", "rank_bearing_system", "null_dim", "variables",
    ]
    fields = ["recipe", "n", "seed", "method", "status", "m", *evidence, "mse", "runtime_s"]
    rows = []
    for entry in runs:
        recipe, n = entry["recipe"], entry["n"]
        for seed in entry.get("seeds", [0]):
            row = {"recipe": recipe, "n": n, "seed": seed}
            try:
                con = generate(recipe, n, seed)
                net = build_network(con.framework, (1, 2))
                t0 = time.perf_counter()
                result = localize_network(net, replace(base_config, seed=seed))
                row.update({k: result.solution.info.get(k, "") for k in evidence})
                row.update(
                    method=result.method,
                    status=result.solution.status,
                    m=net.graph.m,
                    mse=f"{result.mse:.6e}",
                    runtime_s=f"{time.perf_counter() - t0:.4f}",
                )
            except Exception as exc:  # recorded per-run, batch continues
                row["status"] = f"error: {exc}"
            rows.append(row)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)  # restval "" fills the fields a failed run lacks
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sarod`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sarod",
        description="Rigidity analysis and localization for planar networks with signed-angle and distance-ratio sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
        p.add_argument("--starts", type=int, default=20, help="multi-start count for nonlinear solves (default: %(default)s)")
        p.add_argument("--rtol", type=float, default=1e-8, help="relative rank tolerance (default: %(default)s)")

    p = sub.add_parser("generate", help="generate a network from a seeded recipe")
    p.add_argument("--recipe", required=True, choices=sorted(RECIPES), help="construction recipe")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="output network JSON path (vertices 1, 2 are marked as anchors)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="rigidity / connectivity / localizability report")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--out", default="", help="write report JSON here (default: stdout)")
    add_solver_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("localize", help="solve the localization problem")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--measurements", default="", help="measurement JSON overriding synthesized values")
    p.add_argument("--out-csv", default="", help="per-vertex result CSV path")
    p.add_argument("--out-report", default="", help="report JSON path")
    add_solver_flags(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("check-quad", help="quadrilateral global-rigidity criterion and equivalent-shape count")
    p.add_argument("--net", required=True, help="network JSON path (4-cycle)")
    p.set_defaults(func=cmd_check_quad)

    p = sub.add_parser("report", help="batch sweep to aggregate CSV")
    p.add_argument("--spec", required=True, help="batch spec JSON: {runs: [{recipe, n, seeds}]}")
    p.add_argument("--out", required=True, help="aggregate CSV path")
    p.add_argument("--starts", type=int, default=20, help="multi-start count (default: %(default)s)")
    p.add_argument("--rtol", type=float, default=1e-8, help="rank tolerance (default: %(default)s)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
