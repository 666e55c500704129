"""File-format round trips and the command-line contract (flags, outputs,
exit codes: 0 success/localizable, 2 unlocalizable, 1 usage/data errors)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sarod
from sarod import Bipartition, Framework, Graph, MeasurementSet, build_network, enumerate_triples, generate_quadrilateralized, synthesize_measurements
from sarod.cli import build_parser, main
from sarod.construction import RECIPES, generate
from sarod.netio import (
    load_measurements,
    load_network,
    measurements_from_dict,
    measurements_to_dict,
    network_from_dict,
    save_measurements,
    save_network,
    write_report,
)


def test_network_schema_roundtrip(tmp_path, rng):
    fw = generate_quadrilateralized(10, 3).framework
    path = tmp_path / "net.json"
    save_network(path, fw, anchors=(1, 2), construction=[{"kind": "seed"}])
    fw2, anchors = load_network(path)
    assert anchors == (1, 2)
    assert fw2.graph.edges == fw.graph.edges
    assert fw2.bipartition.attrs == fw.bipartition.attrs
    assert np.allclose(fw2.points, fw.points)
    data = json.loads(path.read_text())
    assert data["construction"] == [{"kind": "seed"}]
    assert [tuple(e) for e in data["edges"]] == list(fw.graph.edges)


def test_network_schema_validation():
    with pytest.raises(ValueError, match="missing"):
        network_from_dict({"vertices": []})
    with pytest.raises(ValueError, match="ids"):
        network_from_dict({"vertices": [{"id": 2, "attr": "A", "pos": [0, 0]}], "edges": []})
    bad_attr = {"vertices": [{"id": 1, "attr": "X", "pos": [0, 0]}], "edges": []}
    with pytest.raises(ValueError, match="attr"):
        network_from_dict(bad_attr)
    for vid in (1.5, True):
        with pytest.raises(ValueError, match="id must be an integer"):
            network_from_dict({"vertices": [{"id": vid, "attr": "A", "pos": [0, 0]}], "edges": []})
    tri = [{"id": v, "attr": "A", "pos": [float(v), float(v * v)]} for v in (1, 2, 3)]
    for edge in ([1.5, 2], [True, 2], [2, 3.0], [1, "2"], 5):
        with pytest.raises(ValueError, match="integer vertex ids|vertex ids must be integers"):
            network_from_dict({"vertices": tri, "edges": [edge, [2, 3]]})
    for vertices in (5, "abc", {"1": tri[0]}):
        with pytest.raises(ValueError, match="vertices must be a list"):
            network_from_dict({"vertices": vertices, "edges": []})
    for pos in ([None, 1.0], [1.0, True], ["0", 1.0], [[0.0], 1.0], [10**400, 1.0], [1.0]):
        bad_pos = [dict(rec) for rec in tri]
        bad_pos[1]["pos"] = pos
        with pytest.raises(ValueError, match="vertex 2: pos (must be|x must be|y must be|x is out of range)"):
            network_from_dict({"vertices": bad_pos, "edges": [[1, 2], [2, 3]]})
    for value in (float("nan"), float("inf")):
        bad_pos = [dict(rec) for rec in tri]
        bad_pos[1]["pos"] = [0.0, value]
        with pytest.raises(ValueError, match="vertex 2: position is not finite"):
            network_from_dict({"vertices": bad_pos, "edges": [[1, 2], [2, 3]]})
    # Only JSON true and false are anchor flags: the string "false" is not an anchor that is off.
    for flag in ("false", "no", 0, 1, None):
        bad_anchor = [dict(rec) for rec in tri]
        bad_anchor[1]["anchor"] = flag
        with pytest.raises(ValueError, match="vertex 2: anchor must be true or false"):
            network_from_dict({"vertices": bad_anchor, "edges": [[1, 2], [2, 3]]})
    # Two records for one id are refused, not resolved by keeping the last.
    twice = [{"id": 1, "attr": "A", "pos": [0.0, 0.0], "anchor": True}, {"id": 1, "attr": "D", "pos": [5.0, 5.0]}, *tri[1:]]
    with pytest.raises(ValueError, match="duplicate vertex id 1"):
        network_from_dict({"vertices": twice, "edges": [[1, 2], [2, 3]]})
    tri[0]["anchor"], tri[2]["anchor"] = True, False
    assert network_from_dict({"vertices": tri, "edges": [[1, 2], [2, 3]]})[1] == (1,)


def test_measurement_schema_roundtrip(tmp_path, rng):
    fw = generate_quadrilateralized(8, 1).framework
    sa, rod = enumerate_triples(fw.graph, fw.bipartition, "full")
    ms = synthesize_measurements(fw.points, sa, rod)
    path = tmp_path / "meas.json"
    save_measurements(path, ms)
    ms2 = load_measurements(path)
    assert ms2.sa == pytest.approx(ms.sa)
    assert ms2.rod == pytest.approx(ms.rod)
    with pytest.raises(ValueError, match="sa measurement"):
        measurements_from_dict({"sa": [{"apex": 1}], "rod": []})
    # JSON 1.9 and true are not vertex ids: int() would read both as vertex 1.
    for apex in (1.9, True, "1"):
        with pytest.raises(ValueError, match="apex must be an integer"):
            measurements_from_dict({"sa": [], "rod": [{"apex": apex, "j": 2, "k": 3, "value": 1.0}]})
    for value in (None, "1.0", 10**400):
        with pytest.raises(ValueError, match="value (must be a number|is out of range)"):
            measurements_from_dict({"sa": [{"apex": 1, "j": 2, "k": 3, "value": value}]})
    for top in ([], "sa", None):
        with pytest.raises(ValueError, match="must be an object"):
            measurements_from_dict(top)
    with pytest.raises(ValueError, match="rod must be a list"):
        measurements_from_dict({"rod": 5})
    # A second record for one triple is refused, not silently kept over the first.
    twice = [{"apex": 2, "j": 1, "k": 3, "value": 1.0}, {"apex": 2, "j": 1, "k": 3, "value": 2.0}]
    with pytest.raises(ValueError, match=r"duplicate rod measurement for triple \(2, 1, 3\)"):
        measurements_from_dict({"sa": [], "rod": twice})


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_network_file_round_trips_bit_for_bit(tmp_path, recipe):
    # The compact writer keeps each float's shortest repr, so every coordinate loads back exactly.
    con = generate(recipe, 14, 3)
    path = tmp_path / "net.json"
    save_network(path, con.framework, anchors=(1, 2), construction=con.steps)
    fw, anchors = load_network(path)
    assert np.array_equal(fw.points, con.framework.points)
    assert (fw.graph.edges, fw.bipartition.attrs, anchors) == (con.framework.graph.edges, con.framework.bipartition.attrs, (1, 2))
    assert json.loads(path.read_text())["construction"] == con.steps
    assert path.read_text().endswith("}\n")


def test_report_and_measurement_files_parse_to_their_dict(tmp_path):
    fw = generate_quadrilateralized(8, 1).framework
    ms = synthesize_measurements(fw.points, *enumerate_triples(fw.graph, fw.bipartition, "full"))
    report = {"status": "localizable", "mse": 1e-31, "info": {"rank": np.int64(12), "defect": np.float64(0.1), "x": np.arange(3.0)}}
    meas_path, report_path = tmp_path / "meas.json", tmp_path / "report.json"
    save_measurements(meas_path, ms)
    write_report(report_path, report)
    assert json.loads(meas_path.read_text()) == measurements_to_dict(ms)
    assert json.loads(report_path.read_text()) == {"status": "localizable", "mse": 1e-31, "info": {"rank": 12, "defect": 0.1, "x": [0.0, 1.0, 2.0]}}
    assert meas_path.read_text().endswith("}\n") and report_path.read_text().endswith("}\n")


def test_cold_import_loads_only_the_scipy_it_calls(tmp_path):
    # scipy.stats and scipy.optimize took most of a cold start: neither the
    # import nor a generate, localize (a heuristic multi-start) or analyze
    # run may load them, or scipy.spatial and scipy.special, which they pull in.
    net = tmp_path / "net.json"
    code = (
        "import sys, sarod, sarod.cli\n"
        f"sarod.cli.main(['generate', '--recipe', 'mix-D2A1', '--n', '12', '--seed', '0', '--out', {str(net)!r}])\n"
        f"sarod.cli.main(['localize', '--net', {str(net)!r}])\n"
        f"sarod.cli.main(['analyze', '--net', {str(net)!r}, '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial', 'scipy.special') if m in sys.modules])\n"
    )
    src = str(Path(sarod.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "status=heuristic-unique" in run.stdout
    assert run.stdout.splitlines()[-1] == "[]"
    # The names benchmarks/tracing.py wraps still solve, loading scipy.optimize on first call.
    assert sarod.snl.least_squares is sarod.rigidity.least_squares
    res = sarod.rigidity.least_squares(lambda x: x * x - [4.0, 9.0], np.ones(2))
    assert np.allclose(res.x, [2.0, 3.0]) and res.nfev > 1 and np.max(np.abs(res.fun)) < 1e-10


def test_cli_generate_and_localize(tmp_path):
    net = tmp_path / "n.json"
    csv_path = tmp_path / "out.csv"
    rep_path = tmp_path / "rep.json"
    assert main(["generate", "--recipe", "quad2v", "--n", "12", "--seed", "4", "--out", str(net)]) == 0
    code = main([
        "localize", "--net", str(net), "--out-csv", str(csv_path), "--out-report", str(rep_path), "--seed", "0",
    ])
    assert code == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 12
    assert set(rows[0]) == {"vertex_id", "true_x", "true_y", "est_x", "est_y", "err"}
    assert max(float(r["err"]) for r in rows) < 1e-8
    report = json.loads(rep_path.read_text())
    assert report["status"] == "localizable"
    assert report["mse"] < 1e-16


def test_cli_generate_rejects_bad_recipe(tmp_path, capsys):
    assert main(["generate", "--recipe", "quad2v", "--n", "7", "--out", str(tmp_path / "x.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_localize_unlocalizable_exit_code(tmp_path):
    con = generate_quadrilateralized(12, 3, defect_quads=1)
    net = tmp_path / "bad.json"
    save_network(net, con.framework, anchors=(1, 2))
    assert main(["localize", "--net", str(net)]) == 2


def test_cli_localize_has_no_method_flag(tmp_path, capsys):
    # The regime is an output: the report names it, and no flag forces one.
    from sarod import generate_two_step

    con = generate_two_step(10, 0)
    net = tmp_path / "ts.json"
    report = tmp_path / "run.json"
    save_network(net, con.framework, anchors=(1, 2))
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--net", str(net), "--method", "general"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err
    assert main(["localize", "--net", str(net), "--out-report", str(report)]) == 0
    assert json.loads(report.read_text())["method"] == "general"


def test_cli_localize_external_measurements(tmp_path):
    from sarod import build_network

    con = generate_quadrilateralized(10, 6)
    net_path = tmp_path / "n.json"
    save_network(net_path, con.framework, anchors=(1, 2))
    net = build_network(con.framework, (1, 2))
    from sarod import MeasurementSet

    ms = MeasurementSet(dict(net.sa), dict(net.rod))
    meas_path = tmp_path / "m.json"
    save_measurements(meas_path, ms)
    assert main(["localize", "--net", str(net_path), "--measurements", str(meas_path)]) == 0


def test_cli_localize_rejects_inconsistent_ratio_on_sa_connected_network(tmp_path, capsys):
    from sarod import MeasurementSet, build_network

    con = generate_quadrilateralized(12, 0)
    net = build_network(con.framework, (1, 2))
    assert net.bearing_param.fully_resolved
    rod = dict(net.rod)
    # Triples at an apex of degree >= 3 close a cycle in the RoD index graph.
    key = next(t for t in rod if sum(u == t[0] for u, _, _ in rod) >= 3)
    rod[key] *= 1.01
    net_path, meas_path = tmp_path / "n.json", tmp_path / "m.json"
    save_network(net_path, con.framework, anchors=(1, 2))
    save_measurements(meas_path, MeasurementSet(dict(net.sa), rod))
    assert main(["localize", "--net", str(net_path), "--measurements", str(meas_path)]) == 1
    assert "infeasible RoD data" in capsys.readouterr().err


def test_cli_report_reads_solution_evidence(tmp_path):
    spec = tmp_path / "batch.json"
    out = tmp_path / "batch.csv"
    spec.write_text(json.dumps({"runs": [{"recipe": "bilat-D1A1", "n": 9, "seeds": [0]}]}))
    assert main(["report", "--spec", str(spec), "--out", str(out)]) == 0
    (row,) = list(csv.DictReader(open(out)))
    assert row["status"] == "localizable"
    assert row["rod_components"] == "1" and row["free_distance_dim"] == "0"
    assert int(row["sa_components"]) > 1
    assert float(row["sa_closure_mismatch"]) < 1e-12 and float(row["rod_closure_mismatch"]) < 1e-12
    assert row["rank_bearing_system"] == str(4 * 9 - 6)


def test_cli_analyze_report_fields(tmp_path):
    net = tmp_path / "n.json"
    out = tmp_path / "report.json"
    main(["generate", "--recipe", "bilat-D1A1", "--n", "9", "--seed", "2", "--out", str(net)])
    assert main(["analyze", "--net", str(net), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rigidity"]["verdict"] == "rigid"
    assert report["rigidity"]["required"] == 2 * 9 - 4
    assert report["duality"]["equal"]
    assert report["rod_components"] == 1
    assert report["localizability"] == "localizable"
    assert report["evidence"]["rank_bearing_system"] == 4 * 9 - 6


def test_cli_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--net", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    # Collocated vertices, a non-finite position and a non-integer edge end
    # are data errors, not tracebacks.
    g = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    save_network(bad, Framework(g, Bipartition.from_a_set(4, [1]), np.array([[0.0, 0], [1, 0], [0, 0], [0, 1]])), anchors=(1, 2))
    assert main(["analyze", "--net", str(bad)]) == 1
    assert "error: collocated nodes" in capsys.readouterr().err
    data = json.loads(bad.read_text())
    data["vertices"][2]["pos"] = [float("nan"), 1.0]
    bad.write_text(json.dumps(data))
    assert main(["analyze", "--net", str(bad)]) == 1
    assert "position is not finite" in capsys.readouterr().err
    data["vertices"][2]["pos"] = [1.0, 1.0]
    data["edges"][0] = [1.5, 2]
    bad.write_text(json.dumps(data))
    assert main(["analyze", "--net", str(bad)]) == 1
    assert "vertex ids must be integers" in capsys.readouterr().err
    data["edges"][0] = [1, 2]
    data["vertices"][2]["pos"] = [None, 1.0]
    bad.write_text(json.dumps(data))
    assert main(["analyze", "--net", str(bad)]) == 1
    assert "error:" in (err := capsys.readouterr().err) and "vertex 3: pos x must be a number" in err
    data["vertices"][2]["pos"] = [1.0, 1.0]
    data["vertices"][2]["anchor"] = "false"
    bad.write_text(json.dumps(data))
    for command in ("analyze", "localize"):
        assert main([command, "--net", str(bad)]) == 1
        assert "error:" in (err := capsys.readouterr().err) and "vertex 3: anchor must be true or false, got 'false'" in err
    data["vertices"] = {"id": 1}
    bad.write_text(json.dumps(data))
    assert main(["localize", "--net", str(bad)]) == 1
    assert "vertices must be a list" in capsys.readouterr().err


def test_cli_localize_rejects_non_integer_measurement_ids(tmp_path, capsys):
    con = generate_quadrilateralized(10, 6)
    net, meas = tmp_path / "n.json", tmp_path / "m.json"
    save_network(net, con.framework, anchors=(1, 2))
    for apex in (1.9, True):
        meas.write_text(json.dumps({"sa": [{"apex": apex, "j": 2, "k": 3, "value": 1.0}], "rod": []}))
        assert main(["localize", "--net", str(net), "--measurements", str(meas)]) == 1
        assert "apex must be an integer" in capsys.readouterr().err
    meas.write_text("[]")
    assert main(["localize", "--net", str(net), "--measurements", str(meas)]) == 1
    assert "must be an object" in capsys.readouterr().err


def test_cli_localize_rejects_duplicate_measurements(tmp_path, capsys):
    con = generate_quadrilateralized(10, 6)
    net, meas = tmp_path / "n.json", tmp_path / "m.json"
    save_network(net, con.framework, anchors=(1, 2))
    exact = build_network(con.framework, (1, 2))
    records = measurements_to_dict(MeasurementSet(exact.sa, exact.rod))
    records["sa"].append(dict(records["sa"][0], value=records["sa"][0]["value"] + 0.5))
    meas.write_text(json.dumps(records))
    assert main(["localize", "--net", str(net), "--measurements", str(meas)]) == 1
    t = tuple(records["sa"][0][key] for key in ("apex", "j", "k"))
    assert "error:" in (err := capsys.readouterr().err) and f"duplicate sa measurement for triple {t}" in err


def test_cli_rejects_invalid_solver_flags(tmp_path, capsys):
    net = tmp_path / "n.json"
    assert main(["generate", "--recipe", "quad2v", "--n", "12", "--seed", "0", "--out", str(net)]) == 0
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps({"runs": [{"recipe": "quad2v", "n": 12, "seeds": [0]}]}))
    for flags in (["--rtol", "nan"], ["--rtol", "0"], ["--rtol", "1"], ["--starts", "0"], ["--starts", "-3"]):
        for argv in (["analyze", "--net", str(net)], ["localize", "--net", str(net)], ["report", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]):
            assert main(argv + flags) == 1, argv + flags
            assert "error:" in capsys.readouterr().err
    # A negative seed is refused up front, also where no multi-start would draw from it.
    assert main(["generate", "--recipe", "mix-D2A1", "--n", "12", "--seed", "0", "--out", str(tmp_path / "mix.json")]) == 0
    for argv in (
        ["generate", "--recipe", "quad2v", "--n", "12", "--out", str(tmp_path / "g.json")],
        ["analyze", "--net", str(net)],
        ["localize", "--net", str(net)],
        ["analyze", "--net", str(tmp_path / "mix.json")],
        ["localize", "--net", str(tmp_path / "mix.json")],
    ):
        assert main(argv + ["--seed", "-1"]) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


def test_cli_analyze_quadrilateral_section(tmp_path, capsys):
    g = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    fw = Framework(g, Bipartition.from_a_set(4, [1, 2, 3]), np.array([[0.0, 0], [1, 0.1], [1.2, 1], [0, 1.1]]))
    path = tmp_path / "q.json"
    save_network(path, fw)
    assert main(["analyze", "--net", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quadrilateral"]["case"] == 1
    assert report["quadrilateral"]["rigid"]
    # Pure-RoD 4-cycle: no quadrilateral section, flexible verdict.
    fw2 = Framework(g, Bipartition(("D",) * 4), np.array([[0.0, 0], [1, 0.1], [1.2, 1], [0, 1.1]]))
    path2 = tmp_path / "q2.json"
    save_network(path2, fw2)
    main(["analyze", "--net", str(path2)])
    report2 = json.loads(capsys.readouterr().out)
    assert report2["rigidity"]["verdict"] == "flexible"
    assert "quadrilateral" not in report2


def test_cli_check_quad_exit_codes(tmp_path, capsys):
    # The exit code is the criterion's; shape_count is the oracle's count of equivalent shapes.
    g = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    rigid = Framework(g, Bipartition.from_a_set(4, [1, 2, 3]), np.array([[0.0, 0], [1, 0.1], [1.2, 1], [0, 1.1]]))
    p1 = tmp_path / "rigid.json"
    save_network(p1, rigid)
    assert main(["check-quad", "--net", str(p1)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["rigid"], out["case"], out["shape_count"]) == (True, 1, 1)
    floppy = Framework(g, Bipartition.from_a_set(4, [1, 2]), np.array([[0.0, 0], [4, 0], [3, 1], [2, 1]]))
    p2 = tmp_path / "floppy.json"
    save_network(p2, floppy)
    assert main(["check-quad", "--net", str(p2)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["rigid"], out["case"], out["shape_count"]) == (False, 3, 2)


def test_cli_report_batch(tmp_path):
    spec = tmp_path / "batch.json"
    out = tmp_path / "batch.csv"
    spec.write_text(json.dumps({"runs": [
        {"recipe": "quad2v", "n": 10, "seeds": [0, 1]},
        {"recipe": "quad2v", "n": 7, "seeds": [0]},
    ]}))
    assert main(["report", "--spec", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 3
    assert rows[0]["status"] == "localizable"
    assert rows[0]["method"] == "sa"  # the regime the solve took
    assert rows[2]["status"].startswith("error")
    # determinism: the same spec again gives the same rows, up to timing
    again = tmp_path / "again.csv"
    assert main(["report", "--spec", str(spec), "--out", str(again)]) == 0
    rows_again = list(csv.DictReader(open(again)))
    for row in (*rows, *rows_again):
        del row["runtime_s"]
    assert rows_again == rows
    spec.write_text(json.dumps({"runs": []}))
    out2 = tmp_path / "empty.csv"
    assert main(["report", "--spec", str(spec), "--out", str(out2)]) == 0
    assert list(csv.DictReader(open(out2))) == []


@pytest.mark.parametrize(
    "spec",
    [
        {"foo": 1},
        {"runs": {"recipe": "quad2v", "n": 10, "seeds": [0]}},
        {"runs": [{"n": 10, "seeds": [0]}]},
        {"runs": [{"recipe": "quad2v", "seeds": [0]}]},
        {"runs": [{"recipe": "quad2v", "n": "10", "seeds": [0]}]},
        {"runs": [{"recipe": "quad2v", "n": 10, "seeds": 3}]},
        [3],
        {"runs": [{"recipe": "quad2v", "n": 10, "seeds": [1.9, True]}]},
        {"runs": [{"recipe": "quad2v", "n": 10, "seeds": [0, -1]}]},
        {"runs": [{"recipe": "quad2v", "n": 10, "seeds": ["1"]}]},
    ],
)
def test_cli_report_rejects_malformed_spec(tmp_path, capsys, spec):
    # The spec's structure is checked before any run starts; errors inside a run stay CSV rows.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o.csv"
    assert main(["report", "--spec", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_report_deterministic(tmp_path):
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps({"runs": [{"recipe": "type2D1", "n": 10, "seeds": [3, 3]}]}))
    out = tmp_path / "b.csv"
    main(["report", "--spec", str(spec), "--out", str(out)])
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["mse"] == rows[1]["mse"]


def test_cli_generate_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "--recipe", "type2D1", "--n", "13", "--seed", "8", "--out", str(a)])
    main(["generate", "--recipe", "type2D1", "--n", "13", "--seed", "8", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()
