"""File formats: network JSON, measurement JSON, result CSV, report JSON.

Network schema: {"vertices": [{"id": int, "attr": "A"|"D",
"pos": [x, y], "anchor": bool}, ...], "edges": [[i, j], ...]} with the edge
list order defining the canonical edge index.  Measurement schema:
{"sa": [{"apex": i, "j": j, "k": k, "value": radians}, ...],
"rod": [{"apex": i, "j": j, "k": k, "value": ratio}, ...]}.
"""

from __future__ import annotations

import csv
import json
import numbers

import numpy as np

from .geometry import Framework, MeasurementSet
from .graph import Bipartition, Graph

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "measurements_to_dict",
    "measurements_from_dict",
    "save_measurements",
    "load_measurements",
    "write_result_csv",
    "write_report",
]


def _vertex_id(x, field: str) -> int:
    if type(x) is not int:  # JSON 1.5 and true are not vertex ids
        raise ValueError(f"{field} must be an integer, got {x!r}")
    return x


def _number(x, field: str) -> float:
    """``x`` as a float; JSON true/false, null, strings and integers beyond float range are rejected."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{field} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(f"{field} is out of range: {exc}") from exc


def network_to_dict(fw: Framework, anchors=(), construction=None) -> dict:
    anchor_set = set(anchors)
    data = {
        "vertices": [
            {
                "id": v,
                "attr": fw.bipartition.attr(v),
                "pos": pos,
                "anchor": v in anchor_set,
            }
            for v, pos in enumerate(fw.points.tolist(), start=1)
        ],
        "edges": [[int(i), int(j)] for (i, j) in fw.graph.edges],
    }
    if construction is not None:
        data["construction"] = construction
    return data


def network_from_dict(data: dict):
    """Returns (framework, anchors) from the network schema."""
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"network JSON missing field: {exc}") from exc
    if not isinstance(vertices, list):
        raise ValueError(f"vertices must be a list of vertex records, got {vertices!r}")
    by_id = {}
    for rec in vertices:
        try:
            v = _vertex_id(rec["id"], "id")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad vertex record {rec!r}: {exc}") from exc
        if v in by_id:
            raise ValueError(f"duplicate vertex id {v}")
        by_id[v] = rec
    n = len(by_id)
    if sorted(by_id) != list(range(1, n + 1)):
        raise ValueError("vertex ids must be exactly 1..n")
    attrs = []
    coords = []
    anchors = []
    for v in range(1, n + 1):
        rec = by_id[v]
        attr = rec.get("attr")
        if attr not in ("A", "D"):
            raise ValueError(f"vertex {v}: attr must be 'A' or 'D', got {attr!r}")
        pos = rec.get("pos")
        if not isinstance(pos, (list, tuple)) or len(pos) != 2:
            raise ValueError(f"vertex {v}: pos must be [x, y], got {pos!r}")
        attrs.append(attr)
        coords.append((_number(pos[0], f"vertex {v}: pos x"), _number(pos[1], f"vertex {v}: pos y")))
        anchor = rec.get("anchor", False)
        if type(anchor) is not bool:  # JSON "false" and 0 are not flags
            raise ValueError(f"vertex {v}: anchor must be true or false, got {anchor!r}")
        if anchor:
            anchors.append(v)
    try:
        graph = Graph.from_edges(n, edges)
    except TypeError as exc:  # an edge that is not a pair, or a vertex id that does not compare with ints
        raise ValueError(f"edges must be [i, j] pairs of integer vertex ids: {exc}") from exc
    return Framework(graph, Bipartition(tuple(attrs)), np.array(coords, dtype=float).reshape(n, 2)), tuple(anchors)


def _write_json(path, obj):
    """``obj`` as compact JSON plus a newline: without ``indent`` the json module's C encoder writes it."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, default=_json_default) + "\n")


def save_network(path, fw: Framework, anchors=(), construction=None):
    _write_json(path, network_to_dict(fw, anchors, construction))


def load_network(path):
    with open(path) as fh:
        return network_from_dict(json.load(fh))


def measurements_to_dict(ms: MeasurementSet) -> dict:
    return {
        "sa": [{"apex": t[0], "j": t[1], "k": t[2], "value": float(v)} for t, v in sorted(ms.sa.items())],
        "rod": [{"apex": t[0], "j": t[1], "k": t[2], "value": float(v)} for t, v in sorted(ms.rod.items())],
    }


def measurements_from_dict(data: dict) -> MeasurementSet:
    if not isinstance(data, dict):
        raise ValueError(f"measurement JSON must be an object with \"sa\" and \"rod\" lists, got {type(data).__name__}")

    def unpack(kind):
        records = data.get(kind, [])
        if not isinstance(records, list):
            raise ValueError(f"{kind} must be a list of measurement records, got {records!r}")
        out = {}
        for rec in records:
            try:
                t = tuple(_vertex_id(rec[key], key) for key in ("apex", "j", "k"))
                value = _number(rec["value"], "value")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad {kind} measurement record {rec!r}: {exc}") from exc
            if t in out:
                raise ValueError(f"duplicate {kind} measurement for triple {t}")
            out[t] = value
        return out

    return MeasurementSet(unpack("sa"), unpack("rod"))


def save_measurements(path, ms: MeasurementSet):
    _write_json(path, measurements_to_dict(ms))


def load_measurements(path) -> MeasurementSet:
    with open(path) as fh:
        return measurements_from_dict(json.load(fh))


def write_result_csv(path, truth: np.ndarray, estimate: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", "true_x", "true_y", "est_x", "est_y", "err"])
        err = np.linalg.norm(estimate - truth, axis=1)
        writer.writerows([v, *row] for v, row in enumerate(np.column_stack([truth, estimate, err]).tolist(), start=1))


def write_report(path, report: dict):
    _write_json(path, report)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
