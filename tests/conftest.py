import numpy as np
import pytest

from sarod import Bipartition, Framework, Graph, MeasurementSet


def random_connected_graph(n, rng, p=0.5):
    """Random connected graph with m >= n edges (so cycles exist)."""
    while True:
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
        g = Graph(n, tuple(edges))
        if g.m >= n and g.is_connected():
            return g


def random_bipartition(n, rng):
    a = [v for v in range(1, n + 1) if rng.random() < 0.5]
    if not a:
        a = [int(rng.integers(1, n + 1))]
    if len(a) == n:
        a.pop()
    return Bipartition.from_a_set(n, a)


def random_framework(n, rng, p=0.5):
    g = random_connected_graph(n, rng, p)
    return Framework(g, random_bipartition(n, rng), rng.uniform(0.0, 1.0, (n, 2)))


def relabelled_graph(g, perm):
    """The same graph with old vertex v renamed perm[v - 1] + 1; edge k stays edge k."""
    return Graph.from_edges(g.n, [(perm[i - 1] + 1, perm[j - 1] + 1) for i, j in g.edges])


def relabelled(fw, perm):
    """The same framework with old vertex v renamed perm[v - 1] + 1."""
    attrs, points = np.empty(fw.n, dtype=object), np.empty_like(fw.points)
    attrs[perm], points[perm] = fw.bipartition.attrs, fw.points
    return Framework(relabelled_graph(fw.graph, perm), Bipartition(tuple(attrs)), points)


def measurement_set(net):
    """The network's measurement arrays keyed by triple, as a ``MeasurementSet`` (the file and API format)."""
    return MeasurementSet(dict(zip(net.sa_triples.triples, net.sa.tolist())), dict(zip(net.rod_triples.triples, net.rod.tolist())))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
