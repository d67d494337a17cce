"""Cross-validation of our expansion metrics against a numpy reference.

The reference works from the raw edge list: breadth-first search for
connectivity and hop diameter, and the second-smallest eigenvalue of the
graph Laplacian (``numpy.linalg.eigvalsh``) for the Fiedler value.
"""

from collections import deque

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (BipartiteGraph, random_biregular, spectral_gap,
                        vertex_isoperimetric_number)


def adjacency(graph):
    """Neighbour lists of the bipartite graph: appranks are vertices
    ``0..A-1``, nodes ``A..A+N-1``."""
    offset = graph.num_appranks
    neighbours = [[] for _ in range(offset + graph.num_nodes)]
    for a, n in graph.edges():
        neighbours[a].append(offset + n)
        neighbours[offset + n].append(a)
    return neighbours


def hops_from(neighbours, source):
    """BFS hop distance from *source* to every reachable vertex."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for w in neighbours[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist


def is_connected(graph):
    neighbours = adjacency(graph)
    return len(hops_from(neighbours, 0)) == len(neighbours)


def diameter(graph):
    neighbours = adjacency(graph)
    if not is_connected(graph):
        raise GraphError("graph is disconnected: diameter undefined")
    return max(max(hops_from(neighbours, v).values())
               for v in range(len(neighbours)))


def algebraic_connectivity(graph):
    neighbours = adjacency(graph)
    laplacian = np.zeros((len(neighbours), len(neighbours)))
    for v, ws in enumerate(neighbours):
        laplacian[v, v] = len(ws)
        for w in ws:
            laplacian[v, w] -= 1.0
    return float(np.linalg.eigvalsh(laplacian)[1])


def disconnected_graph():
    return BipartiteGraph.from_adjacency(
        [[0, 1], [0, 1], [2, 3], [2, 3]], num_nodes=4)


class TestMetricsCrossValidation:
    def test_connectivity_matches_expansion_verdict(self):
        good = random_biregular(8, 8, 3, np.random.default_rng(1))
        assert is_connected(good)
        assert not is_connected(disconnected_graph())

    def test_disconnected_graph_has_no_diameter(self):
        with pytest.raises(GraphError):
            diameter(disconnected_graph())

    def test_expander_diameter_is_small(self):
        """A degree-4 expander over 32+32 vertices has hop-diameter O(log)."""
        graph = random_biregular(32, 32, 4, np.random.default_rng(2))
        assert diameter(graph) <= 8

    def test_fiedler_value_agrees_with_spectral_gap(self):
        """Both are connectivity spectra: zero together, positive together."""
        good = random_biregular(16, 16, 3, np.random.default_rng(3))
        assert algebraic_connectivity(good) > 0.05
        assert spectral_gap(good) > 0.05
        bad = disconnected_graph()
        assert algebraic_connectivity(bad) == pytest.approx(0.0, abs=1e-6)
        assert spectral_gap(bad) == pytest.approx(0.0, abs=1e-6)

    def test_higher_degree_more_connected(self):
        rng = np.random.default_rng(4)
        low = random_biregular(16, 16, 2, rng)
        high = random_biregular(16, 16, 6, rng)
        assert algebraic_connectivity(high) > algebraic_connectivity(low)

    def test_isoperimetric_consistent_with_connectivity(self):
        """iso > 1 requires a connected graph (subsets must expand)."""
        graph = random_biregular(8, 8, 3, np.random.default_rng(5))
        if vertex_isoperimetric_number(graph) > 1.0:
            assert is_connected(graph)
