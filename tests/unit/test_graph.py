"""KNNGraph / AdjacencyGraph containers."""

import numpy as np
import pytest

from repro.core.graph import EMPTY, AdjacencyGraph, KNNGraph
from repro.errors import GraphError


def small_graph():
    ids = np.array([[1, 2], [0, 2], [0, 1]])
    dists = np.array([[0.1, 0.2], [0.1, 0.3], [0.2, 0.3]])
    return KNNGraph(ids, dists)


class TestKNNGraph:
    def test_shape(self):
        g = small_graph()
        assert g.n == 3 and g.k == 2 and len(g) == 3

    def test_neighbors(self):
        g = small_graph()
        ids, dists = g.neighbors(0)
        np.testing.assert_array_equal(ids, [1, 2])
        np.testing.assert_allclose(dists, [0.1, 0.2])

    def test_degree_with_padding(self):
        ids = np.array([[1, EMPTY]])
        dists = np.array([[0.5, np.inf]])
        g = KNNGraph(ids, dists)
        assert g.degree(0) == 1
        got_ids, got_d = g.neighbors(0)
        np.testing.assert_array_equal(got_ids, [1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            KNNGraph(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_validate_passes_on_good_graph(self):
        small_graph().validate()

    def test_validate_rejects_out_of_range(self):
        g = KNNGraph(np.array([[5, EMPTY]]), np.array([[0.1, np.inf]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_self_loop(self):
        g = KNNGraph(np.array([[0, EMPTY]]), np.array([[0.1, np.inf]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_duplicates(self):
        g = KNNGraph(np.array([[1, 1], [0, EMPTY]]),
                     np.array([[0.1, 0.2], [0.1, np.inf]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_unsorted_rows(self):
        g = KNNGraph(np.array([[1, 2], [0, 2], [0, 1]]),
                     np.array([[0.5, 0.2], [0.1, 0.3], [0.2, 0.3]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_nonfinite_occupied(self):
        g = KNNGraph(np.array([[1, EMPTY]]), np.array([[np.nan, np.inf]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_finite_empty_slot(self):
        g = KNNGraph(np.array([[1, EMPTY]]), np.array([[0.1, 0.5]]))
        with pytest.raises(GraphError):
            g.validate()

    def test_sort_rows(self):
        g = KNNGraph(np.array([[2, 1]]), np.array([[0.9, 0.1]]))
        s = g.sort_rows()
        np.testing.assert_array_equal(s.ids[0], [1, 2])
        np.testing.assert_allclose(s.dists[0], [0.1, 0.9])

    def test_sort_rows_breaks_distance_ties_by_id(self):
        """One order everywhere: equal distances go by id, as in a heap
        row, whatever the slot order."""
        s = KNNGraph(np.array([[5, 2], [EMPTY, 4]]),
                     np.array([[1.0, 1.0], [np.inf, 0.5]])).sort_rows()
        np.testing.assert_array_equal(s.ids, [[2, 5], [4, EMPTY]])

    def test_arrays_roundtrip(self):
        g = small_graph()
        g2 = KNNGraph.from_arrays(g.to_arrays())
        np.testing.assert_array_equal(g.ids, g2.ids)

    def test_edge_set(self):
        assert small_graph().edge_set() == {
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        }

    def test_reverse_edge_multiset(self):
        rev = small_graph().reverse_edge_multiset()
        assert (1, 0, 0.1) in rev
        assert len(rev) == 6

    def test_to_adjacency(self):
        adj = small_graph().to_adjacency()
        assert adj.n == 3 and adj.n_edges == 6
        ids, dists = adj.neighbors(0)
        np.testing.assert_array_equal(ids, [1, 2])

    def test_to_adjacency_skips_padding(self):
        g = KNNGraph(np.array([[1, EMPTY], [0, EMPTY]]),
                     np.array([[0.1, np.inf], [0.1, np.inf]]))
        adj = g.to_adjacency()
        assert adj.n_edges == 2
        assert adj.degree(0) == 1


class TestAdjacencyGraph:
    def make(self):
        return AdjacencyGraph.from_edge_lists([
            [(1, 0.1), (2, 0.2)],
            [(0, 0.1)],
            [(0, 0.2), (1, 0.3)],
        ])

    def test_from_edge_lists(self):
        adj = self.make()
        assert adj.n == 3
        assert adj.n_edges == 5
        np.testing.assert_array_equal(adj.degrees(), [2, 1, 2])

    def test_neighbors(self):
        adj = self.make()
        ids, dists = adj.neighbors(2)
        np.testing.assert_array_equal(ids, [0, 1])
        np.testing.assert_allclose(dists, [0.2, 0.3])

    def test_validate_good(self):
        self.make().validate()

    def test_validate_self_loop(self):
        adj = AdjacencyGraph.from_edge_lists([[(0, 0.1)]])
        with pytest.raises(GraphError):
            adj.validate()

    def test_validate_duplicate(self):
        adj = AdjacencyGraph.from_edge_lists([[(1, 0.1), (1, 0.2)], []])
        with pytest.raises(GraphError):
            adj.validate()

    def test_validate_out_of_range(self):
        adj = AdjacencyGraph.from_edge_lists([[(5, 0.1)]])
        with pytest.raises(GraphError):
            adj.validate()

    def test_csr_invariants_enforced(self):
        with pytest.raises(GraphError):
            AdjacencyGraph(np.array([1, 2]), np.array([0]), np.array([0.1]))
        with pytest.raises(GraphError):
            AdjacencyGraph(np.array([0, 2]), np.array([0]), np.array([0.1]))
        with pytest.raises(GraphError):
            AdjacencyGraph(np.array([0, 1]), np.array([0]), np.array([0.1, 0.2]))
        with pytest.raises(GraphError):
            AdjacencyGraph(np.array([0, 2, 1]), np.array([0, 1]), np.array([0.1, 0.2]))

    def test_arrays_roundtrip(self):
        adj = self.make()
        adj2 = AdjacencyGraph.from_arrays(adj.to_arrays())
        np.testing.assert_array_equal(adj.indices, adj2.indices)

    def test_edge_set(self):
        assert self.make().edge_set() == {(0, 1), (0, 2), (1, 0), (2, 0), (2, 1)}

    def test_connected_fraction_full(self):
        assert self.make().connected_fraction() == 1.0

    def test_connected_fraction_disconnected(self):
        adj = AdjacencyGraph.from_edge_lists([[(1, 0.1)], [(0, 0.1)], [(3, 0.1)], [(2, 0.1)]])
        assert adj.connected_fraction() == 0.5

    def test_empty_vertex_allowed(self):
        adj = AdjacencyGraph.from_edge_lists([[], [(0, 0.5)]])
        assert adj.degree(0) == 0
        adj.validate()
