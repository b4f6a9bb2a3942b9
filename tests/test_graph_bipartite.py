"""Unit tests for the BipartiteGraph data structure."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import BipartiteGraph


class TestConstruction:
    def test_from_dense_shape(self):
        graph = BipartiteGraph.from_dense([[1.0, 0.0], [0.5, 2.0]])
        assert graph.num_u == 2
        assert graph.num_v == 2
        assert graph.num_edges == 3

    def test_accepts_sparse_input(self):
        w = sp.coo_matrix(([1.0], ([0], [1])), shape=(2, 3))
        graph = BipartiteGraph(w)
        assert graph.num_edges == 1
        assert graph.weight(0, 1) == 1.0

    def test_duplicate_entries_summed(self):
        w = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
        graph = BipartiteGraph(w)
        assert graph.weight(0, 0) == 3.0

    def test_explicit_zeros_eliminated(self):
        # CSR with an explicitly *stored* zero at (0, 0), built directly so
        # no pattern-changing assignment (and no SparseEfficiencyWarning,
        # which the pytest config escalates to an error) is involved.
        w = sp.csr_matrix(
            (np.array([0.0, 1.0]), np.array([0, 1]), np.array([0, 2, 2])),
            shape=(2, 2),
        )
        assert w.nnz == 2  # the zero is stored before construction...
        graph = BipartiteGraph(w)
        assert graph.num_edges == 1  # ...and eliminated by it

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BipartiteGraph.from_dense([[-1.0]])

    def test_empty_graph(self):
        graph = BipartiteGraph.from_dense(np.zeros((3, 4)))
        assert graph.num_edges == 0
        assert graph.total_weight == 0.0
        assert graph.density == 0.0

    def test_from_edges_with_labels(self):
        graph = BipartiteGraph.from_edges(
            [("alice", "x", 2.0), ("bob", "x"), ("alice", "y", 1.5)]
        )
        assert graph.num_u == 2
        assert graph.num_v == 2
        assert graph.weight(graph.u_id("alice"), graph.v_id("y")) == 1.5
        assert graph.weight(graph.u_id("bob"), graph.v_id("x")) == 1.0

    def test_from_edges_integer_indices(self):
        graph = BipartiteGraph.from_edges([(0, 1, 1.0), (2, 0, 2.0)], num_u=4, num_v=3)
        assert graph.num_u == 4
        assert graph.num_v == 3
        assert graph.weight(2, 0) == 2.0
        assert graph.u_labels is None

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph.from_edges([(5, 0)], num_u=2, num_v=2)

    def test_from_edges_aggregate_sum(self):
        graph = BipartiteGraph.from_edges(
            [(0, 0, 1.0), (0, 0, 2.0)], num_u=1, num_v=1
        )
        assert graph.weight(0, 0) == 3.0

    def test_from_edges_aggregate_max(self):
        graph = BipartiteGraph.from_edges(
            [(0, 0, 1.0), (0, 0, 2.0)], num_u=1, num_v=1, aggregate="max"
        )
        assert graph.weight(0, 0) == 2.0

    def test_from_edges_bad_aggregate(self):
        with pytest.raises(ValueError, match="aggregate"):
            BipartiteGraph.from_edges([(0, 0)], num_u=1, num_v=1, aggregate="min")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            BipartiteGraph(
                sp.csr_matrix(np.ones((2, 1))), u_labels=["same", "same"]
            )

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="u_labels"):
            BipartiteGraph(sp.csr_matrix(np.ones((2, 1))), u_labels=["one"])


class TestProperties:
    def test_counts(self, figure1):
        assert figure1.num_u == 4
        assert figure1.num_v == 5
        assert figure1.num_nodes == 9
        assert figure1.num_edges == 13

    def test_total_weight(self, figure1):
        assert figure1.total_weight == pytest.approx(13 * 0.5)

    def test_density(self):
        graph = BipartiteGraph.from_dense([[1.0, 1.0], [0.0, 0.0]])
        assert graph.density == pytest.approx(0.5)

    def test_is_unweighted(self):
        assert BipartiteGraph.from_dense([[1.0, 1.0]]).is_unweighted()
        assert not BipartiteGraph.from_dense([[1.0, 2.0]]).is_unweighted()

    def test_repr_mentions_sizes(self, figure1):
        text = repr(figure1)
        assert "|U|=4" in text and "|V|=5" in text and "|E|=13" in text


class TestDegreesAndNeighbors:
    def test_u_degrees(self, figure1):
        np.testing.assert_array_equal(figure1.u_degrees(), [3, 3, 3, 4])

    def test_v_degrees(self, figure1):
        np.testing.assert_array_equal(figure1.v_degrees(), [2, 3, 4, 2, 2])

    def test_weighted_degrees(self, tiny_graph):
        np.testing.assert_allclose(
            tiny_graph.u_degrees(weighted=True), [3.0, 1.0, 3.0]
        )
        np.testing.assert_allclose(
            tiny_graph.v_degrees(weighted=True), [1.0, 3.0, 3.0]
        )

    def test_u_neighbors(self, figure1):
        np.testing.assert_array_equal(sorted(figure1.u_neighbors(3)), [1, 2, 3, 4])

    def test_v_neighbors(self, figure1):
        np.testing.assert_array_equal(sorted(figure1.v_neighbors(0)), [0, 1])

    def test_neighbor_weights(self, tiny_graph):
        neighbors, weights = tiny_graph.u_neighbor_weights(0)
        np.testing.assert_array_equal(neighbors, [0, 1])
        np.testing.assert_allclose(weights, [1.0, 2.0])

    def test_v_neighbor_weights(self, tiny_graph):
        neighbors, weights = tiny_graph.v_neighbor_weights(1)
        np.testing.assert_array_equal(neighbors, [0, 1])
        np.testing.assert_allclose(weights, [2.0, 1.0])

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(1, 0)


class TestIterationAndConversion:
    def test_edges_iterates_all(self, tiny_graph):
        edges = set(tiny_graph.edges())
        assert edges == {(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (2, 2, 3.0)}

    def test_edge_array_parallel(self, tiny_graph):
        u, v, w = tiny_graph.edge_array()
        assert u.shape == v.shape == w.shape == (4,)
        rebuilt = BipartiteGraph.from_edges(
            zip(u.tolist(), v.tolist(), w.tolist()), num_u=3, num_v=3
        )
        assert rebuilt == tiny_graph

    def test_to_dense_round_trip(self, tiny_graph):
        dense = tiny_graph.to_dense()
        assert BipartiteGraph.from_dense(dense) == tiny_graph

    def test_adjacency_symmetric(self, figure1):
        adjacency = figure1.adjacency()
        assert adjacency.shape == (9, 9)
        assert (adjacency != adjacency.T).nnz == 0
        # upper-right block equals W
        np.testing.assert_allclose(
            adjacency[:4, 4:].toarray(), figure1.to_dense()
        )
        # no intra-side edges
        assert adjacency[:4, :4].nnz == 0
        assert adjacency[4:, 4:].nnz == 0


class TestTransformations:
    def test_with_unit_weights(self, tiny_graph):
        unit = tiny_graph.with_unit_weights()
        assert unit.is_unweighted()
        assert unit.num_edges == tiny_graph.num_edges

    def test_transpose_swaps_sides(self, figure1):
        transposed = figure1.transpose()
        assert transposed.num_u == 5
        assert transposed.num_v == 4
        np.testing.assert_allclose(
            transposed.to_dense(), figure1.to_dense().T
        )

    def test_subgraph(self, figure1):
        sub = figure1.subgraph([0, 1], [0, 1, 2])
        assert sub.num_u == 2
        assert sub.num_v == 3
        assert sub.num_edges == 6

    def test_subgraph_keeps_labels(self):
        graph = BipartiteGraph.from_edges([("a", "x"), ("b", "y")])
        sub = graph.subgraph([1], [1])
        assert sub.u_labels == ["b"]
        assert sub.v_labels == ["y"]

    def test_without_edges(self, tiny_graph):
        reduced = tiny_graph.without_edges(np.array([0]), np.array([1]))
        assert not reduced.has_edge(0, 1)
        assert reduced.num_edges == 3
        # original untouched
        assert tiny_graph.has_edge(0, 1)


class TestLabels:
    def test_labels_round_trip(self):
        graph = BipartiteGraph.from_edges([("a", "x"), ("b", "y")])
        assert graph.u_label(graph.u_id("a")) == "a"
        assert graph.v_label(graph.v_id("y")) == "y"

    def test_integer_fallback_without_labels(self, tiny_graph):
        assert tiny_graph.u_id(2) == 2
        assert tiny_graph.v_label(1) == 1

    def test_unknown_label_raises(self):
        graph = BipartiteGraph.from_edges([("a", "x")])
        with pytest.raises(KeyError):
            graph.u_id("nope")


class TestEquality:
    def test_equal_graphs(self, tiny_graph):
        other = BipartiteGraph.from_dense(tiny_graph.to_dense())
        assert tiny_graph == other

    def test_unequal_shapes(self, tiny_graph):
        other = BipartiteGraph.from_dense(np.ones((2, 2)))
        assert tiny_graph != other

    def test_unequal_weights(self, tiny_graph):
        dense = tiny_graph.to_dense()
        dense[0, 0] = 9.0
        assert tiny_graph != BipartiteGraph.from_dense(dense)

    def test_not_equal_to_other_types(self, tiny_graph):
        assert tiny_graph != "graph"
