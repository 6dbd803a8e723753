"""Tests for the heterogeneous graph store."""

import numpy as np
import pytest

from repro.graph import EdgeType, HetGraph, NodeType
from repro.graph.category import CategoryTree
from reference.sampling import neighbors


@pytest.fixture
def graph():
    tree = CategoryTree.balanced(1, 2)  # leaves 1, 2
    num = {NodeType.QUERY: 4, NodeType.ITEM: 5, NodeType.AD: 3}
    cats = {
        NodeType.QUERY: np.array([1, 1, 2, 2]),
        NodeType.ITEM: np.array([1, 1, 1, 2, 2]),
        NodeType.AD: np.array([1, 2, 2]),
    }
    feats = {t: {"id": np.arange(num[t])} for t in NodeType}
    g = HetGraph(num, cats, feats, tree)
    g.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                np.array([0, 0, 1, 2]), np.array([0, 1, 1, 3]),
                np.array([2.0, 1.0, 1.0, 1.0]), symmetric=True)
    g.add_edges(NodeType.ITEM, EdgeType.CO_CLICK, NodeType.ITEM,
                np.array([0, 1]), np.array([1, 2]), symmetric=True)
    return g


class TestConstruction:
    def test_category_shape_validated(self):
        tree = CategoryTree.balanced(1, 2)
        with pytest.raises(ValueError):
            HetGraph({NodeType.QUERY: 3, NodeType.ITEM: 0, NodeType.AD: 0},
                     {NodeType.QUERY: np.array([1])}, {}, tree)

    def test_out_of_range_edges_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                            np.array([0]), np.array([99]))

    def test_size_mismatch_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                            np.array([0, 1]), np.array([0]))

    def test_duplicate_edges_coalesce_weights(self):
        tree = CategoryTree.balanced(1, 2)
        num = {NodeType.QUERY: 2, NodeType.ITEM: 2, NodeType.AD: 0}
        cats = {NodeType.QUERY: np.array([1, 1]),
                NodeType.ITEM: np.array([1, 2]),
                NodeType.AD: np.empty(0, dtype=int)}
        g = HetGraph(num, cats, {}, tree)
        g.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                    np.array([0, 0]), np.array([1, 1]))
        ids, weights, _types = neighbors(g, NodeType.QUERY, 0)
        assert ids.tolist() == [1]
        assert weights.tolist() == [2.0]

    def test_incremental_add_merges_with_existing(self):
        tree = CategoryTree.balanced(1, 2)
        num = {NodeType.QUERY: 2, NodeType.ITEM: 2, NodeType.AD: 0}
        cats = {NodeType.QUERY: np.array([1, 1]),
                NodeType.ITEM: np.array([1, 2]),
                NodeType.AD: np.empty(0, dtype=int)}
        g = HetGraph(num, cats, {}, tree)
        g.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                    np.array([0]), np.array([1]))
        g.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                    np.array([0]), np.array([1]), np.array([3.0]))
        __, weights, __types = neighbors(g, NodeType.QUERY, 0)
        assert weights.tolist() == [4.0]


class TestAccess:
    def test_num_edges_filters(self, graph):
        assert graph.num_edges() == 4 + 4 + 2 + 2
        assert graph.num_edges(src_type=NodeType.QUERY) == 4
        assert graph.num_edges(edge_type=EdgeType.CO_CLICK) == 4
        assert graph.num_edges(src_type=NodeType.ITEM,
                               edge_type=EdgeType.CLICK) == 4

    def test_neighbors_with_weights(self, graph):
        ids, weights, types = neighbors(graph, NodeType.QUERY, 0)
        assert sorted(ids.tolist()) == [0, 1]
        assert sorted(weights.tolist()) == [1.0, 2.0]
        assert all(t == NodeType.ITEM for t in types)

    def test_neighbors_empty(self, graph):
        ids, weights, types = neighbors(graph, NodeType.QUERY, 3)
        assert ids.size == 0

    def test_degree(self, graph):
        degree = graph.degree(NodeType.QUERY)
        assert degree.tolist() == [2, 1, 1, 0]

    def test_degree_filtered_by_target(self, graph):
        degree = graph.degree(NodeType.ITEM, dst_type=NodeType.QUERY)
        assert degree[0] == 1  # item0 <- query0 click reverse

    def test_stats(self, graph):
        stats = graph.stats()
        assert stats["queries"] == 4
        assert stats["items"] == 5
        assert stats["ads"] == 3
        assert stats["edges"] == graph.num_edges()


class TestSampling:
    def test_sample_neighbors_shapes_and_mask(self, graph):
        rng = np.random.default_rng(0)
        ids, mask = graph.sample_neighbors(rng, NodeType.QUERY,
                                           np.array([0, 3]), NodeType.ITEM, 4)
        assert ids.shape == (2, 4)
        assert mask[0].sum() == 4      # query0 has item neighbours
        assert mask[1].sum() == 0      # query3 is isolated

    def test_sampled_ids_are_real_neighbors(self, graph):
        rng = np.random.default_rng(1)
        ids, mask = graph.sample_neighbors(rng, NodeType.QUERY,
                                           np.array([0]), NodeType.ITEM, 20)
        valid = set(neighbors(graph, NodeType.QUERY, 0,
                              dst_type=NodeType.ITEM)[0].tolist())
        assert set(ids[0].tolist()) <= valid

    def test_zero_weight_rows_are_masked_out(self):
        tree = CategoryTree.balanced(1, 2)
        num = {NodeType.QUERY: 2, NodeType.ITEM: 2, NodeType.AD: 0}
        cats = {NodeType.QUERY: np.array([1, 1]),
                NodeType.ITEM: np.array([1, 2]),
                NodeType.AD: np.empty(0, dtype=np.int64)}
        feats = {t: {"id": np.arange(num[t])} for t in (NodeType.QUERY,
                                                        NodeType.ITEM)}
        g = HetGraph(num, cats, feats, tree)
        g.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                    np.array([0, 1]), np.array([0, 1]),
                    np.array([0.0, 1.0]))
        ids, mask = g.sample_neighbors(np.random.default_rng(0),
                                       NodeType.QUERY, np.array([0, 1]),
                                       NodeType.ITEM, 3)
        # query 0's only edge has weight 0 -> no samplable neighbour
        assert mask[0].sum() == 0
        assert mask[1].sum() == 3

    def test_weighted_sampling_prefers_heavy_edges(self, graph):
        rng = np.random.default_rng(2)
        ids, __ = graph.sample_neighbors(rng, NodeType.QUERY,
                                         np.array([0] * 200), NodeType.ITEM, 1)
        counts = np.bincount(ids.ravel(), minlength=2)
        # edge weights are 2:1 for items 0 and 1
        assert counts[0] > counts[1]

    def test_nodes_in_category(self, graph):
        """Category pools list each category's nodes in ascending id."""
        pools = graph.category_pools(NodeType.ITEM)
        start, count = pools.start[1], pools.count[1]
        assert pools.order[start:start + count].tolist() == [0, 1, 2]
        assert pools.count[0] == 0          # the root holds no item
        assert pools.rank.tolist() == [0, 1, 2, 0, 1]
