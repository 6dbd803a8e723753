"""Tests for meta-path walks and positive-pair extraction."""

import numpy as np
import pytest

from repro.graph import (
    MetaPath,
    MetaPathWalker,
    NodeType,
    Relation,
    TABLE_III_META_PATHS,
)
from repro.graph.schema import EdgeType, NodeRef, relation_of
from reference.sampling import neighbors


class TestSchemaHelpers:
    def test_relation_of(self):
        assert relation_of(NodeType.QUERY, NodeType.ITEM) == Relation.Q2I
        assert relation_of(NodeType.ITEM, NodeType.AD) == Relation.I2A

    def test_relation_types(self):
        assert Relation.Q2A.source_type == NodeType.QUERY
        assert Relation.Q2A.target_type == NodeType.AD

    def test_ad_sourced_relation_rejected(self):
        with pytest.raises(ValueError):
            relation_of(NodeType.AD, NodeType.QUERY)

    def test_node_ref_str(self):
        assert str(NodeRef(NodeType.QUERY, 3)) == "q:3"


class TestTableIII:
    def test_six_meta_paths(self):
        assert len(TABLE_III_META_PATHS) == 6

    def test_start_types(self):
        starts = [p.start for p in TABLE_III_META_PATHS]
        assert starts.count(NodeType.QUERY) == 3
        assert starts.count(NodeType.ITEM) == 3

    def test_all_length_two(self):
        assert all(p.length == 2 for p in TABLE_III_META_PATHS)


class TestWalker:
    @pytest.fixture(scope="class")
    def walker(self, train_graph):
        return MetaPathWalker(train_graph)

    @pytest.fixture(scope="class")
    def blocks(self, walker):
        return walker.sample_pair_blocks(np.random.default_rng(9), 3000)

    def test_walk_follows_types(self, walker, train_graph, rng):
        path = TABLE_III_META_PATHS[1]  # q -click-> i -co_click-> i
        levels, alive = walker.walk_batch(rng, path, 40)
        assert alive.any()
        types = [path.start] + [dst_type for _edge, dst_type in path.steps]
        assert len(levels) == len(types) == 3
        for level, node_type in zip(levels, types):
            assert np.all((level[alive] >= 0)
                          & (level[alive] < train_graph.num_nodes[node_type]))

    def test_walk_steps_are_edges(self, walker, train_graph, rng):
        """Walks from explicit ``starts`` follow the path's edges."""
        path = TABLE_III_META_PATHS[1]
        starts = np.arange(train_graph.num_nodes[NodeType.QUERY])
        levels, alive = walker.walk_batch(rng, path, starts.size,
                                          starts=starts)
        assert alive.any()
        np.testing.assert_array_equal(levels[0], starts)
        current_type = path.start
        for level_from, level_to, (edge_type, dst_type) in zip(
                levels, levels[1:], path.steps):
            for src, dst in list(zip(level_from[alive],
                                     level_to[alive]))[:25]:
                ids, __w, __t = neighbors(train_graph, current_type, int(src),
                                          edge_type=edge_type,
                                          dst_type=dst_type)
                assert int(dst) in ids.tolist()
            current_type = dst_type

    def test_pairs_have_correct_relations(self, train_graph, blocks):
        assert blocks
        for block in blocks:
            relation = block.relation
            assert relation == relation_of(relation.source_type,
                                           relation.target_type)
            assert block.src_idx.max() < train_graph.num_nodes[
                relation.source_type]
            assert block.dst_idx.max() < train_graph.num_nodes[
                relation.target_type]

    def test_pairs_share_category(self, train_graph, blocks):
        tree = train_graph.category_tree
        for block in blocks:
            relation = block.relation
            for s, t in zip(block.src_idx[:40], block.dst_idx[:40]):
                cat_s = int(train_graph.categories[relation.source_type][s])
                cat_t = int(train_graph.categories[relation.target_type][t])
                lca = tree.lowest_common_ancestor(cat_s, cat_t)
                assert lca in (cat_s, cat_t)

    def test_category_constraint_can_be_disabled(self, train_graph):
        """The filter draws nothing, so the same seed walks the same
        walks and the unfiltered blocks hold at least as many pairs."""
        def count(enforce):
            walker = MetaPathWalker(train_graph, enforce_category=enforce)
            return sum(len(b) for b in walker.sample_pair_blocks(
                np.random.default_rng(4), 600))

        assert count(False) >= count(True) > 0

    def test_unreachable_metapath_returns_none(self, train_graph, rng):
        # a meta-path over ad->ad co_click edges, which most ads lack
        sparse = MetaPath("bad", NodeType.AD,
                          ((EdgeType.CO_CLICK, NodeType.AD),
                           (EdgeType.CO_CLICK, NodeType.AD)))
        walker = MetaPathWalker(train_graph, meta_paths=[sparse])
        starts = np.arange(train_graph.num_nodes[NodeType.AD])
        levels, alive = walker.walk_batch(rng, sparse, starts.size,
                                          starts=starts)
        # dead-ended walks are marked, not crashed on
        assert not alive.all()
        assert len(levels) == 3
        assert np.all(levels[-1][~alive] == -1)
        walker.sample_pair_blocks(rng, 10)

    def test_pair_relations_cover_all_six(self, blocks):
        relations = {block.relation for block in blocks}
        assert len(relations) >= 5  # sparse graphs may miss one
