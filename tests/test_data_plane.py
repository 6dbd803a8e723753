"""The array-native sampling phase: parity with the per-pair oracle.

Covers the §IV-A-2 / §V-A sampling pipeline end to end — batched
meta-path walks, vectorised same-category masks, array-native negative
draws, ``SampleBatch`` consumption by the loss — against the per-pair
``walk``/``sample_pairs``/``sample_negatives`` oracle in
``tests/reference/sampling.py``, plus determinism of the trainer's
batch stream.
"""

import collections

import numpy as np
import pytest

from repro.graph import (
    MetaPathWalker,
    NegativeSampler,
    SampleBatch,
    TABLE_III_META_PATHS,
)
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.training import Trainer, TrainerConfig
from reference.sampling import neighbors, sample_negatives, sample_pairs


@pytest.fixture(scope="module")
def walker(train_graph):
    return MetaPathWalker(train_graph)


@pytest.fixture(scope="module")
def blocks(walker):
    return walker.sample_pair_blocks(np.random.default_rng(7), 1500)


class TestCategoryBranch:
    def test_same_branch_matches_lca_definition(self, train_graph, rng):
        tree = train_graph.category_tree
        n = len(tree)
        a = rng.integers(n, size=300)
        b = rng.integers(n, size=300)
        got = tree.same_branch(a, b)
        for x, y, flag in zip(a, b, got):
            lca = tree.lowest_common_ancestor(int(x), int(y))
            assert flag == (lca in (int(x), int(y)))

    def test_ancestor_matrix_shape_and_root(self, train_graph):
        tree = train_graph.category_tree
        anc = tree.ancestor_matrix()
        depth = tree.depth_array()
        assert anc.shape == (int(depth.max()) + 1, len(tree))
        assert np.all(anc[0] == 0), "depth-0 ancestor is always the root"

    def test_cache_refreshes_after_growth(self, train_graph):
        from repro.graph import CategoryTree
        tree = CategoryTree.balanced(2, 2)
        before = tree.ancestor_matrix().shape
        leaf = tree.leaves[0]
        child = tree.add_child(leaf)
        after = tree.ancestor_matrix()
        assert after.shape[1] == before[1] + 1
        assert tree.same_branch([leaf], [child])[0]


class TestBatchedWalker:
    def test_walk_batch_steps_are_edges(self, walker, train_graph):
        path = TABLE_III_META_PATHS[1]  # q -click-> i -co_click-> i
        levels, alive = walker.walk_batch(np.random.default_rng(0), path, 80)
        assert alive.any()
        current_type = path.start
        for level_from, level_to, (edge_type, dst_type) in zip(
                levels, levels[1:], path.steps):
            for src, dst in list(zip(level_from[alive], level_to[alive]))[:25]:
                ids, _w, _t = neighbors(
                    train_graph, current_type, int(src), edge_type=edge_type,
                    dst_type=dst_type)
                assert int(dst) in ids.tolist()
            current_type = dst_type

    def test_blocks_respect_category_constraint(self, train_graph, blocks):
        tree = train_graph.category_tree
        assert blocks
        for block in blocks:
            src_cats = train_graph.categories[block.relation.source_type][
                block.src_idx]
            dst_cats = train_graph.categories[block.relation.target_type][
                block.dst_idx]
            assert tree.same_branch(src_cats, dst_cats).all()

    def test_blocks_never_pair_a_node_with_itself(self, blocks):
        for block in blocks:
            if block.relation.source_type == block.relation.target_type:
                assert np.all(block.src_idx != block.dst_idx)

    def test_relation_mix_matches_looped_reference(self, walker,
                                                   train_graph):
        num_walks = 2500
        looped = collections.Counter(
            relation for relation, _src, _dst in sample_pairs(
                train_graph, np.random.default_rng(3), num_walks))
        batched = collections.Counter()
        for block in walker.sample_pair_blocks(
                np.random.default_rng(4), num_walks):
            batched[block.relation] += len(block)
        total_l = sum(looped.values())
        total_b = sum(batched.values())
        assert abs(total_l - total_b) / total_l < 0.15
        for relation in looped:
            share_l = looped[relation] / total_l
            share_b = batched[relation] / total_b
            assert abs(share_l - share_b) < 0.05, (
                "relation %s share drifted: looped %.3f batched %.3f"
                % (relation, share_l, share_b))

    def test_batched_plane_sees_edges_added_after_construction(self):
        """``add_edges`` invalidation must reach the walker's tables
        and its start pool."""
        from repro.graph import CategoryTree, HetGraph, MetaPath
        from repro.graph.schema import EdgeType
        tree = CategoryTree.balanced(1, 2)
        graph = HetGraph(
            {NodeType.QUERY: 2, NodeType.ITEM: 3, NodeType.AD: 0},
            {NodeType.QUERY: np.array([1, 1]),
             NodeType.ITEM: np.array([1, 1, 1]),
             NodeType.AD: np.empty(0, dtype=np.int64)},
            {t: {} for t in NodeType}, tree)
        graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                        np.array([0]), np.array([0]))
        path = MetaPath("q-i", NodeType.QUERY,
                        ((EdgeType.CLICK, NodeType.ITEM),))
        walker = MetaPathWalker(graph, meta_paths=[path])
        levels, alive = walker.walk_batch(np.random.default_rng(0), path, 50,
                                          starts=np.zeros(50, dtype=np.int64))
        assert set(levels[1][alive].tolist()) == {0}
        graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                        np.array([0]), np.array([2]), weights=np.array([9.0]))
        levels, alive = walker.walk_batch(np.random.default_rng(0), path, 50,
                                          starts=np.zeros(50, dtype=np.int64))
        assert 2 in levels[1][alive].tolist(), \
            "walker must see edges added after construction"
        # q1 gains its first click only now: walks without ``starts``
        # must start from it as well as from q0
        levels, alive = walker.walk_batch(np.random.default_rng(0), path, 50)
        assert set(levels[0].tolist()) == {0}
        graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                        np.array([1]), np.array([1]))
        levels, alive = walker.walk_batch(np.random.default_rng(0), path, 50)
        assert alive.all()
        assert set(levels[0].tolist()) == {0, 1}, \
            "start pool must see edges added after construction"

    def test_unreachable_path_yields_dead_walks(self, train_graph):
        from repro.graph import MetaPath
        from repro.graph.schema import EdgeType
        # semantic edges only exist between queries, so this path has
        # no start pool and no adjacency at all
        impossible = MetaPath("bad", NodeType.AD,
                              ((EdgeType.SEMANTIC, NodeType.AD),
                               (EdgeType.SEMANTIC, NodeType.AD)))
        solo = MetaPathWalker(train_graph, meta_paths=[impossible])
        levels, alive = solo.walk_batch(np.random.default_rng(0),
                                        impossible, 16)
        assert not alive.any()
        assert solo.sample_pair_blocks(np.random.default_rng(0), 16) == []


class TestSampleBatchPlane:
    @pytest.fixture(scope="class")
    def sampler(self, train_graph):
        return NegativeSampler(train_graph, num_negatives=6)

    @pytest.fixture(scope="class")
    def big_block(self, blocks):
        return max(blocks, key=len)

    def test_negatives_exclude_positive(self, sampler, blocks):
        rng = np.random.default_rng(0)
        for block in blocks:
            batch = sampler.sample_arrays(rng, block.relation, block.src_idx,
                                          block.dst_idx)
            assert not np.any(batch.neg_idx == batch.pos_idx[:, None])
            assert batch.neg_idx.shape == (len(block), 6)
            assert np.all(batch.neg_idx >= 0)

    def test_hard_easy_split_matches_reference(self, sampler, train_graph,
                                               walker):
        """Batched and looped negatives agree on the category split."""
        pairs = sample_pairs(train_graph, np.random.default_rng(11), 600)

        def hard_share_looped():
            negatives = sample_negatives(sampler, np.random.default_rng(1),
                                         pairs)
            hard = total = 0
            for (relation, _src, dst), row in zip(pairs, negatives):
                cats = train_graph.categories[relation.target_type]
                hard += int((cats[row] == cats[dst]).sum())
                total += row.size
            return hard / total

        def hard_share_batched():
            rng = np.random.default_rng(1)
            hard = total = 0
            for block in walker.sample_pair_blocks(
                    np.random.default_rng(11), 600):
                batch = sampler.sample_arrays(rng, block.relation,
                                              block.src_idx, block.dst_idx)
                cats = train_graph.categories[block.relation.target_type]
                hard += int((cats[batch.neg_idx]
                             == cats[batch.pos_idx][:, None]).sum())
                total += batch.neg_idx.size
            return hard / total

        looped, batched = hard_share_looped(), hard_share_batched()
        assert abs(looped - batched) < 0.06, (looped, batched)
        assert 0.15 < batched < 0.55, "expected roughly 1/3 hard negatives"

    def test_all_easy_negatives_avoid_positive_category(self, train_graph,
                                                        big_block):
        sampler = NegativeSampler(train_graph, num_negatives=4,
                                  easy_ratio=1.0)
        batch = sampler.sample_arrays(np.random.default_rng(2),
                                      big_block.relation, big_block.src_idx,
                                      big_block.dst_idx)
        cats = train_graph.categories[big_block.relation.target_type]
        assert not np.any(cats[batch.neg_idx] == cats[batch.pos_idx][:, None])

    def test_all_hard_negatives_share_category(self, train_graph, big_block):
        sampler = NegativeSampler(train_graph, num_negatives=4,
                                  easy_ratio=0.0)
        batch = sampler.sample_arrays(np.random.default_rng(2),
                                      big_block.relation, big_block.src_idx,
                                      big_block.dst_idx)
        cats = train_graph.categories[big_block.relation.target_type]
        same = cats[batch.neg_idx] == cats[batch.pos_idx][:, None]
        # rows whose category pool is a singleton fall back to easy draws
        pools = train_graph.category_pools(big_block.relation.target_type)
        populated = pools.count[cats[batch.pos_idx]] > 1
        assert same[populated].all()

    def test_singleton_category_positive_falls_back(self):
        """A positive alone in the *last* category must not crash the
        pooled gather (regression: the rank shift walked off the end of
        ``pools.order`` before the fallback overwrite)."""
        from repro.graph import CategoryTree, HetGraph
        from repro.graph.schema import EdgeType
        tree = CategoryTree.balanced(1, 3)
        num_nodes = {NodeType.QUERY: 4, NodeType.ITEM: 5, NodeType.AD: 0}
        categories = {
            NodeType.QUERY: np.array([1, 1, 2, 2]),
            # item 4 is the only member of category 3, the last pool
            NodeType.ITEM: np.array([1, 1, 2, 2, 3]),
            NodeType.AD: np.empty(0, dtype=np.int64),
        }
        graph = HetGraph(num_nodes, categories,
                         {t: {} for t in NodeType}, tree)
        graph.add_edges(NodeType.QUERY, EdgeType.CLICK, NodeType.ITEM,
                        np.array([0, 1, 2, 3]), np.array([0, 1, 2, 4]))
        sampler = NegativeSampler(graph, num_negatives=3, easy_ratio=0.0)
        batch = sampler.sample_arrays(
            np.random.default_rng(0), Relation.Q2I,
            np.array([0, 1, 3]), np.array([0, 1, 4]))
        assert batch.neg_idx.shape == (3, 3)
        assert np.all((batch.neg_idx >= 0) & (batch.neg_idx < 5))
        # populated two-member pools leave exactly the other member
        assert np.all(batch.neg_idx[0] == 1)
        assert np.all(batch.neg_idx[1] == 0)
        # the singleton row fell back to global draws (which, as in the
        # per-pair oracle, may legitimately include the positive)

    def test_alias_marginals_prefer_popular(self, train_graph):
        """Degree-weighted easy negatives keep the alias-table marginal."""
        sampler = NegativeSampler(train_graph, num_negatives=6,
                                  easy_ratio=1.0, degree_smoothing=1.0)
        degree = train_graph.degree(NodeType.ITEM)
        src = np.zeros(300, dtype=np.int64)
        pos = np.zeros(300, dtype=np.int64)
        batch = sampler.sample_arrays(np.random.default_rng(3), Relation.Q2I,
                                      src, pos)
        assert degree[batch.neg_idx.ravel()].mean() > degree.mean()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(Relation.Q2I, np.arange(3), np.arange(2),
                        np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SampleBatch(Relation.Q2I, np.arange(3), np.arange(3),
                        np.zeros(3))

    def test_loss_accepts_batch_and_matches_list_form(self, train_graph,
                                                      sampler, big_block):
        model = make_model("amcad_e", train_graph, num_subspaces=2,
                           subspace_dim=4, seed=0)
        batch = sampler.sample_arrays(np.random.default_rng(6),
                                      big_block.relation, big_block.src_idx,
                                      big_block.dst_idx)
        from_batch = model.loss(batch, rng=np.random.default_rng(9)).item()
        from_list = model.loss([batch], rng=np.random.default_rng(9)).item()
        assert from_batch == from_list


class TestDeterminism:
    def test_same_seed_same_losses(self, train_graph):
        def run():
            model = make_model("amcad_e", train_graph, num_subspaces=1,
                               subspace_dim=4, seed=0)
            config = TrainerConfig(steps=6, batch_size=16, seed=3)
            return Trainer(model, config).train().losses

        assert run() == run()

    def test_same_seed_same_sample_batch_stream(self, train_graph):
        def stream():
            model = make_model("amcad_e", train_graph, num_subspaces=1,
                               subspace_dim=4, seed=0)
            trainer = Trainer(model, TrainerConfig(steps=1, batch_size=16,
                                                   seed=5))
            return [trainer._next_batch() for _ in range(4)]

        for a, b in zip(stream(), stream()):
            assert a.relation == b.relation
            assert np.array_equal(a.src_idx, b.src_idx)
            assert np.array_equal(a.pos_idx, b.pos_idx)
            assert np.array_equal(a.neg_idx, b.neg_idx)

    def test_next_batch_is_relation_homogeneous_sample_batch(self,
                                                             train_graph):
        model = make_model("amcad_e", train_graph, num_subspaces=1,
                           subspace_dim=4, seed=0)
        trainer = Trainer(model, TrainerConfig(steps=1, batch_size=16,
                                               seed=1))
        batch = trainer._next_batch()
        assert isinstance(batch, SampleBatch)
        assert len(batch) == 16


class TestNode2VecRejection:
    def test_step_marginals_match_bias(self, train_graph):
        """Rejection sampling reproduces the normalised node2vec bias."""
        from repro.models.baselines.walks import Node2VecGenerator
        gen = Node2VecGenerator(train_graph, p=2.0, q=0.5, seed=0)
        # a current node with several neighbours, previous chosen among them
        degrees = np.diff(gen.indptr)
        cur = int(np.argmax(degrees))
        neigh = gen._neighbors(cur)
        prev = int(neigh[0])
        n = 12_000
        trails = np.full((n, 3), -1, dtype=np.int64)
        trails[:, 0] = prev
        trails[:, 1] = cur
        current = np.full(n, cur, dtype=np.int64)
        draws = gen._step_block(trails, 2, current)
        assert np.all(draws >= 0)
        bias = np.where(neigh == prev, 1.0 / gen.p,
                        np.where(gen._has_edge(np.full(neigh.size, prev),
                                               neigh), 1.0, 1.0 / gen.q))
        expected = bias / bias.sum()
        counts = np.array([(draws == v).sum() for v in neigh]) / n
        assert np.allclose(counts, expected, atol=0.03)
