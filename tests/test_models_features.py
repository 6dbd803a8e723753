"""Tests for feature embedding and the LRU feature-exit registry."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter
from repro.common import PAD
from repro.graph.schema import NodeType
from repro.models.features import FeatureEmbedding, LRUFeatureRegistry


@pytest.fixture
def embedding(rng):
    return FeatureEmbedding(
        NodeType.QUERY, {"id": 10, "category": 5, "terms": 20},
        feature_dim=4, num_subspaces=2, subspace_dim=6, rng=rng)


FEATURES = {
    "id": np.arange(10),
    "category": np.array([0, 1, 2, 3, 4] * 2),
    "terms": np.array([[1, 2, PAD], [3, PAD, PAD]] * 5),
}


class TestFeatureEmbedding:
    def test_output_shapes(self, embedding):
        out = embedding.forward(FEATURES, np.array([0, 3, 7]))
        assert out.shape == (2, 3, 6)

    def test_subspaces_have_distinct_tables(self, embedding):
        out = embedding.forward(FEATURES, np.array([0, 1]))
        assert not np.allclose(out[0].data, out[1].data)

    def test_pad_slots_ignored(self, embedding):
        """A PAD slot must not contribute to the pooled term embedding."""
        feats_a = dict(FEATURES)
        feats_b = dict(FEATURES)
        feats_b["terms"] = FEATURES["terms"].copy()
        # change a PAD entry's underlying value: output must not move
        out_a = embedding.forward(feats_a, np.array([1]))[0].data.copy()
        table = embedding.tables["terms"]
        # row 0 of the table is arbitrary; perturb a row only referenced
        # through PAD-masked slots -> pick an unused term id
        table.data[:, 19] += 100.0
        out_b = embedding.forward(feats_b, np.array([1]))[0].data
        assert np.allclose(out_a, out_b)

    def test_multislot_mean_pooling(self, rng):
        emb = FeatureEmbedding(NodeType.QUERY, {"terms": 5}, feature_dim=3,
                               num_subspaces=1, subspace_dim=3, rng=rng)
        feats = {"terms": np.array([[0, 1, PAD]])}
        out = emb.forward(feats, np.array([0]))[0]
        table = emb.tables["terms"].data[0]
        manual = (table[0] + table[1]) / 2.0 @ emb.projection.data[0]
        assert np.allclose(out.data[0], manual, atol=1e-12)

    def test_gradients_reach_tables(self, embedding):
        out = embedding.forward(FEATURES, np.array([0, 1, 2]))
        loss = ops.sum(out[0]) + ops.sum(out[1])
        loss.backward()
        grads = [t.grad for t in embedding.tables.values()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_parameters_enumerated(self, embedding):
        params = list(embedding.parameters())
        # one (M, vocab, dim) table per field + one stacked projection
        assert len(params) == 4
        # stored as 2 subspaces x 3 fields tables + 2 projections
        assert len(embedding.checkpoint_layout()) == 8


class TestLRURegistry:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            LRUFeatureRegistry(horizon_steps=0)

    def test_touch_and_evict_cycle(self):
        registry = LRUFeatureRegistry(horizon_steps=2, seed=0)
        table = Parameter(np.ones((6, 3)))
        registry.register(table)
        registry.touch(table, np.array([0, 1, 2]))
        registry.advance()
        registry.touch(table, np.array([0]))
        registry.advance()
        registry.touch(table, np.array([0]))
        registry.advance()
        evicted = registry.evict_stale()
        assert evicted == 2            # rows 1 and 2 went stale
        assert np.allclose(table.data[0], 1.0)   # row 0 kept
        assert not np.allclose(table.data[1], 1.0)  # re-initialised

    def test_never_seen_rows_untouched(self):
        registry = LRUFeatureRegistry(horizon_steps=1, seed=0)
        table = Parameter(np.ones((4, 2)))
        registry.register(table)
        registry.touch(table, np.array([0]))
        for _ in range(5):
            registry.advance()
        registry.evict_stale()
        # rows never seen keep their initial values
        assert np.allclose(table.data[2], 1.0)
        assert np.allclose(table.data[3], 1.0)

    def test_pad_ids_ignored(self):
        registry = LRUFeatureRegistry(horizon_steps=1)
        table = Parameter(np.ones((4, 2)))
        registry.touch(table, np.array([PAD, 1]))
        assert registry.active_rows == 1

    def test_active_rows_counts(self):
        registry = LRUFeatureRegistry(horizon_steps=3)
        t1 = Parameter(np.ones((5, 2)))
        t2 = Parameter(np.ones((5, 2)))
        registry.touch(t1, np.array([0, 1]))
        registry.touch(t2, np.array([2]))
        assert registry.active_rows == 3

    def test_eviction_resets_last_seen(self):
        registry = LRUFeatureRegistry(horizon_steps=1, seed=0)
        table = Parameter(np.ones((3, 2)))
        registry.touch(table, np.array([0]))
        registry.advance(5)
        assert registry.evict_stale() == 1
        assert registry.evict_stale() == 0  # not evicted twice
