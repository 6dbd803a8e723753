"""Tests for the node encoder and edge scorer."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import no_grad
from repro.geometry.kernels import Curvature
from repro.graph import MetaPathWalker, NegativeSampler
from repro.graph.schema import NodeType, Relation
from repro.models.amcad import AMCAD, AMCADConfig
from repro.models.encoder import NodeEncoder
from repro.models.scorer import EdgeScorer, adaptive_kappas


@pytest.fixture(scope="module")
def model(train_graph):
    return AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                          feature_dim=4, seed=0))


class TestNodeEncoder:
    def test_encode_shapes(self, model, rng):
        points = model.encode(NodeType.QUERY, np.array([0, 1, 2]), rng)
        assert points.shape == (2, 3, 4)

    def test_inductive_points_on_manifold(self, model):
        points = model.encoder.inductive(NodeType.ITEM, np.array([0, 1]))
        kappas = model.node_kappas[NodeType.ITEM].data
        assert (kappas < 0).any()
        for kappa, point in zip(kappas, points.data):
            if kappa < 0:
                radius = 1.0 / np.sqrt(-kappa)
                assert np.all(np.linalg.norm(point, axis=-1) <= radius)

    def test_gcn_uses_neighbors(self, train_graph, rng):
        """Zeroing GCN weights changes encoding vs inductive-only."""
        cfg = AMCADConfig(num_subspaces=1, subspace_dim=4, gcn_layers=1, seed=0)
        m = AMCAD(train_graph, cfg)
        idx = np.array([0, 1, 2, 3])
        with_gcn = m.encode(NodeType.QUERY, idx, np.random.default_rng(0))
        inductive = m.encoder.inductive(NodeType.QUERY, idx)
        assert not np.allclose(with_gcn.data, inductive.data)

    def test_zero_gcn_layers_is_inductive_plus_fusion(self, train_graph):
        cfg = AMCADConfig(num_subspaces=1, subspace_dim=4, gcn_layers=0,
                          use_fusion=False, seed=0)
        m = AMCAD(train_graph, cfg)
        idx = np.array([5, 6])
        out = m.encode(NodeType.AD, idx, np.random.default_rng(0))
        ind = m.encoder.inductive(NodeType.AD, idx)
        assert np.allclose(out.data, ind.data)

    def test_fusion_mixes_subspaces(self, train_graph):
        base = AMCADConfig(num_subspaces=2, subspace_dim=4, seed=0)
        with_fusion = AMCAD(train_graph, base)
        without = AMCAD(train_graph,
                        AMCADConfig(num_subspaces=2, subspace_dim=4,
                                    use_fusion=False, seed=0))
        idx = np.array([0, 1])
        a = with_fusion.encode(NodeType.QUERY, idx, np.random.default_rng(0))
        b = without.encode(NodeType.QUERY, idx, np.random.default_rng(0))
        assert not np.allclose(a.data[0], b.data[0])

    def test_determinism_given_rng(self, model):
        a = model.encode(NodeType.ITEM, np.array([0, 1]),
                         np.random.default_rng(7))
        b = model.encode(NodeType.ITEM, np.array([0, 1]),
                         np.random.default_rng(7))
        assert np.allclose(a.data, b.data)

    def test_mismatched_subspace_counts_rejected(self, train_graph, rng):
        kappas = {t: Curvature(adaptive_kappas(m), [True] * m)
                  for t, m in ((NodeType.QUERY, 2), (NodeType.ITEM, 3),
                               (NodeType.AD, 2))}
        with pytest.raises(ValueError):
            NodeEncoder(train_graph, kappas, subspace_dim=4, rng=rng)


class TestEdgeScorer:
    def test_distance_shape_and_sign(self, model, rng):
        src = model.encode(NodeType.QUERY, np.array([0, 1, 2]), rng)
        dst = model.encode(NodeType.ITEM, np.array([3, 4, 5]), rng)
        d = model.scorer.distance(Relation.Q2I, src, NodeType.QUERY,
                                  dst, NodeType.ITEM)
        assert d.shape == (3,)
        assert np.all(d.data >= 0)

    def test_pair_attention_weights_sum_to_one(self, model, rng):
        points = model.encode(NodeType.QUERY, np.array([0, 1]), rng)
        projected = model.scorer.project(Relation.Q2I, NodeType.QUERY, points)
        weights = model.scorer.node_weights(Relation.Q2I, NodeType.QUERY,
                                            projected)
        assert weights.shape == (2, 2)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_uniform_attention(self, train_graph, rng):
        m = AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                           attention="uniform", seed=0))
        points = m.encode(NodeType.QUERY, np.array([0, 1, 2]), rng)
        projected = m.scorer.project(Relation.Q2I, NodeType.QUERY, points)
        weights = m.scorer.node_weights(Relation.Q2I, NodeType.QUERY, projected)
        assert np.allclose(weights.data, 0.5)

    def test_global_attention_same_for_all_nodes(self, train_graph, rng):
        m = AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                           attention="global",
                                           share_edge_space=True, seed=0))
        points = m.encode(NodeType.QUERY, np.array([0, 1, 2]), rng)
        projected = m.scorer.project(Relation.Q2I, NodeType.QUERY, points)
        weights = m.scorer.node_weights(Relation.Q2I, NodeType.QUERY, projected)
        assert np.allclose(weights.data[0], weights.data[1])

    def test_unknown_attention_mode_rejected(self, model):
        with pytest.raises(ValueError):
            EdgeScorer(model.node_kappas, 4, attention="nonsense")

    def test_shared_edge_space_uses_one_manifold(self, train_graph):
        m = AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                           share_edge_space=True, seed=0))
        assert len(m.scorer.edge_kappas) == 1
        full = AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                              seed=0))
        assert len(full.scorer.edge_kappas) == 6

    def test_relation_specific_projection_differs(self, model, rng):
        points = model.encode(NodeType.QUERY, np.array([0, 1]), rng)
        p_q2i = model.scorer.project(Relation.Q2I, NodeType.QUERY, points)
        p_q2a = model.scorer.project(Relation.Q2A, NodeType.QUERY, points)
        assert not np.allclose(p_q2i[0].data, p_q2a[0].data)

    def test_distance_symmetric_same_type(self, model, rng):
        x = model.encode(NodeType.QUERY, np.array([0, 1]), rng)
        y = model.encode(NodeType.QUERY, np.array([2, 3]), rng)
        dxy = model.scorer.distance(Relation.Q2Q, x, NodeType.QUERY,
                                    y, NodeType.QUERY)
        dyx = model.scorer.distance(Relation.Q2Q, y, NodeType.QUERY,
                                    x, NodeType.QUERY)
        assert np.allclose(dxy.data, dyx.data, atol=1e-9)


def _sample_batches(graph, rng, num_walks, per_relation):
    """One ``SampleBatch`` per relation the walks reached."""
    walker = MetaPathWalker(graph)
    sampler = NegativeSampler(graph)
    return [sampler.sample_arrays(rng, block.relation,
                                  block.src_idx[:per_relation],
                                  block.dst_idx[:per_relation])
            for block in walker.sample_pair_blocks(rng, num_walks)]


class TestGradientFlow:
    def test_all_parameter_groups_receive_gradients(self, train_graph):
        model = AMCAD(train_graph, AMCADConfig(num_subspaces=2, subspace_dim=4,
                                               seed=3))
        rng = np.random.default_rng(0)
        samples = _sample_batches(train_graph, rng, 400, 11)
        assert len({batch.relation for batch in samples}) > 1
        loss = model.loss(samples, rng=rng)
        loss.backward()
        groups = {
            "feature tables": list(model.encoder.embeddings[NodeType.QUERY]
                                   .tables.values()),
            "gcn weights": list(model.encoder.gcn_weights.values()),
            "fusion weights": list(model.encoder.fusion_weights.values()),
            "proj weights": list(model.scorer.proj_weights.values()),
            "attention": list(model.scorer.att_weights.values()),
            "node curvatures": list(model.node_kappas.values()),
            "edge curvatures": list(model.scorer.edge_kappas.values()),
        }
        for name, params in groups.items():
            got = any(p.grad is not None and np.abs(p.grad).max() > 0
                      for p in params)
            assert got, "no gradient reached %s" % name

    def test_loss_is_finite_scalar(self, model, train_graph):
        rng = np.random.default_rng(1)
        samples = _sample_batches(train_graph, rng, 100, 16)[0]
        loss = model.loss(samples, rng=rng)
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_empty_sample_list_gives_zero_loss(self, model):
        loss = model.loss([])
        assert loss.item() == 0.0


class TestEncodeAll:
    def test_encode_all_shapes(self, model):
        arrays = model.encode_all(NodeType.AD)
        assert len(arrays) == 2
        n = model.graph.num_nodes[NodeType.AD]
        assert all(a.shape == (n, 4) for a in arrays)

    def test_encode_all_no_tape(self, model):
        with no_grad():
            arrays = model.encode_all(NodeType.AD)
        assert all(np.isfinite(a).all() for a in arrays)
