"""The training loop's plain-data contracts and its backward dial.

Covers:

- ``SampleBatch``/``EncodePlan`` are plain data: pickle round-trips
  them with no custom state hooks;
- the ``backward_depth`` dial: bit-identical forward, exact upper-level
  gradients, no lower-level gradients.
"""

import pickle

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.graph import MetaPathWalker, NegativeSampler
from repro.graph.schema import NodeType
from repro.models import make_model
from repro.models.plan import build_encode_plan
from repro.training import Trainer, TrainerConfig


def _batch_and_plans(graph, *, seed, batch_size, gcn_layers):
    """One relation-homogeneous batch and its role-keyed encode plans."""
    rng = np.random.default_rng(seed)
    block = max(MetaPathWalker(graph).sample_pair_blocks(rng, 200), key=len)
    batch = NegativeSampler(graph).sample_arrays(
        rng, block.relation, block.src_idx[:batch_size],
        block.dst_idx[:batch_size])
    relation = batch.relation
    targets = np.concatenate([batch.pos_idx, batch.neg_idx.ravel()])
    return batch, {
        "source": build_encode_plan(graph, relation.source_type,
                                    batch.src_idx, gcn_layers, 4, rng),
        "target": build_encode_plan(graph, relation.target_type, targets,
                                    gcn_layers, 4, rng)}


def _assert_plans_equal(pa, pb):
    assert pa.node_type == pb.node_type
    assert pa.layers == pb.layers
    np.testing.assert_array_equal(pa.indices, pb.indices)
    for la, lb in zip(pa.levels, pb.levels):
        assert set(la.frontiers) == set(lb.frontiers)
        for t in la.frontiers:
            np.testing.assert_array_equal(la.frontiers[t], lb.frontiers[t])
        for t in la.blocks:
            for ba, bb in zip(la.blocks[t], lb.blocks[t]):
                assert ba.dst_type == bb.dst_type
                np.testing.assert_array_equal(ba.neigh_ids, bb.neigh_ids)
                np.testing.assert_array_equal(ba.mask, bb.mask)


class TestPickleRoundTrip:
    """Plain-array contracts: default pickling is a faithful copy."""

    def test_sample_batch_survives_pickle(self, train_graph, rng):
        sampler = NegativeSampler(train_graph)
        walker = MetaPathWalker(train_graph)
        block = walker.sample_pair_blocks(rng, 200)[0]
        batch = sampler.sample_arrays(rng, block.relation, block.src_idx,
                                      block.dst_idx)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.relation == batch.relation
        for field in ("src_idx", "pos_idx", "neg_idx"):
            original = getattr(batch, field)
            copied = getattr(clone, field)
            assert copied.dtype == np.int64
            assert copied.shape == original.shape
            np.testing.assert_array_equal(copied, original)
        # behaves like a batch on the other side, not just raw arrays
        assert len(clone) == len(batch)
        assert clone.num_negatives == batch.num_negatives

    def test_encode_plan_survives_pickle(self, train_graph, rng):
        indices = rng.integers(train_graph.num_nodes[NodeType.QUERY], size=24)
        plan = build_encode_plan(train_graph, NodeType.QUERY, indices,
                                 layers=2, neighbor_samples=4, rng=rng)
        clone = pickle.loads(pickle.dumps(plan))
        _assert_plans_equal(plan, clone)
        assert clone.indices.dtype == np.int64
        # derived machinery still works after the round-trip
        np.testing.assert_array_equal(clone.output_map(), plan.output_map())
        ids, mask = clone.lookup(0, NodeType.QUERY,
                                 clone.levels[1].frontiers[NodeType.QUERY],
                                 NodeType.ITEM)
        ref_ids, ref_mask = plan.lookup(
            0, NodeType.QUERY, plan.levels[1].frontiers[NodeType.QUERY],
            NodeType.ITEM)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(mask, ref_mask)
        assert clone.num_encoded() == plan.num_encoded()


class TestBackwardDepth:
    @pytest.fixture(scope="class")
    def payload(self, train_graph):
        return _batch_and_plans(train_graph, seed=7, batch_size=16,
                                gcn_layers=2)

    @staticmethod
    def _backward(train_graph, payload, depth, wrap_inductive=None):
        model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                           gcn_layers=2)
        model.encoder.backward_depth = depth
        if wrap_inductive is not None:
            model.encoder.inductive = wrap_inductive(model.encoder.inductive)
        batch, plans = payload
        loss = model.loss(batch, plans=plans)
        loss.backward()
        return loss.item(), model

    def _loss_and_encoder_grads(self, train_graph, payload, depth):
        loss, model = self._backward(train_graph, payload, depth)
        grads = {key: None if p.grad is None else p.grad.copy()
                 for key, p in model.encoder.gcn_weights.items()}
        return loss, grads

    @staticmethod
    def _assert_same_gradients(model, reference):
        params = list(model.parameters())
        expected = list(reference.parameters())
        assert len(params) == len(expected)
        for got, want in zip(params, expected):
            if want.grad is None:
                assert got.grad is None
            else:
                np.testing.assert_array_equal(got.grad, want.grad)

    def test_forward_is_bit_identical_at_any_depth(self, train_graph,
                                                   payload):
        """The dial truncates the backward only: same loss at all depths."""
        full, _ = self._loss_and_encoder_grads(train_graph, payload, 0)
        for depth in (1, 2, 3):
            truncated, _ = self._loss_and_encoder_grads(train_graph, payload,
                                                        depth)
            assert truncated == full        # tolerance 0, deliberately

    def test_upper_levels_get_exact_full_gradients(self, train_graph,
                                                   payload):
        """GCN round ``l`` weights act at level ``l+1``: above the cut
        they must receive *exactly* the full-backward gradients, below
        it none at all."""
        _, full = self._loss_and_encoder_grads(train_graph, payload, 0)
        _, truncated = self._loss_and_encoder_grads(train_graph, payload, 1)
        tops = lows = 0
        for key, grad in truncated.items():
            _, layer = key
            if layer == 0:                  # below the cut: constants
                assert grad is None
                if full[key] is not None:
                    lows += 1               # full backward reached it
            elif full[key] is None:
                # node type absent from the top level of both endpoint
                # plans — untouched under full backward as well
                assert grad is None
            else:                           # top GCN round: on the tape
                assert grad is not None
                np.testing.assert_array_equal(grad, full[key])
                tops += 1
        assert tops > 0 and lows > 0

    def test_depth_beyond_layers_is_full_backward(self, train_graph,
                                                  payload):
        full_loss, full = self._backward(train_graph, payload, 0)
        deep_loss, deep = self._backward(train_graph, payload, 3)
        assert deep_loss == full_loss
        self._assert_same_gradients(deep, full)

    def test_cut_at_inductive_equals_detached_inductive(self, train_graph,
                                                        payload):
        """``backward_depth = gcn_layers`` freezes level 0 only.

        That must equal a full backward whose inductive points are
        detached constants: loss and every gradient, each curvature
        included.  The level-0 tangents are still taken on the tape, so
        the node curvatures keep the ``logmap0`` share of their
        gradient."""
        def detached(inductive):
            return lambda t, indices: Tensor(inductive(t, indices).data)

        cut_loss, cut = self._backward(train_graph, payload, 2)
        ref_loss, ref = self._backward(train_graph, payload, 0,
                                       wrap_inductive=detached)
        assert cut_loss == ref_loss
        self._assert_same_gradients(cut, ref)

    def test_trainer_sets_dial_on_encoder(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, gcn_layers=2)
        Trainer(model, TrainerConfig(backward_depth=1))
        assert model.encoder.backward_depth == 1

    def test_trainer_trains_with_dial(self, train_graph):
        model = make_model("amcad", train_graph, subspace_dim=4, seed=0,
                           gcn_layers=2)
        config = TrainerConfig(steps=2, batch_size=8, seed=0,
                               backward_depth=1)
        report = Trainer(model, config).train()
        assert len(report.losses) == 2
        assert all(np.isfinite(report.losses))
