"""The sharded offline inference plane: full-graph plans + numpy compute.

Covers the offline half of the system rebuilt in this PR:

- ``build_full_graph_plan`` covering every node of a type with an
  identity output map;
- ``NodeEncoder.encode_from_plan_numpy`` held to *bit* parity with the
  tensor compute phase (the documented tolerance of the plan path is
  zero: same float64 ops, same order);
- ``AMCAD.encode_all`` row order on full and partial plans, the
  NeighborDrawCache refresh policy, and the empty-vocabulary shape
  regression (dims must come from the manifold factors, not the config).
"""

import copy

import numpy as np
import pytest

from repro.graph.schema import NodeType
from repro.models import NeighborDrawCache, build_full_graph_plan, make_model
from repro.retrieval.mnn import RelationSpace
from repro.graph.schema import Relation


@pytest.fixture(scope="module")
def model(train_graph):
    return make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                      seed=5, gcn_layers=2)


class TestFullGraphPlan:
    def test_covers_whole_vocabulary(self, model, train_graph):
        plan = model.build_full_plan(NodeType.ITEM)
        n = train_graph.num_nodes[NodeType.ITEM]
        top = plan.levels[plan.layers].frontiers[NodeType.ITEM]
        assert np.array_equal(top, np.arange(n))
        assert np.array_equal(plan.output_map(), np.arange(n))

    def test_zero_layers_plan(self, train_graph):
        shallow = make_model("amcad", train_graph, num_subspaces=2,
                             subspace_dim=4, seed=5, gcn_layers=0)
        arrays = shallow.encode_all(NodeType.AD)
        n = train_graph.num_nodes[NodeType.AD]
        assert all(a.shape == (n, 4) for a in arrays)

    def test_draw_cache_reuse_across_refreshes(self, model, train_graph):
        """With a shared cache, repeated plans replay identical draws."""
        cache = NeighborDrawCache()
        rng = np.random.default_rng(3)
        first = build_full_graph_plan(train_graph, NodeType.QUERY, 2, 4,
                                      rng, draw_cache=cache)
        second = build_full_graph_plan(train_graph, NodeType.QUERY, 2, 4,
                                       rng, draw_cache=cache)
        a = model.encoder.encode_from_plan_numpy(first)
        b = model.encoder.encode_from_plan_numpy(second)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        # a cleared cache resamples: embeddings move
        cache.clear()
        third = build_full_graph_plan(train_graph, NodeType.QUERY, 2, 4,
                                      rng, draw_cache=cache)
        c = model.encoder.encode_from_plan_numpy(third)
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))


class TestNumpyComputeParity:
    def test_bit_equal_to_tensor_path_on_shared_plan(self, model):
        """Documented tolerance of the numpy compute phase: zero."""
        plan = model.build_full_plan(NodeType.QUERY)
        via_numpy = model.encoder.encode_from_plan_numpy(plan)
        via_tensor = model.encode(NodeType.QUERY, plan.indices, plan=plan)
        for a, b in zip(via_numpy, via_tensor):
            assert np.array_equal(a, b.data)

    def test_parity_without_fusion(self, train_graph):
        lean = make_model("amcad-fusion", train_graph, num_subspaces=2,
                          subspace_dim=4, seed=5, gcn_layers=1)
        plan = lean.build_full_plan(NodeType.AD)
        via_numpy = lean.encoder.encode_from_plan_numpy(plan)
        via_tensor = lean.encode(NodeType.AD, plan.indices, plan=plan)
        for a, b in zip(via_numpy, via_tensor):
            assert np.array_equal(a, b.data)

    def test_parity_on_frozen_curvature_variant(self, train_graph):
        """Hyperbolic model exercises the project() clipping branch."""
        hyp = make_model("amcad_h", train_graph, num_subspaces=2,
                         subspace_dim=4, seed=5, gcn_layers=1)
        plan = hyp.build_full_plan(NodeType.QUERY)
        via_numpy = hyp.encoder.encode_from_plan_numpy(plan)
        via_tensor = hyp.encode(NodeType.QUERY, plan.indices, plan=plan)
        for a, b in zip(via_numpy, via_tensor):
            assert np.array_equal(a, b.data)


class TestEncodeAll:
    def test_whole_vocabulary_in_order(self, model, train_graph):
        arrays = model.encode_all(NodeType.QUERY)
        n = train_graph.num_nodes[NodeType.QUERY]
        assert all(a.shape == (n, 4) for a in arrays)
        assert all(np.isfinite(a).all() for a in arrays)

    def test_partial_plan_rows_follow_plan_indices(self, model):
        """encode_all on a partial plan honours the request order/dupes
        (same contract as encode with a plan), not frontier order."""
        indices = np.array([5, 3, 3, 11])
        plan = model.encoder.build_plan(NodeType.QUERY, indices,
                                        np.random.default_rng(4))
        points = model.encode_all(NodeType.QUERY, plan=plan)
        reference = model.encode(NodeType.QUERY, indices, plan=plan)
        for a, b in zip(points, reference):
            assert a.shape[0] == indices.size
            assert np.array_equal(a, b.data)
        # duplicated requests yield duplicated rows
        assert np.array_equal(points[0][1], points[0][2])

    def test_empty_vocabulary_dims_come_from_factors(self, model):
        """Regression: an empty vocabulary once came back padded with
        ``config.subspace_dim`` columns for every subspace — wrong
        whenever the config value goes stale relative to the manifold
        factors, which are the authority on per-subspace width."""
        hollow = copy.copy(model)
        hollow.graph = copy.copy(model.graph)
        hollow.graph.num_nodes = dict(model.graph.num_nodes)
        hollow.graph.num_nodes[NodeType.AD] = 0
        hollow.config = copy.copy(model.config)
        hollow.config.subspace_dim = 999   # stale — must not leak out
        arrays = hollow.encode_all(NodeType.AD)
        assert [a.shape for a in arrays] == [(0, 4), (0, 4)]


class TestProjectAllPlanPath:
    def test_relation_space_matches_manual_projection(self, model):
        """from_model's full-plan encode == encode_all + scorer by hand."""
        space = RelationSpace.from_model(model, Relation.Q2A)
        points = model.encode_all(NodeType.QUERY,
                                  np.random.default_rng(2024))
        from repro.autodiff.tensor import Tensor, no_grad
        with no_grad():
            projected = model.scorer.project(
                Relation.Q2A, NodeType.QUERY,
                [Tensor(p) for p in points])
        for a, b in zip(space.src_embeddings, projected):
            assert np.array_equal(a, b.data)
