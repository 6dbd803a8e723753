"""The offline inference plane: full-graph plans encoded under ``no_grad``.

Covers:

- ``build_full_graph_plan`` covering every node of a type with an
  identity output map;
- ``AMCAD.encode_all`` (the training encoder run under ``no_grad``)
  held to *bit* parity with a grad-enabled ``encode`` on the same plan
  — ``no_grad`` changes no value — with fusion on and off and on the
  hyperbolic clip branch;
- a tape-free index build: no tensor made during ``IndexSet.build``
  records parents, and the grad switch is back on after a failed build;
- ``AMCAD.encode_all`` row order on full and partial plans, and the
  empty-vocabulary shape regressions (dims must come from the encoder,
  not the config; a relation space and an index over an empty
  target vocabulary keep their M subspaces).
"""

import copy

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, is_grad_enabled, no_grad
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval import BACKENDS, IndexSet
from repro.retrieval.mnn import RelationSpace


@pytest.fixture(scope="module")
def model(train_graph):
    return make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                      seed=5, gcn_layers=2)


@pytest.fixture(scope="module")
def hollow(model):
    """``model`` over a graph whose AD vocabulary is empty."""
    hollow = copy.copy(model)
    hollow.graph = copy.copy(model.graph)
    hollow.graph.num_nodes = dict(model.graph.num_nodes)
    hollow.graph.num_nodes[NodeType.AD] = 0
    hollow.config = copy.copy(model.config)
    hollow.config.subspace_dim = 999   # stale — must not leak out
    return hollow


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


def _assert_no_grad_changes_nothing(model, node_type):
    plan = model.build_full_plan(node_type)
    offline = model.encode_all(node_type, plan=plan)
    taped = model.encode(node_type, plan.indices, plan=plan)
    assert all(t.requires_grad for t in taped)   # the tape was recorded
    for a, b in zip(offline, taped):
        assert np.array_equal(a, b.data)


class TestNumpyComputeParity:
    """``encode_all`` vs grad-enabled ``encode``: tolerance zero."""

    def test_bit_equal_to_tensor_path_on_shared_plan(self, model):
        _assert_no_grad_changes_nothing(model, NodeType.QUERY)

    def test_parity_without_fusion(self, train_graph):
        lean = make_model("amcad-fusion", train_graph, num_subspaces=2,
                          subspace_dim=4, seed=5, gcn_layers=1)
        _assert_no_grad_changes_nothing(lean, NodeType.AD)

    def test_parity_on_frozen_curvature_variant(self, train_graph):
        """Hyperbolic model exercises the project() clipping branch."""
        hyp = make_model("amcad_h", train_graph, num_subspaces=2,
                         subspace_dim=4, seed=5, gcn_layers=1)
        _assert_no_grad_changes_nothing(hyp, NodeType.QUERY)


class TestTapeFreeBuild:
    def test_index_build_records_no_tape(self, model, monkeypatch):
        parents = []
        make = Tensor._make

        def spy(data, inputs, backward):
            out = make(data, inputs, backward)
            parents.append(len(out._parents))
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
        IndexSet(model, top_k=5).build()
        assert parents and not any(parents)

    def test_grad_switch_restored_after_failed_build(self, model,
                                                     monkeypatch):
        def broken(node_type, indices):
            raise RuntimeError("inductive failed")

        monkeypatch.setattr(model.encoder, "inductive", broken)
        with pytest.raises(RuntimeError, match="inductive failed"):
            IndexSet(model, top_k=5).build()
        assert is_grad_enabled()


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

    def test_empty_vocabulary_dims_come_from_factors(self, hollow):
        """Regression: an empty vocabulary once came back padded with
        ``config.subspace_dim`` columns for every subspace — wrong
        whenever the config value goes stale relative to the encoder,
        which is the authority on per-subspace width."""
        arrays = hollow.encode_all(NodeType.AD)
        assert [a.shape for a in arrays] == [(0, 4), (0, 4)]


class TestEmptyTargetVocabulary:
    """Regression: an empty vocabulary once projected to one width-1
    subspace and ``(0, 1)`` weights beside M curvatures."""

    def test_relation_space_keeps_every_subspace(self, hollow):
        space = RelationSpace.from_model(hollow, Relation.Q2A)
        assert len(space.kappas) == 2
        assert [e.shape for e in space.dst_embeddings] == [(0, 4), (0, 4)]
        assert space.dst_weights.shape == (0, 2)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_index_over_empty_targets(self, hollow, backend):
        index_set = IndexSet(hollow, top_k=5, backend=backend).build(
            [Relation.Q2A, Relation.I2A])
        for relation, src_type in ((Relation.Q2A, NodeType.QUERY),
                                   (Relation.I2A, NodeType.ITEM)):
            n_src = hollow.graph.num_nodes[src_type]
            assert index_set.indices[relation].ids.shape == (n_src, 0)


class TestProjectAllPlanPath:
    def test_relation_space_matches_manual_projection(self, model):
        """from_model's full-plan encode == encode_all + scorer by hand."""
        space = RelationSpace.from_model(model, Relation.Q2A)
        points = model.encode_all(NodeType.QUERY,
                                  np.random.default_rng(2024))
        with no_grad():
            projected = model.scorer.project(
                Relation.Q2A, NodeType.QUERY,
                Tensor(np.stack(points)))
        for a, b in zip(space.src_embeddings, projected):
            assert np.array_equal(a, b.data)
