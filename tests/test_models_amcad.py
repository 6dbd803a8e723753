"""Tests for the AMCAD model facade and variant factory."""

import numpy as np
import pytest

from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.models.amcad import AMCADConfig


class TestConfig:
    def test_default_signature_adaptive(self):
        cfg = AMCADConfig(num_subspaces=3)
        assert cfg.resolved_signature() == [None, None, None]

    def test_constant_signatures(self):
        assert AMCADConfig(space="euclidean").resolved_signature() == [0.0, 0.0]
        assert AMCADConfig(space="hyperbolic").resolved_signature() == [-1.0, -1.0]
        assert AMCADConfig(space="spherical").resolved_signature() == [1.0, 1.0]

    def test_explicit_signature(self):
        cfg = AMCADConfig(space="HS", num_subspaces=2)
        assert cfg.resolved_signature() == [-1.0, 1.0]

    def test_signature_with_unified_factor(self):
        cfg = AMCADConfig(space="HU", num_subspaces=2)
        assert cfg.resolved_signature() == [-1.0, None]

    def test_signature_length_mismatch(self):
        with pytest.raises(ValueError):
            AMCADConfig(space="HSE", num_subspaces=2).resolved_signature()

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            AMCADConfig(space="dodecahedron").resolved_signature()


class TestFactory:
    @pytest.mark.parametrize("name,expected_kappas", [
        ("amcad_e", [0.0, 0.0]),
        ("amcad_h", [-1.0, -1.0]),
        ("amcad_s", [1.0, 1.0]),
    ])
    def test_constant_variants(self, train_graph, name, expected_kappas):
        model = make_model(name, train_graph, num_subspaces=2, subspace_dim=4)
        kappa = model.node_kappas[NodeType.QUERY]
        assert kappa.data.tolist() == expected_kappas
        # frozen spaces expose no curvature parameters
        assert not kappa.requires_grad and not kappa.trainable.any()
        assert not any(p is kappa for p in model.parameters())

    def test_full_amcad_has_trainable_curvatures(self, train_graph):
        model = make_model("amcad", train_graph, num_subspaces=2,
                           subspace_dim=4)
        kappa = model.node_kappas[NodeType.QUERY]
        assert kappa.requires_grad and kappa.trainable.all()
        # initialised spread across negative and positive curvature
        values = kappa.data.tolist()
        assert values[0] < 0 < values[1]

    def test_amcad_u_single_wide_subspace(self, train_graph):
        model = make_model("amcad_u", train_graph, num_subspaces=2,
                           subspace_dim=4)
        assert model.node_kappas[NodeType.QUERY].shape == (1,)
        assert model.encoder.subspace_dim == 8  # 2 x 4 total budget

    def test_product_variant(self, train_graph):
        model = make_model("product:HS", train_graph, subspace_dim=4)
        assert model.node_kappas[NodeType.QUERY].data.tolist() == [-1.0, 1.0]
        assert model.config.attention == "uniform"
        assert model.config.share_edge_space

    def test_hyperml_is_shallow(self, train_graph):
        model = make_model("hyperml", train_graph, subspace_dim=4)
        assert model.config.gcn_layers == 0
        assert not model.config.use_fusion

    def test_hgcn_single_hyperbolic(self, train_graph):
        model = make_model("hgcn", train_graph, num_subspaces=2,
                           subspace_dim=4)
        assert model.node_kappas[NodeType.QUERY].data.tolist() == [-1.0]

    def test_gil_euclidean_hyperbolic(self, train_graph):
        model = make_model("gil", train_graph, subspace_dim=4)
        kappas = model.node_kappas[NodeType.QUERY].data.tolist()
        assert kappas == [0.0, -1.0]

    def test_m2gnn_global_attention(self, train_graph):
        model = make_model("m2gnn", train_graph, num_subspaces=2,
                           subspace_dim=4)
        assert model.config.attention == "global"

    @pytest.mark.parametrize("name,check", [
        ("amcad-mixed", lambda m: m.node_kappas[NodeType.QUERY].size == 1),
        ("amcad-curv", lambda m: m.node_kappas[NodeType.QUERY].data.tolist()
         == [0.0, 0.0]),
        ("amcad-fusion", lambda m: not m.config.use_fusion),
        ("amcad-proj", lambda m: m.config.share_edge_space),
        ("amcad-comb", lambda m: m.config.attention == "uniform"),
    ])
    def test_ablation_variants(self, train_graph, name, check):
        assert check(make_model(name, train_graph, subspace_dim=4))

    def test_unknown_name_rejected(self, train_graph):
        with pytest.raises(ValueError):
            make_model("bert", train_graph)


class TestModelBehaviour:
    @pytest.fixture(scope="class")
    def model(self, train_graph):
        return make_model("amcad", train_graph, num_subspaces=2,
                          subspace_dim=4, seed=2)

    def test_similarity_between_zero_and_one(self, model, rng):
        src = np.array([0, 1, 2])
        dst = np.array([3, 4, 5])
        sim = model.similarity(Relation.Q2I, src, dst, rng)
        assert np.all(sim.data > 0) and np.all(sim.data < 1)

    def test_similarity_decreases_with_distance(self, model, rng):
        src = np.array([0] * 4)
        dst = np.array([1, 2, 3, 4])
        d = model.pair_distance(Relation.Q2I, src, dst,
                                np.random.default_rng(0)).data
        s = model.similarity(Relation.Q2I, src, dst,
                             np.random.default_rng(0)).data
        order_d = np.argsort(d)
        order_s = np.argsort(-s)
        assert np.array_equal(order_d, order_s)

    def test_curvature_report_keys(self, model):
        report = model.curvature_report()
        assert "node:query" in report
        assert any(k.startswith("edge:") for k in report)

    def test_constrain_clamps(self, model):
        kappa = model.node_kappas[NodeType.QUERY]
        saved = kappa.data.copy()
        kappa.data[0] = 99.0
        model.constrain()
        assert kappa.data[0] == kappa.bounds[1]
        kappa.data[...] = saved  # restore

    def test_parameter_count_positive(self, model):
        params = list(model.parameters())
        assert len(params) > 20
        ids = set(map(id, params))
        assert len(ids) == len(params), "parameters() must not duplicate"
