"""End-to-end integration tests across all subsystems."""

import numpy as np
import pytest

from repro.evaluation import (
    ABTestConfig,
    evaluate_ranking,
    ground_truth_from_log,
    next_auc,
    run_ab_test,
)
from repro.graph.schema import NodeType, Relation
from repro.models import make_baseline, make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def trained_model(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=0)
    Trainer(model, TrainerConfig(steps=60, batch_size=48,
                                 learning_rate=0.05, seed=0)).train()
    return model


class TestTrainingImprovesModel:
    def test_auc_above_random_after_training(self, trained_model, next_graph):
        auc = next_auc(trained_model.similarity, next_graph, num_samples=250)
        assert auc > 60.0, "trained AMCAD should clearly beat random (50)"

    def test_untrained_model_near_random(self, train_graph, next_graph):
        fresh = make_model("amcad", train_graph, num_subspaces=2,
                           subspace_dim=4, seed=9)
        auc = next_auc(fresh.similarity, next_graph, num_samples=250)
        assert 35.0 < auc < 65.0

    def test_curvatures_moved_from_init(self, trained_model):
        kappas = trained_model.node_kappas[NodeType.QUERY].data.tolist()
        assert kappas != [-1.0, 1.0], "curvatures should adapt during training"


class TestIndexToRetrievalFlow:
    @pytest.fixture(scope="class")
    def retriever(self, trained_model):
        return TwoLayerRetriever(IndexSet(trained_model, top_k=30).build())

    def test_retrieved_ads_match_query_category(self, retriever, train_graph,
                                                universe):
        """Retrieved ads should be category-coherent with the query."""
        tree = universe.category_tree
        rng = np.random.default_rng(3)
        hits, total = 0, 0
        queries = rng.integers(train_graph.num_nodes[NodeType.QUERY], size=30)
        for query in queries:
            result = retriever.retrieve(int(query), [], k=5)
            q_cat = int(universe.queries.category[query])
            for ad in result.ads:
                ad_cat = int(universe.ads.category[ad])
                if tree.lowest_common_ancestor(q_cat, ad_cat) != 0:
                    hits += 1
                total += 1
        assert total > 0
        assert hits / total > 0.3, (
            "only %.0f%% of retrieved ads share a category branch"
            % (100 * hits / total))

    def test_ranking_metrics_beat_random_retrieval(self, trained_model,
                                                   daily_logs, train_graph):
        truth = ground_truth_from_log(daily_logs[1], NodeType.ITEM)
        index = IndexSet(trained_model, top_k=100).build([Relation.Q2I])
        model_metrics = evaluate_ranking(
            lambda q, k: index[Relation.Q2I].lookup_batch(q, k)[0],
            truth, ks=(100,), max_queries=60)
        rng = np.random.default_rng(0)
        n_items = train_graph.num_nodes[NodeType.ITEM]
        random_metrics = evaluate_ranking(
            lambda q, k: rng.integers(n_items, size=(len(q), k)),
            truth, ks=(100,), max_queries=60)
        assert model_metrics.hitrate[100] > 2 * random_metrics.hitrate[100]


class TestBaselineOrdering:
    def test_amcad_beats_deepwalk_on_ranking(self, trained_model, train_graph,
                                             daily_logs):
        truth = ground_truth_from_log(daily_logs[1], NodeType.ITEM)
        index = IndexSet(trained_model, top_k=100).build([Relation.Q2I])
        amcad_metrics = evaluate_ranking(
            lambda q, k: index[Relation.Q2I].lookup_batch(q, k)[0],
            truth, ks=(100,), max_queries=60)

        deepwalk = make_baseline("deepwalk", train_graph, dim=8, seed=0)
        deepwalk.train(12000)
        q_emb = deepwalk.embed(NodeType.QUERY)
        i_emb = deepwalk.embed(NodeType.ITEM)

        def retrieve(queries, k):
            scores = q_emb[np.asarray(queries)] @ i_emb.T
            return np.argsort(-scores, axis=1)[:, :k]

        dw_metrics = evaluate_ranking(retrieve, truth, ks=(100,),
                                      max_queries=60)
        assert amcad_metrics.hitrate[100] > dw_metrics.hitrate[100], (
            "amcad %.3f should beat deepwalk %.3f"
            % (amcad_metrics.hitrate[100], dw_metrics.hitrate[100]))


class TestABFlow:
    def test_ab_test_runs_on_trained_channels(self, trained_model, universe,
                                              train_graph):
        index = IndexSet(trained_model, top_k=30).build()
        channel = TwoLayerRetriever(index)
        result = run_ab_test(universe, channel, channel,
                             ABTestConfig(num_requests=40, seed=0))
        assert result.ctr_lift()["overall"] == pytest.approx(0.0)
        assert result.control.impressions.sum() > 0
