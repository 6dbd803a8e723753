"""Tests for behaviour-log -> graph construction."""

import numpy as np
import pytest

from repro.data.logs import BehaviorLog, Session
from repro.graph import EdgeType, GraphBuilder, NodeType, build_graph
from repro.graph.schema import NodeRef
from reference.sampling import neighbors


class TestEdgeChannels:
    def test_all_channels_present(self, train_graph):
        keys = {(s.value, e.value, d.value)
                for (s, e, d) in train_graph.adjacency_keys}
        assert ("query", "click", "item") in keys
        assert ("query", "click", "ad") in keys
        assert ("item", "co_click", "item") in keys
        assert ("query", "semantic", "query") in keys
        assert ("ad", "co_bid", "ad") in keys

    def test_click_edges_symmetric(self, train_graph):
        forward = train_graph.num_edges(NodeType.QUERY, EdgeType.CLICK,
                                        NodeType.ITEM)
        backward = train_graph.num_edges(NodeType.ITEM, EdgeType.CLICK,
                                         NodeType.QUERY)
        assert forward == backward > 0

    def test_click_weights_count_interactions(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=1, clicks=[NodeRef(NodeType.ITEM, 2)]),
            Session(user=1, query=1, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, weights, __ = neighbors(graph, NodeType.QUERY, 1,
                                     edge_type=EdgeType.CLICK,
                                     dst_type=NodeType.ITEM)
        assert ids.tolist() == [2]
        assert weights.tolist() == [2.0]

    def test_co_click_from_adjacent_clicks(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=0, clicks=[NodeRef(NodeType.ITEM, 1),
                                             NodeRef(NodeType.AD, 2),
                                             NodeRef(NodeType.ITEM, 3)]),
        ])
        graph = build_graph(universe, [log])
        # adjacent pairs: (i1, a2) and (a2, i3); non-adjacent (i1, i3) absent
        ids, __w, __t = neighbors(graph, NodeType.ITEM, 1,
                                  edge_type=EdgeType.CO_CLICK)
        assert 2 in ids.tolist()
        ids13, __w2, __t2 = neighbors(graph, NodeType.ITEM, 1,
                                      edge_type=EdgeType.CO_CLICK,
                                      dst_type=NodeType.ITEM)
        assert 3 not in ids13.tolist()

    def test_query_cosearch_edges(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=0, clicks=[NodeRef(NodeType.ITEM, 1)]),
            Session(user=0, query=5, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, __w, __t = neighbors(graph, NodeType.QUERY, 0,
                                  edge_type=EdgeType.CO_CLICK,
                                  dst_type=NodeType.QUERY)
        assert ids.tolist() == [5]

    def test_same_query_sessions_do_not_self_link(self, universe):
        log = BehaviorLog(day=0, sessions=[
            Session(user=0, query=3, clicks=[NodeRef(NodeType.ITEM, 1)]),
            Session(user=0, query=3, clicks=[NodeRef(NodeType.ITEM, 2)]),
        ])
        graph = build_graph(universe, [log])
        ids, __w, __t = neighbors(graph, NodeType.QUERY, 3,
                                  edge_type=EdgeType.CO_CLICK,
                                  dst_type=NodeType.QUERY)
        assert 3 not in ids.tolist()


class TestSemanticEdges:
    def test_semantic_pairs_share_terms(self, universe, train_graph):
        terms = universe.queries.terms
        checked = 0
        for (s, e, d), csr in train_graph._adj.items():
            if e != EdgeType.SEMANTIC:
                continue
            src = np.repeat(np.arange(train_graph.num_nodes[s]),
                            np.diff(csr.indptr))
            for a, b in zip(src[:50], csr.indices[:50]):
                set_a = set(terms[a]) - {-1}
                set_b = set(terms[b]) - {-1}
                assert set_a & set_b, "semantic edge with no shared terms"
                checked += 1
        assert checked > 0

    def test_threshold_controls_density(self, universe, daily_logs):
        loose = GraphBuilder(universe, semantic_threshold=0.2)
        strict = GraphBuilder(universe, semantic_threshold=0.9)
        loose.add_log(daily_logs[0])
        strict.add_log(daily_logs[0])
        g_loose = loose.build()
        g_strict = strict.build()
        assert (g_loose.num_edges(edge_type=EdgeType.SEMANTIC)
                >= g_strict.num_edges(edge_type=EdgeType.SEMANTIC))


class TestCoBidEdges:
    def test_co_bid_pairs_share_keywords(self, universe, train_graph):
        bid_words = universe.ads.bid_words
        found = 0
        for (s, e, d), csr in train_graph._adj.items():
            if e != EdgeType.CO_BID:
                continue
            src = np.repeat(np.arange(train_graph.num_nodes[s]),
                            np.diff(csr.indptr))
            for a, b in zip(src[:50], csr.indices[:50]):
                shared = (set(bid_words[a]) - {-1}) & (set(bid_words[b]) - {-1})
                assert shared, "co-bid edge with no shared keyword"
                found += 1
        assert found > 0


class TestBuilderAccumulation:
    def test_multi_day_graph_has_more_edges(self, universe, daily_logs):
        one = build_graph(universe, daily_logs[:1])
        three = build_graph(universe, daily_logs[:3])
        assert three.num_edges() > one.num_edges()

    def test_builder_is_chainable(self, universe, daily_logs):
        graph = (GraphBuilder(universe).add_log(daily_logs[0])
                 .add_log(daily_logs[1]).build())
        assert graph.num_edges() > 0
