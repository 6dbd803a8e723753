"""Tests for the vectorised batch retrieval path and the Fermi fix."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.schema import Relation
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever, two_layer
from repro.retrieval.index import InvertedIndex
from repro.retrieval.two_layer import KeyExpansion, _fermi
from repro.training import Trainer, TrainerConfig

from reference.retrieval import expand_keys_looped, retrieve_looped


@pytest.fixture(scope="module")
def retriever(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=12)
    Trainer(model, TrainerConfig(steps=20, batch_size=32, seed=12)).train()
    index_set = IndexSet(model, top_k=20).build()
    return TwoLayerRetriever(index_set, expansion_k=5, ads_per_key=5)


@pytest.fixture
def requests(train_graph, rng):
    num_queries = train_graph.num_nodes[list(train_graph.num_nodes)[0]]
    queries = rng.integers(num_queries, size=64)
    preclicks = [list(rng.integers(50, size=rng.integers(0, 4)))
                 for _ in queries]
    return queries, preclicks


class TestFermi:
    def test_no_overflow_warning_at_large_distance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _fermi(np.array([1e3, 1e6, 1e12]))
        assert np.all(out >= 0.0) and np.all(out <= 1e-300)

    def test_matches_textbook_formula_in_safe_range(self):
        d = np.linspace(0.0, 10.0, 41)
        naive = 1.0 / (1.0 + np.exp(-5.0 * (1.0 - d)))
        assert np.allclose(_fermi(d), naive, rtol=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        d = np.linspace(0, 50, 101)
        s = _fermi(d)
        assert np.all(np.diff(s) <= 0)
        assert np.all((s >= 0) & (s <= 1))


def _assert_same_topk(result, reference):
    """Identical ranking; id order may differ only inside exact score ties.

    The batch path sums per-ad path scores in a different order than
    the looped dict accumulation, so mathematically tied ads may
    permute across platforms — anything else must match exactly.
    """
    assert result.ads.size == reference.ads.size
    assert np.allclose(result.scores, reference.scores)
    if np.array_equal(result.ads, reference.ads):
        return
    scores = reference.scores
    boundaries = np.flatnonzero(~np.isclose(scores[1:], scores[:-1]))
    starts = np.concatenate([[0], boundaries + 1])
    stops = np.concatenate([boundaries + 1, [scores.size]])
    for a, b in zip(starts, stops):
        run_a = set(result.ads[a:b].tolist())
        run_b = set(reference.ads[a:b].tolist())
        # the last run may be truncated differently by k among ties
        assert run_a == run_b or b == scores.size, \
            "rankings differ outside a tied-score run"


class TestBatchParity:
    def test_retrieve_batch_matches_looped_reference(self, retriever,
                                                     requests):
        queries, preclicks = requests
        batch = retriever.retrieve_batch(queries, preclicks, k=10)
        assert len(batch) == len(queries)
        for query, items, result in zip(queries, preclicks, batch):
            reference = retrieve_looped(retriever, int(query), items, k=10)
            _assert_same_topk(result, reference)
            assert result.num_keys == reference.num_keys

    def test_retrieve_is_thin_wrapper(self, retriever, requests):
        queries, preclicks = requests
        single = retriever.retrieve(int(queries[0]), preclicks[0], k=10)
        batch = retriever.retrieve_batch(queries[:1], preclicks[:1], k=10)[0]
        assert np.array_equal(single.ads, batch.ads)
        assert np.allclose(single.scores, batch.scores)

    def test_expansion_matches_dict_reference(self, retriever, requests):
        queries, preclicks = requests
        expansions = retriever.expand_keys_batch(queries[:8], preclicks[:8])
        for query, items, expansion in zip(queries[:8], preclicks[:8],
                                           expansions):
            query_keys, item_keys = expand_keys_looped(retriever,
                                                       int(query), items)
            assert set(expansion.query_keys.tolist()) == set(query_keys)
            assert set(expansion.item_keys.tolist()) == set(item_keys)
            for key, score in zip(expansion.query_keys,
                                  expansion.query_scores):
                assert score == pytest.approx(query_keys[int(key)])
            for key, score in zip(expansion.item_keys,
                                  expansion.item_scores):
                assert score == pytest.approx(item_keys[int(key)])

    def test_default_preclicks(self, retriever, requests):
        queries, __ = requests
        bare = retriever.retrieve_batch(queries[:4], k=5)
        explicit = retriever.retrieve_batch(queries[:4], [()] * 4, k=5)
        for a, b in zip(bare, explicit):
            assert np.array_equal(a.ads, b.ads)

    def test_length_mismatch_raises(self, retriever):
        with pytest.raises(ValueError):
            retriever.retrieve_batch([0, 1], [[2]])

    def test_empty_batch(self, retriever):
        assert retriever.retrieve_batch([], []) == []


def _index(relation, ids, dists):
    return InvertedIndex(relation=relation, ids=np.asarray(ids),
                         distances=np.asarray(dists, dtype=float),
                         build_seconds=0.0)


class _StubIndexSet:
    def __init__(self, indices):
        self.indices = indices

    def __getitem__(self, relation):
        return self.indices[relation]

    def __contains__(self, relation):
        return relation in self.indices


class TestBatchSemantics:
    """Deterministic scoring checks on a hand-built index set."""

    @pytest.fixture
    def stub_retriever(self):
        indices = {
            Relation.Q2A: _index(Relation.Q2A, [[1, 2]], [[0.1, 0.5]]),
            Relation.I2A: _index(Relation.I2A,
                                 [[9, 9]] * 5 + [[2, 3]],
                                 [[9.0, 9.0]] * 5 + [[0.2, 0.4]]),
        }
        return TwoLayerRetriever(_StubIndexSet(indices), expansion_k=2,
                                 ads_per_key=2)

    def test_multi_path_ad_ranks_first_in_batch(self, stub_retriever):
        results = stub_retriever.retrieve_batch([0, 0], [[5], []], k=4)
        assert results[0].ads[0] == 2          # reachable via both hops
        assert set(results[1].ads.tolist()) == {1, 2}

    def test_scores_sum_over_paths(self, stub_retriever):
        result = stub_retriever.retrieve_batch([0], [[5]], k=4)[0]
        lookup = dict(zip(result.ads.tolist(), result.scores.tolist()))
        assert lookup[2] == pytest.approx(
            float(_fermi(np.array([0.5]))[0] + _fermi(np.array([0.2]))[0]))

    def test_empty_index_set(self):
        retriever = TwoLayerRetriever(_StubIndexSet({}))
        results = retriever.retrieve_batch([0, 1], [[1], []], k=5)
        for result in results:
            assert result.ads.size == 0
            assert result.scores.size == 0
        assert results[0].num_keys == 2        # query + pre-click seeds

    def test_duplicate_preclicks_counted_once(self, stub_retriever):
        once = stub_retriever.retrieve_batch([0], [[5]], k=4)[0]
        twice = stub_retriever.retrieve_batch([0], [[5, 5]], k=4)[0]
        assert np.array_equal(once.ads, twice.ads)
        assert np.allclose(once.scores, twice.scores)
        assert once.num_keys == twice.num_keys

    def test_key_expansion_dataclass(self, stub_retriever):
        expansion = stub_retriever.expand_keys_batch(
            np.array([0]), [[5]])[0]
        assert isinstance(expansion, KeyExpansion)
        assert expansion.num_keys == 2
        assert expansion.query_scores[0] == 1.0
        assert expansion.item_scores[0] == 1.0


def _random_indices(rng, relations, num_queries=30, num_items=40, num_ads=25,
                    width=6, dtype=np.int64):
    """A seeded stub index set over the given relations."""
    sizes = {"q": num_queries, "i": num_items, "a": num_ads}
    indices = {}
    for relation in relations:
        source, target = relation.value[0], relation.value[-1]
        ids = rng.integers(sizes[target], size=(sizes[source], width))
        dists = np.sort(rng.uniform(0.0, 3.0, size=ids.shape), axis=1)
        indices[relation] = _index(relation, ids.astype(dtype), dists)
    return _StubIndexSet(indices)


def _stub_requests(rng, count, num_queries=30, num_items=40):
    queries = rng.integers(num_queries, size=count)
    preclicks = [tuple(rng.integers(num_items, size=rng.integers(0, 4)))
                 for _ in range(count)]
    return queries, preclicks


def _assert_matches_oracle(retriever, queries, preclicks, k):
    batch = retriever.retrieve_batch(queries, preclicks, k=k)
    assert len(batch) == len(queries)
    for query, items, result in zip(queries, preclicks, batch):
        reference = retrieve_looped(retriever, int(query), items, k=k)
        _assert_same_topk(result, reference)
        assert result.num_keys == reference.num_keys
    return batch


ALL_RELATIONS = list(Relation)


class TestMissPath:
    """The dense layer-2 path against the dict-accumulating oracle."""

    @pytest.mark.parametrize("relations", [
        ALL_RELATIONS,
        [Relation.Q2A],
        [Relation.I2A],
        [Relation.Q2Q, Relation.Q2I, Relation.I2Q, Relation.I2I],
        [Relation.Q2I, Relation.I2A],
    ], ids=lambda rs: "+".join(r.value for r in rs))
    def test_missing_relations(self, rng, relations):
        retriever = TwoLayerRetriever(_random_indices(rng, relations),
                                      expansion_k=4, ads_per_key=3)
        _assert_matches_oracle(retriever, *_stub_requests(rng, 12), k=5)

    def test_request_that_reaches_no_ad_beside_one_that_does(self, rng):
        retriever = TwoLayerRetriever(
            _random_indices(rng, [Relation.I2A]), ads_per_key=3)
        nothing, something = _assert_matches_oracle(
            retriever, [3, 3], [(), (7,)], k=5)
        assert nothing.ads.size == 0 and nothing.num_keys == 1
        assert something.ads.size > 0

    @pytest.mark.parametrize("k", [1, 24, 25, 26, 1000])
    def test_k_around_and_above_the_catalog(self, rng, k):
        retriever = TwoLayerRetriever(_random_indices(rng, ALL_RELATIONS),
                                      expansion_k=4, ads_per_key=3)
        for result in _assert_matches_oracle(
                retriever, *_stub_requests(rng, 8), k=k):
            assert result.ads.size <= min(k, 25)
            assert np.unique(result.ads).size == result.ads.size

    def test_index_narrower_than_the_dials(self, rng):
        retriever = TwoLayerRetriever(
            _random_indices(rng, ALL_RELATIONS, width=2),
            expansion_k=10, ads_per_key=10)
        _assert_matches_oracle(retriever, *_stub_requests(rng, 8), k=20)

    def test_zero_ads_per_key_reaches_nothing(self, rng):
        retriever = TwoLayerRetriever(_random_indices(rng, ALL_RELATIONS),
                                      expansion_k=4, ads_per_key=0)
        assert retriever.num_ads == 0
        for result in _assert_matches_oracle(
                retriever, *_stub_requests(rng, 4), k=5):
            assert result.ads.size == 0 and result.num_keys > 0

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16])
    def test_non_int64_ids(self, rng, dtype):
        retriever = TwoLayerRetriever(
            _random_indices(rng, ALL_RELATIONS, dtype=dtype),
            expansion_k=4, ads_per_key=3)
        results = _assert_matches_oracle(retriever, *_stub_requests(rng, 8),
                                         k=5)
        assert all(r.ads.dtype == np.int64 for r in results)

    def test_underflowed_path_score_is_still_a_result(self):
        indices = {Relation.Q2A: _index(Relation.Q2A, [[4, 2]], [[0.1, 1e6]])}
        retriever = TwoLayerRetriever(_StubIndexSet(indices), ads_per_key=2)
        result, = _assert_matches_oracle(retriever, [0], [()], k=5)
        assert result.ads.tolist() == [4, 2]
        assert result.scores[1] == 0.0

    def test_batch_of_one(self, rng):
        retriever = TwoLayerRetriever(_random_indices(rng, ALL_RELATIONS))
        _assert_matches_oracle(retriever, [5], [(1, 2)], k=5)

    def test_batch_split_across_row_blocks(self, rng, monkeypatch):
        retriever = TwoLayerRetriever(_random_indices(rng, ALL_RELATIONS),
                                      expansion_k=4, ads_per_key=3)
        queries, preclicks = _stub_requests(rng, 12)
        whole = retriever.retrieve_batch(queries, preclicks, k=5)
        # 25 ads: five rows a block, so 12 requests take three blocks
        monkeypatch.setattr(two_layer, "_GATHER_BLOCK_ELEMENTS", 5 * 25)
        blocked = _assert_matches_oracle(retriever, queries, preclicks, k=5)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a.ads, b.ads)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_result_does_not_depend_on_the_batch(self, retriever, requests,
                                                 monkeypatch):
        """Bit-equal alone, first and last of 32, and across a block edge.

        The contract that makes the engine's result cache exact.
        """
        queries, preclicks = requests
        alone = retriever.retrieve(int(queries[0]), preclicks[0], k=10)
        assert alone.ads.size == 10
        first = retriever.retrieve_batch(queries[:32], preclicks[:32],
                                         k=10)[0]
        order = list(range(1, 32)) + [0]
        last = retriever.retrieve_batch(
            queries[order], [preclicks[i] for i in order], k=10)[31]
        # 31 rows a block: position 31 opens the second block
        monkeypatch.setattr(two_layer, "_GATHER_BLOCK_ELEMENTS",
                            31 * retriever.num_ads)
        edge = retriever.retrieve_batch(
            queries[order], [preclicks[i] for i in order], k=10)[31]
        for other in (first, last, edge):
            np.testing.assert_array_equal(other.ads, alone.ads)
            np.testing.assert_array_equal(other.scores, alone.scores)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           relations=st.sets(st.sampled_from(ALL_RELATIONS)),
           preclicks=st.lists(st.lists(st.one_of(st.integers(0, 2),
                                                 st.integers(0, 39)),
                                       max_size=4), max_size=10),
           keep_original_query=st.booleans(),
           block_rows=st.integers(1, 3), k=st.integers(1, 30))
    @example(seed=0, relations=set(), preclicks=[[1, 1], []],
             keep_original_query=False, block_rows=1, k=5)
    @example(seed=0, relations={Relation.Q2A}, preclicks=[[], [7, 7]],
             keep_original_query=True, block_rows=1, k=5)
    def test_flat_path_against_the_oracle(self, seed, relations, preclicks,
                                          keep_original_query, block_rows,
                                          k):
        """Any subset of the six relations, duplicate and empty
        pre-clicks, the query seed on or off: ranked ads and expansions
        as the per-request oracle has them, and every row bit-equal
        alone, in the batch and in blocks of ``block_rows`` rows."""
        rng = np.random.default_rng(seed)
        retriever = TwoLayerRetriever(
            _random_indices(rng, sorted(relations, key=ALL_RELATIONS.index)),
            expansion_k=4, ads_per_key=3)
        retriever.keep_original_query = keep_original_query
        queries = rng.integers(30, size=len(preclicks))
        batch = _assert_matches_oracle(retriever, queries, preclicks, k)
        with mock.patch.object(two_layer, "_GATHER_BLOCK_ELEMENTS",
                               block_rows * max(retriever.num_ads, 1)):
            blocked = retriever.retrieve_batch(queries, preclicks, k=k)
        for query, items, whole, split in zip(queries, preclicks, batch,
                                              blocked):
            alone = retriever.retrieve(int(query), items, k=k)
            for result in (whole, split):
                np.testing.assert_array_equal(result.ads, alone.ads)
                np.testing.assert_array_equal(result.scores, alone.scores)
                assert result.num_keys == alone.num_keys

        expansions = retriever.expand_keys_batch(queries, preclicks)
        assert len(expansions) == len(queries)
        for query, items, expansion in zip(queries, preclicks, expansions):
            want_queries, want_items = expand_keys_looped(
                retriever, int(query), items)
            for keys, scores, want in (
                    (expansion.query_keys, expansion.query_scores,
                     want_queries),
                    (expansion.item_keys, expansion.item_scores, want_items)):
                assert keys.tolist() == sorted(want)
                np.testing.assert_allclose(
                    scores, [want[key] for key in sorted(want)], rtol=1e-12)
            assert expansion.num_keys == len(want_queries) + len(want_items)

    def test_gather_memory_is_bounded_by_the_block_not_the_catalog(self):
        """32 requests over 200k ads: a whole-batch dense array is 51 MB."""
        num_ads, width = 200_000, 4
        rng = np.random.default_rng(0)
        indices = {Relation.Q2A: _index(
            Relation.Q2A, rng.integers(num_ads, size=(32, width)),
            rng.uniform(0.0, 2.0, size=(32, width)))}
        indices[Relation.Q2A].ids[0, 0] = num_ads - 1
        retriever = TwoLayerRetriever(_StubIndexSet(indices),
                                      ads_per_key=width)
        expansions = retriever.expand_keys_batch(np.arange(32), [()] * 32)
        tracemalloc.start()
        try:
            results = retriever.gather_batch(expansions, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.ads.size == 3 for r in results)
        assert peak < 16 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)
