"""Tests for the serving subsystem: engine, result cache, queue model."""

import math

import numpy as np
import pytest

from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever, two_layer
from repro.retrieval.index import InvertedIndex
from repro.serving import (
    EngineStats,
    LRUCache,
    ServingEngine,
    ServingSimulator,
    erlang_b,
    erlang_c_wait,
    percentiles,
)
from repro.training import Trainer, TrainerConfig

from reference.lru import LRUCache as PlainLRU


@pytest.fixture(scope="module")
def retriever(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=17)
    Trainer(model, TrainerConfig(steps=15, batch_size=32, seed=17)).train()
    return TwoLayerRetriever(IndexSet(model, top_k=15).build(),
                             expansion_k=4, ads_per_key=4)


@pytest.fixture
def traffic(rng):
    queries = rng.integers(100, size=20)
    preclicks = [list(rng.integers(40, size=2)) for _ in queries]
    return queries, preclicks


def _replay(cache, keys, passes: int = 1) -> int:
    """The engine's order per request: look up, put on a miss; misses."""
    misses = 0
    for _ in range(passes):
        for key in keys:
            if cache.get(key) is None:
                misses += 1
                cache.put(key, key)
    return misses


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh a
        cache.get("c")            # the engine looks up before it puts
        cache.put("c", 3)         # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-3)
        with pytest.raises(ValueError, match="capacity"):
            ServingEngine(None, cache_size=-1)

    def test_newcomer_no_more_frequent_than_victim_not_admitted(self):
        cache = LRUCache(2)
        for key in "ab":
            cache.get(key)
            cache.put(key, key)
        cache.get("c")            # c is looked up as often as a and b
        cache.put("c", "c")
        assert cache.get("c") is None
        assert cache.get("a") == "a" and cache.get("b") == "b"
        cache.get("c")            # now more often than the victim
        cache.put("c", "c")
        assert cache.get("c") == "c" and len(cache) == 2

    def test_refresh_of_a_cached_key_is_not_gated(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2

    def test_hot_set_survives_a_cold_scan(self):
        capacity = 16
        cache = LRUCache(capacity)
        hot = ["hot%d" % i for i in range(capacity)]
        _replay(cache, hot, passes=4)
        _replay(cache, ["cold%d" % i
                        for i in range(LRUCache.AGING_PERIOD * capacity)])
        assert all(cache.get(key) == key for key in hot)

    def test_counter_is_bounded(self):
        capacity = 8
        cache = LRUCache(capacity)
        most = 0
        for i in range(100 * capacity):
            if cache.get(i) is None:
                cache.put(i, i)
            most = max(most, len(cache._counts))
        assert most <= LRUCache.AGING_PERIOD * capacity
        assert len(cache) == capacity

    def test_clear_resets_counts(self):
        capacity = 4
        cache = LRUCache(capacity)
        _replay(cache, range(capacity), passes=3)
        cache.clear()
        assert len(cache) == 0 and cache._counts == {}
        fresh = range(capacity, 2 * capacity)
        assert _replay(cache, fresh) == capacity
        assert all(cache.get(key) == key for key in fresh)
        # the old keys' counts are gone: a comeback is not admitted over
        # an entry looked up as often as it
        cache.get(0)
        cache.put(0, 0)
        assert cache.get(0) is None

    def test_zero_capacity_counts_nothing(self):
        cache = LRUCache(0)
        for key in range(50):
            assert cache.get(key) is None
            cache.put(key, key)
        assert cache._counts == {} and len(cache) == 0


def _zipf_ranks(seed: int, draws: int, ranks: int,
                exponent: float = 1.1) -> list:
    weights = np.arange(1, ranks + 1, dtype=np.float64) ** -exponent
    return np.random.default_rng(seed).choice(
        ranks, size=draws, p=weights / weights.sum()).tolist()


class TestAdmissionAgainstPlainLRU:
    """Admission must miss strictly less than the plain LRU it replaced
    (``tests/reference/lru.py``) on Zipf(1.1) streams."""

    @pytest.mark.parametrize("capacity", [256, 512, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_misses_on_a_zipf_stream(self, seed, capacity):
        stream = _zipf_ranks(seed, draws=6000, ranks=4000)
        assert _replay(LRUCache(capacity), stream, passes=5) \
            < _replay(PlainLRU(capacity), stream, passes=5)

    def test_engine_serves_the_same_answers_with_fewer_misses(self,
                                                              retriever):
        """A cache smaller than the stream's distinct signatures."""
        ranks = _zipf_ranks(5, draws=600, ranks=400)
        queries = [rank % 220 for rank in ranks]
        preclicks = [() if rank < 220 else (rank - 220,) for rank in ranks]
        assert len(set(zip(queries, preclicks))) > 64

        def serve(engine):
            return [result for _ in range(3)
                    for result in engine.serve(queries, preclicks, k=8)]

        uncached = serve(ServingEngine(retriever, max_batch_size=16,
                                       cache_size=0))
        engine = ServingEngine(retriever, max_batch_size=16, cache_size=64)
        oracle = ServingEngine(retriever, max_batch_size=16)
        oracle.cache = PlainLRU(64)
        served = serve(engine)
        serve(oracle)
        for got, want in zip(served, uncached):
            np.testing.assert_array_equal(got.ads, want.ads)
            np.testing.assert_array_equal(got.scores, want.scores)
        assert len(served) == len(uncached)
        assert engine.stats.cache_misses < oracle.stats.cache_misses


class TestServingEngine:
    def test_results_match_direct_batch(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=6)
        served = engine.serve(queries, preclicks, k=8)
        direct = retriever.retrieve_batch(queries, preclicks, k=8)
        assert len(served) == len(direct)
        for a, b in zip(served, direct):
            assert np.array_equal(a.ads, b.ads)
            assert np.allclose(a.scores, b.scores)

    @pytest.mark.parametrize("key,value", [
        ("max_batch_size", 0), ("num_workers", -2), ("num_shards", 0),
        ("slice_retries", -5)])
    def test_rejects_out_of_range_sizes(self, retriever, key, value):
        # the same values ServingConfig rejects; they used to be coerced
        with pytest.raises(ValueError, match=key):
            ServingEngine(retriever, **{key: value})

    def test_micro_batch_accounting(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8)
        engine.serve(queries, preclicks)
        assert engine.stats.requests == 20
        assert engine.stats.batches == 3
        assert engine.stats.batch_sizes == [8, 8, 4]
        assert engine.stats.mean_batch_size == pytest.approx(20 / 3)

    def test_cache_hits_on_repeat_traffic(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8, cache_size=64)
        cold = engine.serve(queries, preclicks, k=6)
        assert engine.stats.cache_misses == 20
        warm = engine.serve(queries, preclicks, k=6)
        assert engine.stats.cache_hits == 20
        assert engine.stats.cache_hit_rate == pytest.approx(0.5)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.ads, b.ads)
            assert np.allclose(a.scores, b.scores)

    def test_cache_disabled(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8, cache_size=0)
        engine.serve(queries, preclicks)
        engine.serve(queries, preclicks)
        assert engine.stats.cache_hits == 0

    def test_per_worker_timing(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=4, num_workers=3)
        engine.serve(queries, preclicks)
        assert len(engine.stats.worker_busy_seconds) == 3
        assert all(t > 0 for t in engine.stats.worker_busy_seconds)
        assert engine.stats.service_seconds > 0

    def test_length_mismatch_raises(self, retriever):
        engine = ServingEngine(retriever)
        with pytest.raises(ValueError):
            engine.serve([0, 1], [[2]])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_before_any_slice(self, retriever, traffic,
                                                   k):
        """A non-positive ``k`` used to serve empty ads and cache them;
        it is rejected by name before a slice's retries could turn the
        error into degraded results."""
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=4, num_shards=2,
                               slice_retries=1)
        with pytest.raises(ValueError, match=r"k \(ads per request\)"):
            engine.serve(queries[:4], preclicks[:4], k=k)
        with pytest.raises(ValueError, match=r"k \(ads per request\)"):
            engine.serve_batch(queries[:4], preclicks[:4], k=k)
        assert engine.stats.requests == 0
        assert engine.stats.slice_errors == 0
        assert len(engine.cache) == 0


class _WithLayerTwo:
    """``retriever`` with its layer 2 replaced (the fixture is shared)."""

    def __init__(self, retriever, gather_batch):
        self.expand_keys_batch = retriever.expand_keys_batch
        self.gather_batch = gather_batch


class TestResultCache:
    """What the engine keeps is the finished result, and only that."""

    def test_hit_is_bit_equal_to_serving_alone(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=20, cache_size=64)
        engine.serve(queries, preclicks, k=8)
        hits = engine.serve(queries, preclicks, k=8)
        assert engine.stats.cache_hits == 20
        for query, items, hit in zip(queries, preclicks, hits):
            alone = retriever.retrieve(int(query), items, k=8)
            np.testing.assert_array_equal(hit.ads, alone.ads)
            np.testing.assert_array_equal(hit.scores, alone.scores)
            assert hit.num_keys == alone.num_keys

    def test_served_results_are_read_only(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, cache_size=64)
        for result in engine.serve(queries, preclicks) \
                + engine.serve(queries, preclicks):
            with pytest.raises(ValueError, match="read-only"):
                result.ads[0] = -1
            with pytest.raises(ValueError, match="read-only"):
                result.scores[0] = 0.0

    def test_k_is_part_of_the_key(self, retriever):
        engine = ServingEngine(retriever, cache_size=64)
        assert engine.serve([3], [[1, 2]], k=5)[0].ads.size == 5
        assert engine.serve([3], [[1, 2]], k=12)[0].ads.size == 12
        assert engine.stats.cache_hits == 0

    def test_failed_attempt_caches_nothing(self, retriever, traffic):
        """Raise after layer 1 succeeded: the retry must start cold."""
        queries, preclicks = traffic
        cached_at_failure = []

        def gather_once_broken(expansions, k=20):
            if not cached_at_failure:
                cached_at_failure.append(len(engine.cache))
                raise RuntimeError("shard lost")
            return retriever.gather_batch(expansions, k=k)

        engine = ServingEngine(_WithLayerTwo(retriever, gather_once_broken),
                               cache_size=64, slice_retries=1)
        results = engine.serve(queries[:8], preclicks[:8], k=6)
        assert cached_at_failure == [0]
        assert engine.stats.slice_errors == 1
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 16      # both attempts missed
        assert all(r.ads.size == 6 for r in results)

    def test_degraded_slice_caches_nothing(self, retriever, traffic):
        queries, preclicks = traffic
        broken = _WithLayerTwo(retriever, lambda expansions, k=20: 1 / 0)
        engine = ServingEngine(broken, cache_size=64, slice_retries=1)
        degraded = engine.serve(queries[:8], preclicks[:8], k=6)
        assert engine.stats.degraded_requests == 8
        assert all(r.ads.size == 0 for r in degraded)
        assert len(engine.cache) == 0
        broken.gather_batch = retriever.gather_batch
        healthy = engine.serve(queries[:8], preclicks[:8], k=6)
        assert engine.stats.cache_hits == 0
        assert all(r.ads.size == 6 for r in healthy)

    def test_straggler_after_swap_is_never_hit(self, retriever, traffic):
        """A batch in flight across a swap writes under the old
        generation; the new generation must not be served from it."""
        queries, preclicks = traffic
        replacement = TwoLayerRetriever(retriever.indices, expansion_k=2,
                                        ads_per_key=2)

        def swap_then_gather(expansions, k=20):
            engine.swap_retriever(replacement, generation=9)
            return retriever.gather_batch(expansions, k=k)

        engine = ServingEngine(_WithLayerTwo(retriever, swap_then_gather),
                               cache_size=64)
        in_flight = engine.serve(queries[:4], preclicks[:4], k=6)
        assert len(engine.cache) == 4               # written after the clear
        after = engine.serve(queries[:4], preclicks[:4], k=6)
        assert engine.stats.cache_hits == 0
        for query, items, old, new in zip(queries, preclicks, in_flight,
                                          after):
            want_old = retriever.retrieve(int(query), items, k=6)
            want_new = replacement.retrieve(int(query), items, k=6)
            np.testing.assert_array_equal(old.ads, want_old.ads)
            np.testing.assert_array_equal(new.ads, want_new.ads)
            np.testing.assert_array_equal(new.scores, want_new.scores)


class TestServingCallCounts:
    """Host-independent gate on what one micro-batch may call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"expand_rows": [], "gather_rows": [], "lookups": 0}
        expand = TwoLayerRetriever.expand_keys_batch
        gather = TwoLayerRetriever.gather_batch
        lookup = InvertedIndex.lookup_batch

        def counted_expand(self, queries, preclicks):
            counts["expand_rows"].append(len(queries))
            return expand(self, queries, preclicks)

        def counted_gather(self, expansions, k=20):
            counts["gather_rows"].append(len(expansions))
            return gather(self, expansions, k=k)

        def counted_lookup(self, keys, k=None):
            counts["lookups"] += 1
            return lookup(self, keys, k)

        monkeypatch.setattr(TwoLayerRetriever, "expand_keys_batch",
                            counted_expand)
        monkeypatch.setattr(TwoLayerRetriever, "gather_batch", counted_gather)
        monkeypatch.setattr(InvertedIndex, "lookup_batch", counted_lookup)
        return counts

    def test_misses_go_through_once_and_hits_not_at_all(self, retriever,
                                                        traffic, calls):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=32, cache_size=64)
        engine.serve_batch(queries[:15], preclicks[:15], k=6)
        # one gather per table: query expansions, item expansions, ads
        assert calls == {"expand_rows": [15], "gather_rows": [15],
                         "lookups": 3}
        # 15 hits and 5 misses in one batch
        engine.serve_batch(queries, preclicks, k=6)
        assert engine.stats.cache_hits == 15
        assert calls["expand_rows"] == [15, 5]
        assert calls["gather_rows"] == [15, 5]
        assert calls["lookups"] <= 6
        # all hits: the retriever is not called
        before = dict(calls, expand_rows=list(calls["expand_rows"]),
                      gather_rows=list(calls["gather_rows"]))
        engine.serve_batch(queries, preclicks, k=6)
        assert engine.stats.cache_hits == 35
        assert calls == before

    def test_no_link_function_on_the_request_path(self, retriever, traffic,
                                                  monkeypatch):
        """Distances become scores once, in the constructor."""
        queries, preclicks = traffic

        def unreachable(*args, **kwargs):
            raise AssertionError("_fermi evaluated while serving")

        monkeypatch.setattr(two_layer, "_fermi", unreachable)
        engine = ServingEngine(retriever, cache_size=0)
        results = engine.serve(queries, preclicks, k=6)
        assert engine.stats.slice_errors == 0
        assert all(r.ads.size == 6 for r in results)

    def test_no_unique_or_scatter_max_on_the_request_path(
            self, retriever, traffic, monkeypatch):
        """Layer 1 merges keys with one sort and a ``reduceat``."""
        queries, preclicks = traffic
        maximum = np.maximum

        class NoScatter:
            def __call__(self, *args, **kwargs):
                return maximum(*args, **kwargs)

            def __getattr__(self, name):
                if name == "at":
                    raise AssertionError("np.maximum.at called while serving")
                return getattr(maximum, name)

        def unreachable(*args, **kwargs):
            raise AssertionError("np.unique called while serving")

        monkeypatch.setattr(np, "unique", unreachable)
        monkeypatch.setattr(np, "maximum", NoScatter())
        engine = ServingEngine(retriever, cache_size=0)
        results = engine.serve(queries, preclicks, k=6)
        assert engine.stats.slice_errors == 0
        assert all(r.ads.size == 6 for r in results)


class TestShardParallelServing:
    def test_sharded_results_match_unsharded(self, retriever, traffic):
        queries, preclicks = traffic
        plain = ServingEngine(retriever, max_batch_size=8)
        sharded = ServingEngine(retriever, max_batch_size=8, num_shards=3)
        a = plain.serve(queries, preclicks, k=6)
        b = sharded.serve(queries, preclicks, k=6)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.ads, y.ads)
            assert np.allclose(x.scores, y.scores)

    def test_retired_shard_parallelism_accepted_and_dropped(self, retriever,
                                                            traffic):
        queries, preclicks = traffic
        plain = ServingEngine(retriever, max_batch_size=10, num_shards=4)
        with_key = ServingEngine(retriever, max_batch_size=10, num_shards=4,
                                 shard_parallelism=3)
        for x, y in zip(plain.serve(queries, preclicks, k=6),
                        with_key.serve(queries, preclicks, k=6)):
            np.testing.assert_array_equal(x.ads, y.ads)
            np.testing.assert_array_equal(x.scores, y.scores)
        with pytest.raises(ValueError,
                           match=r"engine\.shard_parallelism.*retired"):
            ServingEngine(retriever, shard_parallelism="three")

    def test_stats_accounting_preserved(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8, num_shards=3,
                               num_workers=4)
        engine.serve(queries, preclicks)
        stats = engine.stats
        assert stats.requests == 20
        assert stats.batches == 3                 # 8 + 8 + 4
        assert stats.batch_sizes == [8, 8, 4]
        # one wall-latency sample per micro-batch, each the max of its
        # shard slices, so it cannot exceed the total busy time
        assert len(stats.batch_wall_seconds) == 3
        assert min(stats.batch_wall_seconds) > 0
        assert sum(stats.batch_wall_seconds) <= \
            stats.total_busy_seconds + 1e-9
        assert stats.service_seconds > 0

    def test_cache_shared_across_shards(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=20, num_shards=4,
                               cache_size=64)
        engine.serve(queries, preclicks, k=6)
        assert engine.stats.cache_misses == 20
        engine.serve(queries, preclicks, k=6)
        assert engine.stats.cache_hits == 20

    def test_shards_capped_by_batch_size(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=2, num_shards=50)
        results = engine.serve(queries[:3], preclicks[:3], k=5)
        assert len(results) == 3
        assert engine.stats.requests == 3


class TestIdleStats:
    def test_idle_engine_rates_are_zero(self):
        """An engine that served nothing reports 0.0, not ZeroDivision."""
        stats = EngineStats()
        assert stats.service_seconds == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.cache_hit_rate == 0.0
        assert stats.latency_percentiles() == {"p50": 0.0, "p95": 0.0,
                                               "p99": 0.0}

    def test_fresh_engine_stats_are_idle(self, retriever):
        engine = ServingEngine(retriever)
        assert engine.stats.service_seconds == 0.0
        assert engine.stats.cache_hit_rate == 0.0


class TestPercentiles:
    def test_empty_is_all_zero(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_known_values(self):
        result = percentiles([float(v) for v in range(1, 101)])
        assert result["p50"] == pytest.approx(50.5)
        assert result["p50"] <= result["p95"] <= result["p99"] <= 100.0


class TestRequestLatency:
    def test_serve_records_per_request_wall(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8)
        engine.serve(queries, preclicks)
        assert len(engine.stats.request_wall_seconds) == 20
        assert all(t > 0 for t in engine.stats.request_wall_seconds)
        pcts = engine.stats.latency_percentiles()
        assert 0 < pcts["p50"] <= pcts["p95"] <= pcts["p99"]

    def test_serve_batch_returns_measured_wall(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8)
        results, wall = engine.serve_batch(queries[:5], preclicks[:5], k=6)
        assert wall > 0
        assert wall == engine.stats.batch_wall_seconds[-1]
        direct = retriever.retrieve_batch(queries[:5], preclicks[:5], k=6)
        for a, b in zip(results, direct):
            assert np.array_equal(a.ads, b.ads)

    def test_serve_batch_length_mismatch_raises(self, retriever):
        engine = ServingEngine(retriever)
        with pytest.raises(ValueError):
            engine.serve_batch([0, 1], [[2]])


def _erlang_c_wait_factorial(arrival_rate, service_rate, servers):
    """The textbook formula the stable recursion must reproduce."""
    if arrival_rate <= 0:
        return 0.0
    utilisation = arrival_rate / (servers * service_rate)
    if utilisation >= 1.0:
        return float("inf")
    offered = arrival_rate / service_rate
    summation = sum(offered ** n / math.factorial(n) for n in range(servers))
    tail = offered ** servers / (math.factorial(servers)
                                 * (1.0 - utilisation))
    p_wait = tail / (summation + tail)
    return p_wait / (servers * service_rate - arrival_rate)


class TestErlang:
    def test_matches_factorial_formula_small_fleets(self):
        for servers in (1, 2, 4, 8, 16):
            for load in (0.2, 0.5, 0.9):
                lam = load * servers * 10.0
                assert erlang_c_wait(lam, 10.0, servers) == pytest.approx(
                    _erlang_c_wait_factorial(lam, 10.0, servers), rel=1e-10)

    def test_large_fleet_is_finite(self):
        # the factorial formula overflows beyond ~170 servers
        wait = erlang_c_wait(900.0, 1.0, 1000)
        assert 0.0 < wait < float("inf")

    def test_zero_load(self):
        assert erlang_c_wait(0.0, 10.0, 1000) == 0.0

    def test_unstable_is_infinite(self):
        assert erlang_c_wait(1001.0, 1.0, 1000) == float("inf")

    def test_wait_grows_with_load(self):
        waits = [erlang_c_wait(lam, 1.0, 1000) for lam in (500, 800, 990)]
        assert waits[0] < waits[1] < waits[2]

    def test_erlang_b_in_unit_interval(self):
        # tiny offered loads legitimately underflow to 0.0 blocking
        for offered in (0.5, 10.0, 500.0):
            for servers in (1, 100, 1000):
                assert 0.0 <= erlang_b(offered, servers) <= 1.0
        assert erlang_b(900.0, 1000) > 0.0


class TestSimulatorWithEngine:
    def test_batched_measurement_feeds_sweep(self, retriever, traffic):
        queries, preclicks = traffic
        engine = ServingEngine(retriever, max_batch_size=8, cache_size=64)
        sim = ServingSimulator(retriever, num_workers=16)
        service = sim.measure_batched_service_time(engine, queries,
                                                   preclicks)
        assert service > 0
        assert sim.service_seconds == service
        stats = sim.sweep([10, 100, 1000])
        times = [s.response_time_ms for s in stats]
        assert times[0] <= times[1] <= times[2]

    def test_injected_service_time_needs_no_retriever(self):
        sim = ServingSimulator(num_workers=1000, service_seconds=0.001)
        stats = sim.sweep([900000, 990000])   # 90% and 99% utilisation
        assert stats[0].response_time_ms < stats[1].response_time_ms
        assert sim.saturation_qps() == pytest.approx(1000 / 0.001)

    def test_measure_without_retriever_raises(self):
        sim = ServingSimulator()
        with pytest.raises(RuntimeError):
            sim.measure_service_time([0], [[1]])
