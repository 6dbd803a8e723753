"""Batched serving throughput.

The deployed system never serves one request at a time: lookups are
batched inside the engine, which is where most of its tens-of-thousands
QPS headroom comes from.  This bench records the reproduction's
analogue on a 64-request stream over the default synthetic universe:

- **batched**  — the vectorised ``retrieve_batch`` over the 64 requests
  in one call;
- **engine**   — the micro-batching ``ServingEngine`` with a warm LRU
  expansion cache (the repeat-traffic upper bound).

Emits both a text report and a JSON result
(``benchmarks/results/serving_batch.json``), absolute figures only.
"""

import time

import numpy as np
import pytest

from repro.bench import scaled_steps, write_json_report, write_report
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import ServingEngine
from repro.training import Trainer, TrainerConfig

NUM_REQUESTS = 64
TOP_K = 20


def test_batched_serving_throughput(benchmark, bench_data):
    def run():
        model = make_model("amcad", bench_data.train_graph, num_subspaces=2,
                           subspace_dim=4, seed=1)
        Trainer(model, TrainerConfig(steps=scaled_steps(60), batch_size=64,
                                     seed=1)).train()
        index_set = IndexSet(model, top_k=50).build()
        retriever = TwoLayerRetriever(index_set, expansion_k=10,
                                      ads_per_key=10)

        rng = np.random.default_rng(0)
        num_queries = bench_data.train_graph.num_nodes[
            list(bench_data.train_graph.num_nodes)[0]]
        queries = rng.integers(num_queries, size=NUM_REQUESTS)
        preclicks = [list(rng.integers(100, size=2)) for _ in queries]

        # warm once (first-touch allocations out of the timing)
        retriever.retrieve_batch(queries, preclicks, k=TOP_K)

        start = time.perf_counter()
        retriever.retrieve_batch(queries, preclicks, k=TOP_K)
        batched_seconds = time.perf_counter() - start

        engine = ServingEngine(retriever, max_batch_size=16, cache_size=256)
        engine.serve(queries, preclicks, k=TOP_K)     # cold pass fills cache
        start = time.perf_counter()
        engine.serve(queries, preclicks, k=TOP_K)     # warm repeat traffic
        engine_seconds = time.perf_counter() - start

        rps = {
            "batched": NUM_REQUESTS / batched_seconds,
            "engine_warm_cache": NUM_REQUESTS / engine_seconds,
        }

        lines = [
            "%d requests, top-%d, default synthetic universe"
            % (NUM_REQUESTS, TOP_K),
            "vectorised batch:        %8.1f req/s (%.2f ms/req)"
            % (rps["batched"], 1000 * batched_seconds / NUM_REQUESTS),
            "engine, warm LRU cache:  %8.1f req/s (%.2f ms/req)"
            % (rps["engine_warm_cache"], 1000 * engine_seconds / NUM_REQUESTS),
            "engine cache hit rate: %.0f%%"
            % (100 * engine.stats.cache_hit_rate),
        ]
        write_report("serving_batch.txt",
                     "Batched serving throughput", lines)
        write_json_report("serving_batch.json", {
            "num_requests": NUM_REQUESTS,
            "k": TOP_K,
            "batched_seconds": batched_seconds,
            "engine_warm_seconds": engine_seconds,
            "requests_per_second": rps,
            "engine_cache_hit_rate": engine.stats.cache_hit_rate,
        })
        return rps

    benchmark.pedantic(run, rounds=1, iterations=1)
