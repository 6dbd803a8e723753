"""Figure 9 — online response time vs queries-per-second.

The paper's serving fleet answers 1k-50k QPS with mean response time
rising smoothly from ~1.2ms to ~2.5ms — a tenfold load increase only
doubles latency, because the two-layer retrieval is pure index lookup
behind a wide worker pool.

Here the per-request service time is *measured* by driving the
micro-batching :class:`ServingEngine` over the real two-layer
retriever (batched index lookups + a cache of finished results, like the
production iGraph path), and an Erlang-C (M/M/c) model maps offered
load to waiting time for a serving fleet sized to saturate just above
the sweep range — the same shape-generating mechanism as the
production system.
"""

import numpy as np
import pytest

from repro.bench import scaled_steps, write_report
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import ServingEngine, ServingSimulator
from repro.training import Trainer, TrainerConfig

QPS_SWEEP = (1000, 2000, 3000, 4000, 5000, 10000, 20000, 30000, 40000, 50000)


def test_fig09_qps_latency(benchmark, bench_data):
    def run():
        model = make_model("amcad", bench_data.train_graph, num_subspaces=2,
                           subspace_dim=4, seed=1)
        Trainer(model, TrainerConfig(steps=scaled_steps(60), batch_size=64,
                                     seed=1)).train()
        index_set = IndexSet(model, top_k=50).build()
        retriever = TwoLayerRetriever(index_set, expansion_k=10,
                                      ads_per_key=10)

        rng = np.random.default_rng(0)
        queries = rng.integers(bench_data.train_graph.num_nodes[
            list(bench_data.train_graph.num_nodes)[0]], size=120)
        preclicks = [list(rng.integers(100, size=2)) for _ in queries]

        # size the fleet so the sweep's top load reaches ~80% utilisation,
        # mirroring the paper's production margin
        engine = ServingEngine(retriever, max_batch_size=16, cache_size=256)
        sim = ServingSimulator(retriever, num_workers=1)
        service = sim.measure_batched_service_time(engine, queries,
                                                   preclicks)
        workers = sim.size_fleet(max(QPS_SWEEP), target_utilisation=0.8)

        stats = sim.sweep(QPS_SWEEP)
        lines = ["batched service time: %.3f ms/request, fleet: %d workers"
                 % (1000 * service, workers),
                 "engine: %d requests in %d micro-batches, "
                 "result-cache hit rate %.0f%%"
                 % (engine.stats.requests, engine.stats.batches,
                    100 * engine.stats.cache_hit_rate),
                 "%-10s %16s %12s" % ("QPS", "response (ms)", "utilisation")]
        for s in stats:
            lines.append("%-10d %16.3f %12.2f" % (s.qps, s.response_time_ms,
                                                  s.utilisation))

        times = [s.response_time_ms for s in stats]
        # paper shape: monotone growth, and a 10x QPS increase (5k -> 50k)
        # should less-than-quadruple the response time
        assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))
        i5k, i50k = QPS_SWEEP.index(5000), QPS_SWEEP.index(50000)
        assert times[i50k] / times[i5k] < 4.0, (
            "latency must grow slowly with QPS (got %.2fx)"
            % (times[i50k] / times[i5k]))
        lines.append("")
        lines.append("paper (Fig. 9): ~1.2ms at 1k QPS to ~2.5ms at 50k QPS "
                     "(10x load -> ~2x latency)")
        write_report("fig09_qps_latency.txt",
                     "Fig 9 - response time vs QPS", lines)
        return stats

    benchmark.pedantic(run, rounds=1, iterations=1)
