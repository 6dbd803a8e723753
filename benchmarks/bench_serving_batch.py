"""Micro-batched serving throughput with the result cache off, natural and full.

``serve_zipf`` in ``benchmarks/e2e`` measures the engine at its
stream's natural hit ratio (~0.95), where nineteen requests in twenty
never reach the retriever, so it cannot say what a *miss* costs.  This bench
replays one seeded Zipf stream over the default synthetic universe, in
32-request batches through ``ServingEngine.serve_batch``, at three
cache states, plus one leg of single-request batches:

- **cache_off**  — ``cache_size=0``: every request runs both retrieval
  layers (the miss path on its own);
- **natural**    — the default 1024-entry result cache (an LRU behind
  a frequency-counted admission gate), warmed by one pass, at whatever
  hit ratio the stream gives it (reported; it keeps rising a little
  over the passes as the counts of the head grow);
- **all_hits**   — a cache that holds every distinct signature of the
  stream, warmed by one pass (it never fills past them, so admission
  never refuses one): the engine's fixed cost per request;
- **lone_miss**  — cache off, batches of one: what a request that finds
  a worker idle pays (the paced phase's p99 request).

Each figure is the median over ``PASSES`` whole passes of the stream,
in requests per second.  Gate: every leg serves every request of the
stream the same ads and scores, bit for bit.  Run directly
(``PYTHONPATH=src python benchmarks/bench_serving_batch.py [--scale X]
[--out PATH]``); results land in ``BENCH_serving_batch.json`` at the
repo root with the host fingerprint attached.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Tuple

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import ServingEngine, TrafficGenerator
from repro.training import Trainer, TrainerConfig

SEED = 1
TOP_K = 20
MAX_BATCH = 32
STREAM_QPS = 6000.0
STREAM_SECONDS = 1.0
TRAIN_STEPS = 20
NATURAL_CACHE = 1024            # the ``serving.cache_size`` default
PASSES = 7


def _one_pass(engine, batches) -> Tuple[float, list]:
    """The stream once: ``(wall seconds, every request's result)``."""
    served: list = []
    start = time.perf_counter()
    for queries, preclicks in batches:
        served.extend(engine.serve_batch(queries, preclicks, k=TOP_K)[0])
    return time.perf_counter() - start, served


def _measure(retriever, batches, num_requests: int,
             cache_size: int) -> Tuple[dict, list]:
    """Median req/s over ``PASSES`` passes, after one warming pass, and
    the results the last pass served."""
    engine = ServingEngine(retriever, max_batch_size=MAX_BATCH,
                           cache_size=cache_size)
    _one_pass(engine, batches)
    hits, misses = engine.stats.cache_hits, engine.stats.cache_misses
    rates = []
    for _ in range(PASSES):
        wall, served = _one_pass(engine, batches)
        rates.append(num_requests / wall)
    hits = engine.stats.cache_hits - hits
    misses = engine.stats.cache_misses - misses
    return {"cache_size": cache_size,
            "requests_per_second": statistics.median(rates),
            "min": min(rates), "max": max(rates),
            "hit_ratio": hits / (hits + misses)}, served


def main(argv=None) -> int:
    parser = bench_parser(
        "serving_batch",
        "Engine throughput on a Zipf stream: cache off / natural / all hits")
    args = parser.parse_args(argv)

    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=SEED))
    logs = simulator.simulate_days(1)
    model = make_model("amcad", build_graph(simulator.universe, logs),
                       num_subspaces=2, subspace_dim=4, seed=SEED)
    Trainer(model, TrainerConfig(batch_size=64, num_negatives=6, seed=SEED)
            ).train(max(2, int(TRAIN_STEPS * args.scale)))
    retriever = TwoLayerRetriever(IndexSet(model, top_k=50).build(),
                                  expansion_k=10, ads_per_key=10)

    traffic = TrafficGenerator(logs, zipf_exponent=1.1, max_preclicks=2,
                               process="poisson", seed=SEED)
    requests = traffic.generate(STREAM_QPS, STREAM_SECONDS * args.scale)
    batches = [(np.array([r.query for r in chunk], dtype=np.int64),
                [r.preclicks for r in chunk])
               for chunk in (requests[i:i + MAX_BATCH]
                             for i in range(0, len(requests), MAX_BATCH))]
    lone = [(queries[i:i + 1], preclicks[i:i + 1])
            for queries, preclicks in batches for i in range(len(queries))]
    signatures = len({(r.query, r.preclicks) for r in requests})

    measured = {
        "cache_off": _measure(retriever, batches, len(requests), 0),
        "natural": _measure(retriever, batches, len(requests),
                            NATURAL_CACHE),
        "all_hits": _measure(retriever, batches, len(requests),
                             signatures),
        "lone_miss": _measure(retriever, lone, len(requests), 0),
    }
    legs = {name: leg for name, (leg, _) in measured.items()}
    reference = measured["cache_off"][1]
    identical = all(
        len(served) == len(reference)
        and all(np.array_equal(a.ads, b.ads)
                and np.array_equal(a.scores, b.scores)
                for a, b in zip(served, reference))
        for _, served in measured.values())
    write_json_out(args.out, {
        "scale": args.scale,
        "k": TOP_K,
        "max_batch": MAX_BATCH,
        "passes": PASSES,
        "stream_requests": len(requests),
        "unique_signatures": signatures,
        "legs": legs,
        "bit_identical_across_legs": identical,
    })

    print("%d requests (%d distinct), %d-request batches, top-%d, median "
          "of %d passes" % (len(requests), signatures, MAX_BATCH, TOP_K,
                            PASSES))
    for name, leg in legs.items():
        print("%-10s cache %5d  hit ratio %.3f  %9.0f req/s  (%.0f - %.0f)"
              % (name, leg["cache_size"], leg["hit_ratio"],
                 leg["requests_per_second"], leg["min"], leg["max"]))

    if legs["cache_off"]["hit_ratio"] != 0.0 \
            or legs["lone_miss"]["hit_ratio"] != 0.0 \
            or legs["all_hits"]["hit_ratio"] != 1.0:
        print("FAIL: the cache_off / lone_miss / all_hits legs are not "
              "what they say")
        return 1
    if not identical:
        print("FAIL: the legs served different ads or scores")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
