"""Offline inference throughput: full-graph plans and sharded index builds.

The offline half of the system (``AMCAD.encode_all``, index builds)
embeds the whole vocabulary from one full-graph plan.  This bench
records the sharded offline→online plane stage by stage, in absolute
units:

- **encode_all nodes/sec** — one full-graph plan + the encoder's
  compute phase under ``no_grad``, summed over all node types at
  ``gcn_layers=2``;
- **index build + search wall-clock** — ``IndexSet.build`` and repeated
  backend searches through ``"sharded"`` (exact inner) and the
  monolithic ``"exact"`` backend, with a top-k equality check (sharded
  merge semantics are exact by construction).

Run directly (``PYTHONPATH=src python benchmarks/bench_index_build.py
[--scale X] [--out PATH]``); results land in ``BENCH_index_build.json``
at the repo root with the host fingerprint attached.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.graph.schema import NodeType, Relation
from repro.models import make_model
from repro.retrieval import IndexSet

GCN_LAYERS = 2
EMBED_ROUNDS = 3
SEARCH_ROUNDS = 4
SEARCH_BATCH = 64
NUM_SHARDS = 4
TOP_K = 50


def _build_model(graph):
    return make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                      seed=1, gcn_layers=GCN_LAYERS)


def _measure_encode_all(model, rounds):
    """Whole-vocabulary embedding throughput."""
    graph = model.graph
    types = [t for t in NodeType if graph.num_nodes[t] > 0]
    for t in types:   # warm caches/allocators once
        model.encode_all(t)
    start = time.perf_counter()
    for _ in range(rounds):
        for t in types:
            model.encode_all(t)
    seconds = time.perf_counter() - start
    nodes = rounds * sum(graph.num_nodes[t] for t in types)
    return {
        "rounds": rounds,
        "nodes": nodes,
        "seconds": seconds,
        "nodes_per_sec": nodes / seconds,
    }


def _measure_index(model, rounds):
    """Build + search wall-clock, sharded and monolithic exact."""
    relations = [Relation.Q2A, Relation.I2A]
    out = {"relations": [r.value for r in relations],
           "num_shards": NUM_SHARDS, "top_k": TOP_K}
    sets = {}
    for name, spec in (
            ("exact", dict(backend="exact")),
            ("sharded", dict(backend="sharded",
                             backend_kwargs={"num_shards": NUM_SHARDS}))):
        start = time.perf_counter()
        index_set = IndexSet(model, top_k=TOP_K, **spec).build(relations)
        build_seconds = time.perf_counter() - start
        sets[name] = index_set

        rng = np.random.default_rng(5)
        n_src = index_set.spaces[Relation.Q2A].num_sources
        batches = [rng.integers(0, n_src, size=SEARCH_BATCH)
                   for _ in range(rounds)]
        backend = index_set.backends[Relation.Q2A]
        backend.search(batches[0], TOP_K)   # warm
        start = time.perf_counter()
        for batch in batches:
            backend.search(batch, TOP_K)
        search_seconds = time.perf_counter() - start
        out[name] = {
            "build_seconds": build_seconds,
            "search_rounds": rounds,
            "search_batch": SEARCH_BATCH,
            "search_seconds": search_seconds,
            "queries_per_sec": rounds * SEARCH_BATCH / search_seconds,
        }
    out["topk_identical"] = bool(all(
        np.array_equal(sets["exact"][r].ids, sets["sharded"][r].ids)
        for r in relations))
    return out


def main(argv=None) -> int:
    parser = bench_parser(
        "index_build",
        "Full-graph-plan encode_all and sharded index build/search")
    args = parser.parse_args(argv)

    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=3))
    graph = build_graph(simulator.universe, simulator.simulate_days(1))
    model = _build_model(graph)

    embed_rounds = max(1, int(EMBED_ROUNDS * args.scale))
    search_rounds = max(1, int(SEARCH_ROUNDS * args.scale))

    embed_info = _measure_encode_all(model, embed_rounds)
    index_info = _measure_index(model, search_rounds)

    payload = {
        "scale": args.scale,
        "gcn_layers": GCN_LAYERS,
        "graph": graph.stats(),
        "encode_all": embed_info,
        "index": index_info,
    }
    write_json_out(args.out, payload)

    print("encode_all nodes/s %8.0f" % embed_info["nodes_per_sec"])
    print("index build    exact %7.2fs   sharded(%d) %7.2fs"
          % (index_info["exact"]["build_seconds"], NUM_SHARDS,
             index_info["sharded"]["build_seconds"]))
    print("index search   exact %7.3fs   sharded(%d) %7.3fs   "
          "(top-k identical: %s)"
          % (index_info["exact"]["search_seconds"], NUM_SHARDS,
             index_info["sharded"]["search_seconds"],
             index_info["topk_identical"]))

    if not index_info["topk_identical"]:
        print("FAIL: sharded backend top-k differs from exact")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
