"""Fault-tolerance costs: degraded search, hot-swap pause, resume overhead.

Puts numbers on the three prices the fault-tolerant lifecycle pays:

- **degraded sharded search** — a 4-shard backend with one shard dead
  (injected at the ``"shard.search"`` fault site) vs. healthy: p50/p99
  search latency and the recall of the healthy-shard merge against the
  full top-k.  The merge is exact over the surviving shards, so the
  recall floor is just the fraction of true top-k ids living outside
  the dead shard — measured, not assumed;
- **hot-swap pause** — generation swaps applied to a live
  :class:`ServingEngine` between micro-batches: the pointer-flip wall
  time (the only "pause" a request can observe) and proof that a run
  with swaps in the middle serves every request non-degraded;
- **resume overhead** — a checkpointed training run vs. the same run
  without checkpoint writes (one loop, so the comparison is write-cost
  only and both runs train the same model), the one-off save/restore
  walls, and a bit-identical-resume check: losses after restoring a
  mid-run checkpoint must equal the reference run's tail exactly.

Gates (always on): degraded results are never empty and never out of
order; checkpointed and resumed losses match the reference
bit-for-bit.  At
``--scale >= 1`` the degraded search p99 must stay within 2x healthy —
exclusion is *less* work, so a degraded shard must not slow the
fleet down.

Run directly (``PYTHONPATH=src python benchmarks/bench_fault_tolerance.py
[--scale X] [--out PATH]``); CI runs ``--scale 0.25`` as a smoke.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.graph.schema import Relation
from repro.models import make_model
from repro.retrieval import IndexSet, ShardedBackend, TwoLayerRetriever
from repro.retrieval.mnn import RelationSpace
from repro.serving import ServingEngine
from repro.testing import faults
from repro.training import Trainer, TrainerConfig


def _tall_space(num_targets: int, num_sources: int = 64, dim: int = 6,
                seed: int = 0) -> RelationSpace:
    rng = np.random.default_rng(seed)
    scale = 0.3
    return RelationSpace(
        relation=Relation.Q2A,
        src_embeddings=[scale * rng.standard_normal((num_sources, dim)),
                        scale * rng.standard_normal((num_sources, dim))],
        dst_embeddings=[scale * rng.standard_normal((num_targets, dim)),
                        scale * rng.standard_normal((num_targets, dim))],
        src_weights=np.full((num_sources, 2), 0.5),
        dst_weights=np.full((num_targets, 2), 0.5),
        kappas=[-0.5, 0.4],
    )


def _percentiles(samples) -> dict:
    arr = np.asarray(samples, dtype=np.float64)
    return {"p50_ms": 1000.0 * float(np.percentile(arr, 50)),
            "p99_ms": 1000.0 * float(np.percentile(arr, 99))}


def bench_degraded_search(scale: float) -> dict:
    num_targets = max(int(20000 * scale), 2000)
    rounds = max(int(60 * scale), 10)
    k = 20
    space = _tall_space(num_targets)
    backend = ShardedBackend(num_shards=4).build(space)
    rng = np.random.default_rng(1)
    batches = [rng.integers(0, space.num_sources, size=16)
               for _ in range(rounds)]

    def drive() -> tuple:
        walls, results = [], []
        for batch in batches:
            start = time.perf_counter()
            ids, dists = backend.search(batch, k=k)
            walls.append(time.perf_counter() - start)
            results.append((ids, dists))
        return walls, results

    faults.reset()
    healthy_walls, healthy = drive()
    faults.install(faults.FaultSpec(site="shard.search", match={"shard": 2}))
    degraded_walls, degraded = drive()
    faults.reset()

    dead_lo, dead_hi = backend.shard_bounds[2]
    overlaps = []
    for (h_ids, _), (d_ids, d_dists) in zip(healthy, degraded):
        assert d_ids.shape == (16, k) and np.all(d_dists[:, :-1]
                                                 <= d_dists[:, 1:] + 1e-12), \
            "degraded results must stay full-width and ordered"
        assert not np.any((d_ids >= dead_lo) & (d_ids < dead_hi)), \
            "dead shard leaked into the merge"
        for h_row, d_row in zip(h_ids, d_ids):
            overlaps.append(len(set(h_row) & set(d_row)) / k)

    healthy_p = _percentiles(healthy_walls)
    degraded_p = _percentiles(degraded_walls)
    return {
        "num_targets": num_targets,
        "searches": rounds,
        "healthy": {**healthy_p, "degraded_searches": 0},
        "degraded": {**degraded_p,
                     "degraded_searches": backend.degraded_searches,
                     "failed_shard": 2},
        "recall_vs_healthy": float(np.mean(overlaps)),
        "p99_ratio": degraded_p["p99_ms"] / max(healthy_p["p99_ms"], 1e-9),
    }


def _build_serving(scale: float):
    sim = SponsoredSearchSimulator(SimulatorConfig(
        num_queries=220, num_items=320, num_ads=90, num_users=160,
        tree_depth=3, tree_branching=2, seed=11))
    logs = sim.simulate_days(1)
    graph = build_graph(sim.universe, logs)
    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                       seed=0)
    Trainer(model, TrainerConfig(steps=max(int(20 * scale), 5),
                                 batch_size=32, seed=0)).train()
    index_set = IndexSet(model, top_k=10).build()
    return graph, index_set


def bench_hot_swap(scale: float, index_set) -> dict:
    retriever = TwoLayerRetriever(index_set, expansion_k=5, ads_per_key=5)
    engine = ServingEngine(retriever, max_batch_size=16, num_shards=2)
    rng = np.random.default_rng(7)
    num_queries = index_set.spaces[Relation.Q2A].num_sources
    rounds = max(int(40 * scale), 8)
    swap_every = max(rounds // 4, 2)
    swap_walls = []
    served = 0
    for index in range(rounds):
        if index and index % swap_every == 0:
            replacement = TwoLayerRetriever(index_set, expansion_k=5,
                                            ads_per_key=5)
            start = time.perf_counter()
            engine.swap_retriever(replacement)
            swap_walls.append(time.perf_counter() - start)
        queries = rng.integers(0, num_queries, size=16)
        results = engine.serve(queries, k=10)
        served += len(results)
        assert all(result.ads.size > 0 for result in results), \
            "hot swap dropped or degraded an in-flight request"
    return {
        "requests_served": served,
        "swaps": engine.stats.swaps,
        "swap_pause_ms": {
            "mean": 1000.0 * float(np.mean(swap_walls)),
            "max": 1000.0 * float(np.max(swap_walls)),
        },
        "request_wall": _percentiles(engine.stats.request_wall_seconds),
        "degraded_requests": engine.stats.degraded_requests,
    }


def bench_resume(scale: float, graph, tmp_root) -> dict:
    steps = max(int(24 * scale), 8)
    every = max(steps // 4, 2)

    def trainer(path=None, checkpoint_every=every):
        model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                           seed=3)
        return Trainer(model, TrainerConfig(steps=steps, batch_size=32,
                                            seed=3,
                                            checkpoint_every=checkpoint_every),
                       checkpoint_path=path)

    # same loop, same losses; the delta is the checkpoint writes
    start = time.perf_counter()
    reference = trainer(path=None).train()
    plain_wall = time.perf_counter() - start
    ckpt_path = tmp_root / "bench-checkpoint.npz"
    start = time.perf_counter()
    checkpointed = trainer(path=ckpt_path).train()
    ckpt_wall = time.perf_counter() - start
    assert checkpointed.losses == reference.losses

    # one-off save/restore walls + the bit-identical resume gate
    half = trainer(path=ckpt_path)
    half.train(steps=steps // 2)
    start = time.perf_counter()
    half.save_checkpoint()
    save_wall = time.perf_counter() - start
    resumed = trainer(path=ckpt_path)
    start = time.perf_counter()
    resumed_at = resumed.restore_checkpoint()
    restore_wall = time.perf_counter() - start
    report = resumed.train()
    assert resumed_at == steps // 2
    assert report.losses == reference.losses[steps // 2:], \
        "resume diverged from the uninterrupted run"

    return {
        "steps": steps,
        "checkpoint_every": every,
        "checkpoints_written": checkpointed.checkpoints_written,
        "train_wall_s": {"plain": plain_wall, "checkpointed": ckpt_wall},
        "checkpoint_overhead_pct":
            100.0 * max(ckpt_wall - plain_wall, 0.0) / plain_wall,
        "save_ms": 1000.0 * save_wall,
        "restore_ms": 1000.0 * restore_wall,
        "resume_bit_identical": True,
    }


def main(argv=None) -> int:
    parser = bench_parser("fault_tolerance",
                          "degraded search, hot swap, resume overhead")
    args = parser.parse_args(argv)
    import tempfile
    import pathlib

    degraded = bench_degraded_search(args.scale)
    print("degraded search: p99 %.2fms vs healthy %.2fms (ratio %.2f), "
          "recall %.3f"
          % (degraded["degraded"]["p99_ms"], degraded["healthy"]["p99_ms"],
             degraded["p99_ratio"], degraded["recall_vs_healthy"]))
    if args.scale >= 1 and degraded["p99_ratio"] > 2.0:
        print("FAIL: degraded p99 more than 2x healthy")
        return 1

    graph, index_set = _build_serving(args.scale)
    swap = bench_hot_swap(args.scale, index_set)
    print("hot swap: %d swaps over %d requests, pause max %.3fms, "
          "%d degraded"
          % (swap["swaps"], swap["requests_served"],
             swap["swap_pause_ms"]["max"], swap["degraded_requests"]))

    with tempfile.TemporaryDirectory() as tmp:
        resume = bench_resume(args.scale, graph, pathlib.Path(tmp))
    print("resume: %.1f%% checkpoint overhead, save %.1fms, restore %.1fms"
          % (resume["checkpoint_overhead_pct"], resume["save_ms"],
             resume["restore_ms"]))

    write_json_out(args.out, {
        "scale": args.scale,
        "degraded_search": degraded,
        "hot_swap": swap,
        "resume": resume,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
