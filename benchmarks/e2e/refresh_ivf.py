"""``refresh_ivf``: the model-to-servable index refresh, cycle by cycle.

Why this workload: it is the offline path behind the two-layer
retriever, at a catalog (2x the default universe) where IVF really
prunes.  ``retrieval.ann``/``backend``/``index``, ``io`` and
``pipeline.artifacts`` do the work; ``models``/``geometry`` run their
no-tape path and ``autodiff`` does nothing.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.pipeline import Pipeline, PipelineConfig
from repro.retrieval.backend import ExactBackend
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.quantization import recall_at_k

import boundaries
import stats
from harness import (SCRATCH, TINY_UNIVERSE, Measured, TracedBlocks,
                     another_window_fits, check_gates, op_span)

NAME = boundaries.REFRESH
ROOT = "refresh.cycle"
RECALL_K = 10
# a sanity floor, not a quality target: over seeds 0-285 the mean
# recall@10 has median 0.987 but a heavy left tail (three seeds in 240
# below 0.93, minimum 0.906: one relation's trained geometry defeats
# the tangent-space prune).  Quality regressions are `result_quality`'s
# job, with its own bound: losing the manifold re-rank gives about 0.79
RECALL_FLOOR = 0.75


@dataclasses.dataclass(frozen=True)
class Params:
    #: ``SimulatorConfig`` overrides
    simulator: Dict[str, int]
    train_steps: int = 20
    #: cycles per window; the tail is the window's slowest cycle
    window: int = 3
    min_windows: int = 3
    #: seeded keys per relation for the recall check against ExactBackend
    recall_keys: int = 256
    #: traced run: alternating untraced/traced blocks of this many cycles
    trace_blocks: int = 2
    trace_block_cycles: int = 2


FULL = Params(simulator=dict(num_queries=2400, num_items=3600, num_ads=800,
                             num_users=1200))
TINY = Params(simulator=TINY_UNIVERSE, train_steps=2, window=1,
              min_windows=2, recall_keys=32, trace_blocks=1,
              trace_block_cycles=1)


def config(seed: int, params: Params) -> PipelineConfig:
    return PipelineConfig.from_dict({
        "name": NAME,
        "data": {"days": 1, "train_days": 1, "seed": seed,
                 "simulator": dict(params.simulator)},
        "model": {"name": "amcad", "num_subspaces": 2, "subspace_dim": 4,
                  "seed": seed, "kernels": "auto"},
        # TrainerConfig's own learning rate, as train_deep uses; the
        # pipeline default (0.05) moves the geometry so far in a few
        # steps that the tangent-space prune drops below the recall floor
        "training": {"steps": params.train_steps, "batch_size": 64,
                     "num_negatives": 6, "learning_rate": 0.01,
                     "seed": seed, "prefetch_workers": 0},
        "index": {"backend": "ivf", "nprobe": 16, "rerank_k": 80,
                  "top_k": 20, "num_workers": 1, "shard_parallelism": 1},
        "serving": {"measure_requests": 0},
        "eval": {"enabled": False},
    })


@dataclasses.dataclass
class Cycle:
    """What one refresh cycle did, for the gates and the work count."""

    seconds: float
    keys: int
    failures: List[str]


@dataclasses.dataclass
class State:
    params: Params
    seed: int
    artifact_dir: str
    serving: Pipeline


def build(seed: int, params: Params) -> State:
    """Offline run into a temp artifact dir, serving side, one warm cycle."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    artifact_dir = tempfile.mkdtemp(prefix="refresh-", dir=SCRATCH)
    try:
        Pipeline(config(seed, params), artifact_dir=artifact_dir).run()
        state = State(params, seed, artifact_dir,
                      Pipeline.from_artifacts(artifact_dir))
        # the first rebuild re-simulates the data and reloads the model;
        # later cycles find both in the pipeline context
        cycle(state)
    except BaseException:
        shutil.rmtree(artifact_dir, ignore_errors=True)
        raise
    return state


def close(state: State) -> None:
    shutil.rmtree(state.artifact_dir, ignore_errors=True)


def kernel_mode(state: State) -> str:
    return state.serving.ctx.model.kernel_mode


def cycle(state: State, tracer: Optional[boundaries.Tracer] = None) -> Cycle:
    """Rebuild + publish, hot-swap, gc; then (untimed) check the swap."""
    serving = state.serving
    start = time.perf_counter()
    with op_span(tracer, ROOT):
        published, built, live = _refresh(serving)
    seconds = time.perf_counter() - start

    loaded = serving.ctx.index_set
    top_k = serving.config.index.top_k
    rows_ok = ids_equal = True
    keys = 0
    for relation, index in loaded.indices.items():
        targets = serving.ctx.train_graph.num_nodes[relation.target_type]
        same = relation.source_type == relation.target_type
        width = min(top_k, targets - (1 if same else 0))
        keys += index.num_keys
        rows_ok = (rows_ok and index.ids.shape[1] == width
                   and int(index.ids.min()) >= 0
                   and int(index.ids.max()) < targets)
        ids_equal = ids_equal and np.array_equal(index.ids,
                                                 built[relation].ids)
    served = serving.serve([0, 1], k=5)
    failures = check_gates({
        "swapped_generation_is_published": live == published
        and serving.engine.generation == live,
        "reloaded_ids_equal_built": ids_equal,
        "rows_have_k_valid_ids": rows_ok,
        "swapped_engine_serves": all(len(r.ads) > 0 for r in served),
    })
    return Cycle(seconds, keys, failures)


def _refresh(serving: Pipeline):
    published = serving.rebuild_indices()["generation"]
    built = serving.ctx.index_set
    live = serving.hot_swap()
    serving.store.gc(keep=2, live=live)
    # rebuild_indices dropped the old engine, so this stands up the one
    # the pipeline builds for the swapped-in generation (reusing one
    # engine across cycles made glibc recycle pages on alternate cycles)
    serving.engine
    return published, built, live


def recall(state: State) -> Dict[str, float]:
    """recall@10 of the live IndexSet against ExactBackend, per relation."""
    serving = state.serving
    rng = np.random.default_rng(state.seed)
    encode_cache: dict = {}
    per_relation = {}
    for relation, index in serving.ctx.index_set.indices.items():
        space = RelationSpace.from_model(serving.ctx.model, relation,
                                         encode_cache=encode_cache)
        keys = np.sort(rng.choice(
            space.num_sources, replace=False,
            size=min(state.params.recall_keys, space.num_sources)))
        same = relation.source_type == relation.target_type
        truth, _ = ExactBackend().build(space).search(keys, RECALL_K,
                                                      exclude_self=same)
        per_relation[relation.value] = recall_at_k(index.ids[keys], truth,
                                                   RECALL_K)
    return per_relation


def measure(state: State, seconds: float) -> Measured:
    """Whole windows of refresh cycles until ``seconds`` have been spent."""
    params = state.params
    cycles: List[Cycle] = []
    elapsed = 0.0
    while another_window_fits(elapsed, len(cycles) // params.window,
                              seconds, params.min_windows):
        for _ in range(params.window):
            cycles.append(cycle(state))
            elapsed += cycles[-1].seconds
    per_relation = recall(state)
    quality = statistics.fmean(per_relation.values())
    failed_cycles = sum(1 for c in cycles if c.failures)
    recall_failures = check_gates({"recall_floor": quality >= RECALL_FLOOR})
    cycle_ms = [1000.0 * c.seconds for c in cycles]
    keys_per_s = [c.keys / c.seconds for c in cycles]
    return Measured(
        # keys of a window over the window's wall == the harmonic mean
        # of its cycles' rates; every cycle re-indexes the same keys
        work_per_s=stats.window_medians(keys_per_s, params.window,
                                        statistics.harmonic_mean),
        op_ms_p50=stats.window_medians(cycle_ms, params.window),
        op_ms_tail=stats.window_medians(cycle_ms, params.window, max),
        result_quality=quality,
        attempted=len(cycles),
        failed=failed_cycles + len(recall_failures),
        gate_failures=sorted({name for c in cycles for name in c.failures})
        + recall_failures,
        notes={"op": "rebuild_indices + hot_swap + gc(keep=2)",
               "work_unit": "source key re-indexed and made servable",
               "cycles": len(cycles), "keys_per_cycle": cycles[0].keys,
               "windows": len(cycles) // params.window,
               "window_cycles": params.window, "tail": "window max",
               "recall_at_10": per_relation})


def layers(state: State) -> Tuple[Dict[str, float], boundaries.Tracer]:
    """Per-layer figures from alternating untraced/traced cycle blocks."""
    params = state.params

    def block(tracer: Optional[boundaries.Tracer]) -> float:
        return sum(cycle(state, tracer).seconds
                   for _ in range(params.trace_block_cycles))

    blocks = TracedBlocks(boundaries.Tracer())
    blocks.run(params.trace_blocks, block)
    tracer, counts = blocks.tracer, blocks.tracer.counts[ROOT]
    cycles = tracer.calls(ROOT)

    def per_cycle(span: str) -> float:
        return tracer.self_ms(span) / cycles

    metrics = {
        "models.full_plan_ms": per_cycle("models.full_plan"),
        "models.encode_all_ms": per_cycle("models.encode_all"),
        "models.nodes_embedded_per_cycle":
            counts["models.nodes_embedded"] / cycles,
        "retrieval.project_ms": per_cycle("retrieval.project"),
        "retrieval.backend_build_ms": per_cycle("retrieval.backend_build"),
        "retrieval.search_ms": per_cycle("retrieval.search"),
        "retrieval.search_calls_per_cycle":
            tracer.calls("retrieval.search") / cycles,
        "retrieval.keys_per_cycle": counts["retrieval.keys"] / cycles,
        "retrieval.rerank_ms": per_cycle("retrieval.rerank"),
        "retrieval.scan_fraction": (counts["retrieval.reranked"]
                                    / counts["retrieval.scan_budget"]),
        "retrieval.recall_at_10_min": min(recall(state).values()),
        "geometry.kernel_ms": per_cycle(boundaries.KERNEL_SPAN),
        "io.save_ms": per_cycle("io.save"),
        "io.load_ms": per_cycle("io.load"),
        "io.bytes_per_generation": (counts["io.generation_bytes"]
                                    / counts["io.generations"]),
        "pipeline.publish_ms": per_cycle("pipeline.publish"),
        "pipeline.verify_ms": per_cycle("pipeline.verify"),
        "pipeline.swap_ms": per_cycle("pipeline.swap"),
        "pipeline.gc_ms": per_cycle("pipeline.gc"),
        "refresh.cycle_self_ms": per_cycle(ROOT),
    }
    metrics.update(blocks.common_metrics())
    return metrics, tracer
