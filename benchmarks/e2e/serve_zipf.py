"""``serve_zipf``: online serving, closed-loop capacity then paced latency.

Why this workload: it is the only one where ``serving.admission``,
``serving.engine`` and ``retrieval.two_layer``/``InvertedIndex`` work
and ``models``/``autodiff`` do nothing.  One seeded Zipf stream is
replayed whole, so every window does identical work and finds the LRU
in the state the previous identical pass left it in.

Two timed phases, in this order, never interleaved:

- **capacity** — closed loop, one client: the stream in pre-formed
  ``max_batch_size`` batches through ``ServingEngine.serve_batch`` (the
  admission layer's own entry point), one window per pass, for 60% of
  ``--seconds`` -> ``work_per_s``;
- **paced** — open loop on the admission layer's virtual clock at a
  fixed Poisson rate, one fresh ``AdmissionController`` per drive of
  the stream, for the remaining 40% -> ``op_ms_p50``, ``op_ms_tail``.
  Latency is virtual queue wait from the scheduled arrival plus the
  measured service time; arrivals are scheduled on the virtual clock,
  so the generator is never late (lateness is 0 by construction).
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.synthetic import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.models.amcad import make_model
from repro.retrieval.index import IndexSet
from repro.retrieval.two_layer import TwoLayerRetriever
from repro.serving.admission import AdmissionController
from repro.serving.engine import ServingEngine
from repro.serving.traffic import TrafficGenerator, TrafficRequest
from repro.training.trainer import Trainer, TrainerConfig

import boundaries
import stats
from harness import (TINY_UNIVERSE, Measured, TracedBlocks,
                     another_window_fits, check_gates, op_span, read_stats,
                     reset_engine_stats)

NAME = boundaries.SERVE
BATCH_ROOT = "serving.batch"
REQUEST_ROOT = "serving.request"
HI_ROOT = "serving.request_hi"
K = 20
MAX_BATCH = 32
CAPACITY_SHARE = 0.6


@dataclasses.dataclass(frozen=True)
class Params:
    #: ``SimulatorConfig`` overrides ({} = the default 1200/1800/400 universe)
    simulator: Dict[str, int]
    train_steps: int = 20
    #: LRU entries; smaller than the stream's distinct signatures, so
    #: every pass misses
    cache_size: int = 1024
    #: paced rate: a literal, about 40% of the reference host's
    #: capacity, never re-probed (a probed rate would move with the host)
    paced_qps: float = 6000.0
    #: traced-only diagnostic drive nearer saturation
    hi_qps: float = 11000.0
    #: virtual seconds of traffic in the stream (one drive, one pass)
    stream_seconds: float = 1.0
    overlap_samples: int = 64
    #: traced run: alternating untraced/traced blocks, each of this
    #: many capacity passes and then this many paced drives
    trace_blocks: int = 3
    trace_block_passes: int = 2
    trace_block_drives: int = 1


FULL = Params(simulator={})
TINY = Params(simulator=TINY_UNIVERSE, train_steps=2, cache_size=32,
              paced_qps=3000.0, hi_qps=6000.0, stream_seconds=0.1,
              overlap_samples=16, trace_blocks=1, trace_block_passes=1,
              trace_block_drives=1)


@dataclasses.dataclass
class State:
    params: Params
    seed: int
    model: object
    retriever: TwoLayerRetriever
    engine: ServingEngine
    traffic: TrafficGenerator
    #: the paced stream, and the same requests in capacity batches
    requests: List[TrafficRequest]
    batches: List[Tuple[np.ndarray, List[Tuple[int, ...]]]]


def build(seed: int, params: Params) -> State:
    """Train briefly, build exact indices, warm the LRU with one pass."""
    simulator = SponsoredSearchSimulator(
        SimulatorConfig(seed=seed, **params.simulator))
    logs = simulator.simulate_days(1)
    graph = build_graph(simulator.universe, logs)
    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                       seed=seed, kernels="auto")
    Trainer(model, TrainerConfig(batch_size=64, num_negatives=6, seed=seed,
                                 prefetch_workers=0)).train(params.train_steps)
    index_set = IndexSet(model, top_k=50, num_workers=1,
                         backend="exact").build()
    retriever = TwoLayerRetriever(index_set, expansion_k=10, ads_per_key=10)
    engine = ServingEngine(retriever, max_batch_size=MAX_BATCH,
                           cache_size=params.cache_size,
                           shard_parallelism=1)
    traffic = TrafficGenerator(logs, zipf_exponent=1.1, max_preclicks=2,
                               process="poisson", seed=seed)
    requests = traffic.generate(params.paced_qps, params.stream_seconds)
    batches = [(np.array([r.query for r in chunk], dtype=np.int64),
                [r.preclicks for r in chunk])
               for chunk in (requests[i:i + MAX_BATCH]
                             for i in range(0, len(requests), MAX_BATCH))]
    state = State(params, seed, model, retriever, engine, traffic, requests,
                  batches)
    # after one whole pass the LRU holds the stream's most recent
    # signatures; every later pass starts from, and restores, that state
    capacity_pass(state)
    return state


def close(state: State) -> None:
    state.engine.close()


def kernel_mode(state: State) -> str:
    return state.model.kernel_mode


def capacity_pass(state: State,
                  tracer: Optional[boundaries.Tracer] = None
                  ) -> Tuple[float, int]:
    """The stream once, closed loop; ``(wall seconds, requests unserved)``."""
    engine = state.engine
    reset_engine_stats(engine)
    empty = 0
    start = time.perf_counter()
    for queries, preclicks in state.batches:
        with op_span(tracer, BATCH_ROOT):
            results, _ = engine.serve_batch(queries, preclicks, k=K)
        empty += sum(1 for result in results if len(result.ads) == 0)
    wall = time.perf_counter() - start
    return wall, empty + read_stats(engine.stats)["degraded_requests"]


def controller(state: State, keep_results: bool = False
               ) -> AdmissionController:
    # generous limits: a host stall makes one drive late, which the
    # median over drives drops, instead of shedding thousands
    return AdmissionController(state.engine, max_queue=16384,
                               deadline_ms=5000.0, max_batch=MAX_BATCH,
                               num_workers=1, k=K, keep_results=keep_results)


def drive(state: State, requests: Sequence[TrafficRequest],
          tracer: Optional[boundaries.Tracer] = None,
          keep_results: bool = False, root: str = REQUEST_ROOT):
    """Offer ``requests`` to a fresh controller and drain it."""
    reset_engine_stats(state.engine)
    admission = controller(state, keep_results)
    start = time.perf_counter()
    for request in requests:
        with op_span(tracer, root):
            admission.offer(request.arrival, request.query,
                            request.preclicks, lane=request.lane)
    with op_span(tracer, root):
        admission.drain()
    return admission, time.perf_counter() - start


def overlap(state: State) -> Tuple[float, int]:
    """One untimed drive that keeps its results, against the direct path.

    Returns ``(mean overlap@k with TwoLayerRetriever.retrieve_batch on
    sampled requests, requests that were shed, lost or got no ad)``.
    """
    admission, _ = drive(state, state.requests, keep_results=True)
    counters = read_stats(admission.stats)
    served = admission.results
    unserved = (counters["offered"] - counters["served"]
                + sum(1 for _, result in served if len(result.ads) == 0))
    rng = np.random.default_rng(state.seed)
    picks = rng.choice(len(served), replace=False,
                       size=min(state.params.overlap_samples, len(served)))
    direct = state.retriever.retrieve_batch(
        [served[i][0].query for i in picks],
        [served[i][0].preclicks for i in picks], k=K)
    shares = [len(set(served[i][1].ads.tolist()) & set(want.ads.tolist()))
              / max(len(want.ads), 1)
              for i, want in zip(picks, direct)]
    return statistics.fmean(shares), unserved


def measure(state: State, seconds: float) -> Measured:
    """Capacity passes for 60% of ``seconds``, paced drives for the rest."""
    requests = state.requests
    pass_rates: List[float] = []
    unserved = 0
    elapsed = 0.0
    while another_window_fits(elapsed, len(pass_rates),
                              CAPACITY_SHARE * seconds):
        wall, empty = capacity_pass(state)
        elapsed += wall
        unserved += empty
        pass_rates.append(len(requests) / wall)

    p50s: List[float] = []
    p99s: List[float] = []
    shed = lost = 0
    elapsed = 0.0
    while another_window_fits(elapsed, len(p50s),
                              (1.0 - CAPACITY_SHARE) * seconds):
        admission, wall = drive(state, requests)
        elapsed += wall
        counters = read_stats(admission.stats)
        shed += counters["shed"]
        lost += counters["offered"] - counters["served"] - counters["shed"]
        p50s.append(statistics.median(counters["latency_ms"]))
        p99s.append(stats.percentile(counters["latency_ms"], 99))

    quality, gate_unserved = overlap(state)
    failures = check_gates({
        "overlap_is_one": quality == 1.0,
        "every_request_gets_an_ad": unserved == 0 and gate_unserved == 0,
        "paced_sheds_none": shed == 0,
        "served_plus_shed_is_offered": lost == 0,
    })
    attempted = len(requests) * (len(pass_rates) + len(p50s))
    return Measured(
        work_per_s=statistics.median(pass_rates),
        op_ms_p50=statistics.median(p50s),
        op_ms_tail=statistics.median(p99s),
        result_quality=quality,
        attempted=attempted,
        failed=unserved + shed + lost + len(failures),
        gate_failures=failures,
        notes={"op": "one request", "work_unit": "request served",
               "stream_requests": len(requests),
               "capacity": "closed loop, 1 client, %d-request batches, "
                           "window = one pass of the stream" % MAX_BATCH,
               "capacity_windows": len(pass_rates),
               "paced": "open loop, virtual clock, Poisson %.0f req/s, "
                        "window = one drive of the stream"
                        % state.params.paced_qps,
               "paced_windows": len(p50s),
               "tail": "window p99 over %d requests" % len(requests),
               "generator_lateness_ms": 0.0})


def layers(state: State) -> Tuple[Dict[str, float], boundaries.Tracer]:
    """Per-layer figures: capacity passes, paced drives, one hi-rate drive."""
    params, requests = state.params, state.requests
    hits = misses = 0
    paced: List[Dict[str, object]] = []

    def block(tracer: Optional[boundaries.Tracer]) -> float:
        nonlocal hits, misses
        wall = 0.0
        for _ in range(params.trace_block_passes):
            wall += capacity_pass(state, tracer)[0]
            if tracer is not None:
                counters = read_stats(state.engine.stats)
                hits += counters["cache_hits"]
                misses += counters["cache_misses"]
        for _ in range(params.trace_block_drives):
            admission, seconds = drive(state, requests, tracer)
            wall += seconds
            if tracer is not None:
                paced.append(read_stats(admission.stats))
        return wall

    blocks = TracedBlocks(boundaries.Tracer())
    blocks.run(params.trace_blocks, block)
    tracer = blocks.tracer
    with boundaries.installed(tracer):
        hi, _ = drive(state, state.traffic.generate(params.hi_qps,
                                                    params.stream_seconds),
                      tracer, root=HI_ROOT)
    hi_counters = read_stats(hi.stats)

    # per engine batch, capacity phase only: paced-phase batch
    # boundaries depend on measured service time, so counts taken
    # there do not repeat
    counts = tracer.counts[BATCH_ROOT]
    batches = tracer.calls(BATCH_ROOT)

    def per_batch(span: str) -> float:
        return tracer.self_ms(span, BATCH_ROOT) / batches

    waits = [w for c in paced for w in c["wait_ms"]]
    busy = sum(_per_batch(c["service_seconds"], c["batch_sizes"])
               for c in paced)
    metrics = {
        "serving.traffic.unique_signatures":
            len({(r.query, r.preclicks) for r in requests}),
        "serving.engine.batch_ms_p50": statistics.median(
            tracer.durations_ms("serving.engine", BATCH_ROOT)),
        "serving.engine.self_ms": per_batch("serving.engine"),
        "serving.engine.cache_hit_ratio": hits / (hits + misses),
        "retrieval.expand_ms": per_batch("retrieval.expand"),
        "retrieval.expand_keys_per_request":
            counts["retrieval.expanded_keys"]
            / counts["retrieval.expanded_requests"],
        "retrieval.gather_ms": per_batch("retrieval.gather"),
        "retrieval.lookup_ms": per_batch("retrieval.lookup"),
        "retrieval.lookup_calls_per_batch":
            tracer.calls("retrieval.lookup", BATCH_ROOT) / batches,
        "serving.admission.self_us_per_request":
            1000.0 * tracer.self_ms("serving.admission", REQUEST_ROOT)
            / sum(c["offered"] for c in paced),
        "serving.admission.wait_ms_p50": statistics.median(waits),
        "serving.admission.wait_ms_p99": stats.percentile(waits, 99),
        "serving.admission.batch_size_mean": statistics.fmean(
            n for c in paced for n in c["batch_sizes"]),
        # busy share of the arrival horizon, not of the makespan: the
        # stream's last partial batch waits out the whole deadline
        "serving.admission.utilisation":
            busy / (len(paced) * requests[-1].arrival),
        "serving.admission.shed": sum(c["shed"] for c in paced),
        "serving.admission.hi_latency_ms_p99":
            stats.percentile(hi_counters["latency_ms"], 99),
        "serving.admission.hi_shed_share":
            hi_counters["shed"] / hi_counters["offered"],
    }
    metrics.update(blocks.common_metrics())
    return metrics, tracer


def _per_batch(per_request: Sequence[float],
               batch_sizes: Sequence[int]) -> float:
    """Total service time of the batches, from per-request samples.

    ``AdmissionStats`` repeats a batch's service time once per request
    it served; the first sample of every batch is that batch's time.
    """
    total, index = 0.0, 0
    for size in batch_sizes:
        total += per_request[index]
        index += size
    return total
