"""Micro-batching serving engine for the two-layer retriever.

The deployed system (paper §IV-C, Fig. 6) answers tens of thousands of
QPS by batching index lookups and never sending a hot request to the
index twice.  :class:`ServingEngine` is the laptop-scale analogue:

- **micro-batching** — incoming requests are grouped into batches of at
  most ``max_batch_size`` and served through the vectorised
  :meth:`~repro.retrieval.two_layer.TwoLayerRetriever.retrieve_batch`
  path, amortising the per-call numpy overhead;
- **result cache** — the finished ranked ads are memoised per
  ``(generation, k, query, pre-clicks)`` signature in an LRU cache
  behind a frequency-counted admission gate (:class:`LRUCache`), so
  repeat traffic (head queries) costs two dict lookups and only a
  batch's misses reach the retriever.  A full cache admits a miss only
  if it was looked up more often than the entry it would evict, so a
  one-off tail signature never displaces a head one.  Exact, not
  approximate: a result is a pure function of that signature, whatever
  batch it is computed in.  Cached results are shared between callers
  and therefore read-only;
- **per-worker timing** — each micro-batch is timed and attributed to
  the least-loaded worker of a simulated fleet, producing the measured
  *batched* service times the Erlang-C
  :class:`~repro.serving.simulator.ServingSimulator` consumes;
- **shard slices** — with ``num_shards > 1`` each micro-batch is split
  into shard slices (the serving analogue of the sharded index fleet),
  served one after another on the calling thread.  Each slice is timed
  as one unit of fleet work and the batch's *wall* latency is the
  slowest slice — so the measured service times reflect a sharded
  fleet rather than one monolithic worker.

Requests enter one of two ways: a stream that :meth:`ServingEngine.serve`
slices into micro-batches, or a batch the
:class:`~repro.serving.admission.AdmissionController` already formed
(:meth:`ServingEngine.serve_batch`).  Queueing single requests is the
admission layer's job.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from typing import (TYPE_CHECKING, Any, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.common import drop_retired_planes
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.retrieval.two_layer import RetrievalResult, TwoLayerRetriever


class LRUCache:
    """Ordered-dict LRU of served results behind a frequency-counted
    admission gate (TinyLFU: Einziger, Friedman & Manes, ACM ToS 2017).

    Every :meth:`get` counts its key.  Once the cache is full, :meth:`put`
    evicts the least-recently-used entry only for a newcomer looked up
    strictly more often than it; otherwise the newcomer is not cached.
    On a Zipf stream this keeps one-off tail keys from evicting the
    head.  Counts halve (zeros dropped) every ``AGING_PERIOD x
    capacity`` lookups, which bounds the counter and lets popularity
    drift.  Capacity 0 disables the cache, counting included.
    """

    #: lookups per cache entry between two halvings of every count
    AGING_PERIOD = 10

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0 (0 disables the "
                             "cache), got %d" % capacity)
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._counts: Dict[Hashable, int] = {}
        self._lookups = 0
        self._age_every = self.AGING_PERIOD * capacity

    def get(self, key: Hashable) -> Optional[Any]:
        if self.capacity:
            counts = self._counts
            counts[key] = counts.get(key, 0) + 1
            self._lookups += 1
            if self._lookups >= self._age_every:
                self._age()
        try:
            self._store.move_to_end(key)
        except KeyError:
            return None
        return self._store[key]

    def put(self, key: Hashable, value: Any) -> None:
        store = self._store
        if key not in store and len(store) >= self.capacity:
            if not store:       # capacity 0
                return
            victim = next(iter(store))
            if self._counts.get(key, 0) <= self._counts.get(victim, 0):
                return
            del store[victim]
        store[key] = value
        store.move_to_end(key)

    def _age(self) -> None:
        self._lookups = 0
        self._counts = {key: count >> 1
                        for key, count in self._counts.items() if count > 1}

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self._counts.clear()
        self._lookups = 0


def _check_k(k: int) -> None:
    """Reject a non-positive ad count before any slice runs, where a
    slice's retry loop would turn the error into degraded results."""
    if k < 1:
        raise ValueError("k (ads per request) must be >= 1, got %r" % (k,))


def percentiles(samples: Sequence[float],
                points: Sequence[float] = (50.0, 95.0, 99.0)) -> dict:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over latency samples.

    The shared summary shape of :class:`EngineStats` and the admission
    layer's :class:`~repro.serving.admission.AdmissionStats`, so the
    bare engine and the admitted path report comparable numbers.
    Empty samples yield all-zero percentiles (idle system).
    """
    keys = ["p%g" % p for p in points]
    if len(samples) == 0:
        return {key: 0.0 for key in keys}
    values = np.percentile(np.asarray(samples, dtype=np.float64),
                           list(points))
    return {key: float(value) for key, value in zip(keys, values)}


@dataclasses.dataclass
class EngineStats:
    """Counters and timings accumulated by a :class:`ServingEngine`."""

    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Busy seconds per simulated worker (least-loaded dispatch).  With
    #: sharding every shard slice is one unit of fleet work.
    worker_busy_seconds: List[float] = dataclasses.field(default_factory=list)
    batch_sizes: List[int] = dataclasses.field(default_factory=list)
    #: Wall latency per micro-batch: the slowest shard slice when the
    #: batch fans out, the full batch time otherwise.
    batch_wall_seconds: List[float] = dataclasses.field(default_factory=list)
    #: Wall latency per *request*: time from the start of its
    #: micro-batch to the end of it.
    request_wall_seconds: List[float] = dataclasses.field(default_factory=list)
    #: fault-path counters: slice attempts that raised, requests served
    #: with an empty degraded result after retries ran out, and hot
    #: generation swaps applied to the running engine
    slice_errors: int = 0
    degraded_requests: int = 0
    degraded_batches: int = 0
    swaps: int = 0

    @property
    def total_busy_seconds(self) -> float:
        return float(sum(self.worker_busy_seconds))

    @property
    def service_seconds(self) -> float:
        """Amortised per-request service time under batching."""
        if self.requests == 0:
            return 0.0
        return self.total_busy_seconds / self.requests

    @property
    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.requests / self.batches

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        if looked_up == 0:
            return 0.0
        return self.cache_hits / looked_up

    def latency_percentiles(self) -> dict:
        """p50/p95/p99 of the per-request wall latencies (ms-free: seconds)."""
        return percentiles(self.request_wall_seconds)

    @property
    def degraded(self) -> bool:
        """Whether any request was served degraded (empty after retries)."""
        return self.degraded_requests > 0


class ServingEngine:
    """Serves retrieval requests in micro-batches with result caching.

    Parameters
    ----------
    retriever:
        The :class:`TwoLayerRetriever` to serve from.
    max_batch_size:
        Requests per micro-batch; incoming traffic is sliced into
        batches of at most this size.
    cache_size:
        Result-cache capacity in served results (0 disables caching,
        below 0 raises).  A full cache replaces its least-recently-used
        entry only with a result looked up more often than it.
    num_workers:
        Simulated fleet width for per-worker busy-time accounting; each
        unit of fleet work (a micro-batch, or one shard slice of it)
        is dispatched to the currently least-loaded worker.
    num_shards:
        Shard fan-out per micro-batch: requests are split into this
        many contiguous slices, each served (and timed) independently,
        and the batch wall latency is the slowest slice.  Results are
        identical to unsharded serving — requests are independent — so
        this is purely a fleet-shape knob.
    shard_parallelism:
        Retired (the slice thread pool); any number is accepted and
        ignored.  Slices run one after another on the calling thread.
    slice_retries:
        Retries per shard slice when serving it raises (or an
        ``"engine.slice"`` fault fires); a slice that exhausts them is
        served *degraded* — empty results for its requests, counted on
        :class:`EngineStats` — instead of failing the batch.
    generation:
        Artifact generation the initial retriever came from (tags the
        result-cache keys; see :meth:`swap_retriever`).
    """

    def __init__(self, retriever: "TwoLayerRetriever",
                 max_batch_size: int = 32, cache_size: int = 1024,
                 num_workers: int = 1, num_shards: int = 1,
                 shard_parallelism: Optional[int] = None,
                 slice_retries: int = 0,
                 generation: int = 0):
        if shard_parallelism is not None:
            drop_retired_planes("engine",
                                {"shard_parallelism": shard_parallelism})
        for key, value, minimum in (
                ("max_batch_size", max_batch_size, 1),
                ("num_workers", num_workers, 1),
                ("num_shards", num_shards, 1),
                ("slice_retries", slice_retries, 0)):
            if int(value) < minimum:
                raise ValueError("%s must be >= %d, got %r"
                                 % (key, minimum, value))
        self.retriever = retriever
        self.max_batch_size = int(max_batch_size)
        self.cache = LRUCache(cache_size)
        self.num_workers = int(num_workers)
        self.num_shards = int(num_shards)
        self.slice_retries = int(slice_retries)
        self.generation = int(generation)
        self.stats = EngineStats(
            worker_busy_seconds=[0.0] * self.num_workers)
        # a hot swap may come from another thread: the lock keeps the
        # cache's bookkeeping consistent and makes the (retriever,
        # generation) flip one atomic pointer swap
        self._cache_lock = threading.Lock()

    # -- hot swap -------------------------------------------------------------

    def swap_retriever(self, retriever: "TwoLayerRetriever",
                       generation: Optional[int] = None) -> int:
        """Atomically swap to a new retriever (a published generation).

        In-flight micro-batches finish on the retriever they snapshotted
        at batch start; new batches see the new one.  The result
        cache is cleared under the same lock (and keys are generation-
        tagged, so a straggler slice writing after the clear can never
        poison the new generation).  Returns the new generation id.
        """
        with self._cache_lock:
            self.retriever = retriever
            if generation is None:
                generation = self.generation + 1
            self.generation = int(generation)
            self.cache.clear()
            self.stats.swaps += 1
            return self.generation

    def _snapshot(self) -> Tuple["TwoLayerRetriever", int]:
        """The (retriever, generation) pair one micro-batch serves from."""
        with self._cache_lock:
            return self.retriever, self.generation

    def close(self) -> None:
        """A no-op: the engine holds no thread, file or pool, but owners
        that release one call it."""

    # -- bulk serving --------------------------------------------------------

    def serve(self, queries: Sequence[int],
              preclicks: Optional[Sequence[Sequence[int]]] = None,
              k: int = 20) -> List["RetrievalResult"]:
        """Serve a request stream, slicing it into micro-batches."""
        _check_k(k)
        queries = np.asarray(queries, dtype=np.int64).ravel()
        if preclicks is None:
            preclicks = [()] * queries.size
        if len(preclicks) != queries.size:
            raise ValueError("got %d queries but %d pre-click lists"
                             % (queries.size, len(preclicks)))
        results: List["RetrievalResult"] = []
        for start in range(0, queries.size, self.max_batch_size):
            stop = min(start + self.max_batch_size, queries.size)
            results.extend(self._serve_batch(queries[start:stop],
                                             preclicks[start:stop], k))
        return results

    # -- pre-formed batches (the admission layer's entry point) --------------

    def serve_batch(self, queries: Sequence[int],
                    preclicks: Sequence[Sequence[int]],
                    k: int = 20) -> Tuple[List["RetrievalResult"], float]:
        """Serve one pre-formed micro-batch; returns ``(results, wall)``.

        Unlike :meth:`serve` this never re-slices: the caller (e.g. the
        :class:`~repro.serving.admission.AdmissionController`, which
        dispatches whatever is queued when a worker frees) has already
        decided the batch boundary.  ``wall`` is the measured batch wall latency in
        seconds — the service-time sample the admission layer charges
        to its virtual worker.
        """
        _check_k(k)
        queries = np.asarray(queries, dtype=np.int64).ravel()
        if len(preclicks) != queries.size:
            raise ValueError("got %d queries but %d pre-click lists"
                             % (queries.size, len(preclicks)))
        results = self._serve_batch(queries, list(preclicks), k)
        return results, self.stats.batch_wall_seconds[-1]

    # -- internals -----------------------------------------------------------

    def _shard_slices(self, size: int) -> List[Tuple[int, int]]:
        """Contiguous near-equal request slices for one micro-batch."""
        shards = min(self.num_shards, size)
        if shards <= 1:
            return [(0, size)]
        edges = np.linspace(0, size, shards + 1).astype(np.int64)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])
                if b > a]

    def _expand_and_gather(self, retriever: "TwoLayerRetriever",
                           generation: int, queries: np.ndarray,
                           preclicks: Sequence[Sequence[int]],
                           k: int) -> List["RetrievalResult"]:
        """One slice attempt against a snapshotted retriever/generation.

        Nothing is cached unless the whole attempt succeeded.
        """
        # generation-tagged: an in-flight slice finishing after a hot
        # swap writes under the old generation's keys, which post-swap
        # lookups can never hit
        signatures = [(generation, k, query, tuple(map(int, items)))
                      for query, items in zip(queries.tolist(), preclicks)]
        results: List[Optional["RetrievalResult"]] = [None] * len(signatures)
        miss_indices: List[int] = []
        with self._cache_lock:
            for i, signature in enumerate(signatures):
                results[i] = self.cache.get(signature)
                if results[i] is None:
                    miss_indices.append(i)
            self.stats.cache_misses += len(miss_indices)
            self.stats.cache_hits += len(signatures) - len(miss_indices)
        if miss_indices:
            fresh = retriever.gather_batch(
                retriever.expand_keys_batch(
                    queries[miss_indices],
                    [preclicks[i] for i in miss_indices]), k=k)
            with self._cache_lock:
                for i, result in zip(miss_indices, fresh):
                    # shared with every later hit
                    result.ads.flags.writeable = False
                    result.scores.flags.writeable = False
                    results[i] = result
                    self.cache.put(signatures[i], result)
        return results

    def _degraded_results(self, count: int) -> List["RetrievalResult"]:
        """Empty per-request results for a slice that ran out of retries."""
        from repro.retrieval.two_layer import RetrievalResult
        return [RetrievalResult(ads=np.zeros(0, dtype=np.int64),
                                scores=np.zeros(0), num_keys=0)
                for _ in range(count)]

    def _serve_slice(self, retriever: "TwoLayerRetriever", generation: int,
                     slice_index: int, queries: np.ndarray,
                     preclicks: Sequence[Sequence[int]],
                     k: int) -> Tuple[List["RetrievalResult"], float]:
        """Serve one shard slice; returns its results and its busy time.

        A raising attempt (real, or the ``"engine.slice"`` fault point)
        is retried up to ``slice_retries`` times; exhaustion degrades
        the slice to empty results rather than failing the batch.
        """
        start = time.perf_counter()
        for attempt in range(self.slice_retries + 1):
            try:
                fault_point("engine.slice", slice=slice_index,
                            attempt=attempt)
                results = self._expand_and_gather(retriever, generation,
                                                  queries, preclicks, k)
            except Exception:
                self.stats.slice_errors += 1
                continue
            return results, time.perf_counter() - start
        self.stats.degraded_requests += int(queries.size)
        return self._degraded_results(queries.size), \
            time.perf_counter() - start

    def _serve_batch(self, queries: np.ndarray,
                     preclicks: Sequence[Sequence[int]],
                     k: int) -> List["RetrievalResult"]:
        batch_start = time.perf_counter()
        retriever, generation = self._snapshot()
        before_degraded = self.stats.degraded_requests
        slices = self._shard_slices(queries.size)
        if len(slices) <= 1:
            results, elapsed = self._serve_slice(retriever, generation, 0,
                                                 queries, preclicks, k)
            slice_times = [elapsed]
        else:
            outs = [self._serve_slice(retriever, generation, index,
                                      queries[a:b], preclicks[a:b], k)
                    for index, (a, b) in enumerate(slices)]
            results = [r for slice_results, _ in outs for r in slice_results]
            slice_times = [elapsed for _, elapsed in outs]
        if self.stats.degraded_requests > before_degraded:
            self.stats.degraded_batches += 1

        # every shard slice is one unit of fleet work; the micro-batch
        # is done when its slowest shard is (parallel-fleet wall time)
        busy = self.stats.worker_busy_seconds
        for elapsed in slice_times:
            busy[min(range(len(busy)), key=busy.__getitem__)] += elapsed
        self.stats.batch_wall_seconds.append(max(slice_times))
        self.stats.batches += 1
        self.stats.requests += queries.size
        self.stats.batch_sizes.append(int(queries.size))
        # per-request wall latency: from the batch start to its end
        wall = time.perf_counter() - batch_start
        self.stats.request_wall_seconds.extend([wall] * int(queries.size))
        return results
