"""SLO-aware admission control in front of the serving engine.

The deployed system (paper Table V: 40M queries/day) does not die at
the saturation point of its fleet — an admission layer in front of the
retrieval engine decides, per request, whether to queue, serve, or
shed.  :class:`AdmissionController` is that layer for the reproduction:

- **arrival-timestamped bounded queue** — requests are offered with an
  arrival time on a *virtual* clock (seconds); when the queue depth
  would exceed ``max_queue`` the request is shed immediately
  (backpressure: the caller learns synchronously that the fleet is
  saturated);
- **priority lanes** — ``"paid"`` (sponsored placements) vs
  ``"organic"`` traffic.  Dequeue is strict-priority (paid drains
  first) and ``priority_share`` of the queue capacity is *reserved* for
  the paid lane, so organic traffic sheds earlier under overload;
- **work-conserving micro-batching** — a batch leaves at ``max(oldest
  queued arrival, earliest-free worker)`` and takes up to ``max_batch``
  queued requests, paid lane first.  A request that finds a worker
  idle is served at once, alone; requests that arrive while every
  worker is busy queue up and leave together when one frees, so
  batches fill by themselves exactly when the fleet is loaded;
- **deadline shedding** — when every worker is busy past a request's
  deadline, the request is dropped at dispatch time instead of being
  served uselessly late.  Served requests consequently have queue wait
  ``<= deadline`` *by construction*; the end-to-end latency of an
  admitted request is bounded by ``deadline + its batch's service
  time``;
- **measured service, virtual waiting** — time spent queueing is
  tracked on the virtual clock (so a 300-second traffic trace replays
  in milliseconds), but each dispatched batch is *really served*
  through the engine and its measured wall time is what occupies a
  virtual worker.  The controller is therefore a discrete-event
  queueing simulation whose service process is the actual engine —
  exactly the object the Erlang-C
  :class:`~repro.serving.simulator.ServingSimulator` needs to be
  calibrated against (see ``tests/test_serving_admission.py`` and
  ``benchmarks/bench_serving_async.py``).

The engine contract is one method: ``serve_batch(queries, preclicks,
k) -> (results, wall_seconds)`` — satisfied by the real
:class:`~repro.serving.engine.ServingEngine` and by the synthetic
:class:`~repro.serving.traffic.SyntheticService` used for pure-virtual
calibration runs.  A request is shed for one of two reasons only: a
full queue at arrival or an expired deadline at dispatch.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.serving.engine import percentiles

#: Priority lanes, in strict dequeue order.
LANES = ("paid", "organic")


@dataclasses.dataclass
class AdmissionRequest:
    """One offered request on the admission queue's virtual timeline."""

    arrival: float
    query: int
    preclicks: Tuple[int, ...] = ()
    lane: str = "organic"

    def __post_init__(self):
        if self.lane not in LANES:
            raise ValueError("lane must be one of %s, got %r"
                             % ("/".join(LANES), self.lane))


def _lane_counter() -> Dict[str, int]:
    return {lane: 0 for lane in LANES}


@dataclasses.dataclass
class AdmissionStats:
    """Counters and per-request latency samples of one controller.

    All times are seconds on the controller's virtual clock; service
    samples are the engine's *measured* batch wall times.
    """

    offered: int = 0
    admitted: int = 0
    served: int = 0
    #: shed at arrival: queue depth at the watermark (backpressure)
    shed_queue: int = 0
    #: shed at dispatch: every worker busy past the request's deadline
    shed_deadline: int = 0
    offered_by_lane: Dict[str, int] = dataclasses.field(
        default_factory=_lane_counter)
    shed_by_lane: Dict[str, int] = dataclasses.field(
        default_factory=_lane_counter)
    batch_sizes: List[int] = dataclasses.field(default_factory=list)
    #: virtual seconds each served request spent queued (<= deadline)
    queue_wait_seconds: List[float] = dataclasses.field(default_factory=list)
    #: measured engine wall seconds of the batch that served the request
    service_seconds: List[float] = dataclasses.field(default_factory=list)
    #: queue wait + service: the request's end-to-end latency
    latency_seconds: List[float] = dataclasses.field(default_factory=list)
    max_depth_seen: int = 0

    @property
    def shed(self) -> int:
        return self.shed_queue + self.shed_deadline

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def mean_wait_seconds(self) -> float:
        if not self.queue_wait_seconds:
            return 0.0
        return sum(self.queue_wait_seconds) / len(self.queue_wait_seconds)

    @property
    def mean_latency_seconds(self) -> float:
        if not self.latency_seconds:
            return 0.0
        return sum(self.latency_seconds) / len(self.latency_seconds)

    def wait_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the served requests' queue waits (seconds)."""
        return percentiles(self.queue_wait_seconds)

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the served requests' queue+service latency."""
        return percentiles(self.latency_seconds)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe digest for stage reports and benches."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "served": self.served,
            "shed": self.shed,
            "shed_queue": self.shed_queue,
            "shed_deadline": self.shed_deadline,
            "shed_rate": self.shed_rate,
            "shed_by_lane": dict(self.shed_by_lane),
            "mean_batch_size": self.mean_batch_size,
            "mean_wait_ms": 1000.0 * self.mean_wait_seconds,
            "wait_ms": {key: 1000.0 * value
                        for key, value in self.wait_percentiles().items()},
            "latency_ms": {key: 1000.0 * value
                           for key, value in self.latency_percentiles().items()},
            "max_depth_seen": self.max_depth_seen,
        }


class AdmissionController:
    """Bounded, deadline-aware admission queue over a serving engine.

    Parameters
    ----------
    engine:
        Anything with ``serve_batch(queries, preclicks, k) ->
        (results, wall_seconds)`` — a
        :class:`~repro.serving.engine.ServingEngine` in production, a
        :class:`~repro.serving.traffic.SyntheticService` in
        pure-virtual calibration runs.
    max_queue:
        Queue-depth watermark; arrivals beyond it are shed
        (backpressure).
    deadline_ms:
        Per-request queueing budget.  A request whose wait would exceed
        it (all workers busy) is shed at dispatch, so a served wait is
        ``<= deadline``; it does not decide when a batch leaves.
    max_batch:
        Most requests one micro-batch takes from the queue; ``None``
        adopts the engine's ``max_batch_size``.
    num_workers:
        Virtual fleet width: how many measured-service batches may be
        in flight at once on the virtual timeline.
    priority_share:
        Fraction of ``max_queue`` reserved for the paid lane; organic
        arrivals shed once depth reaches ``max_queue * (1 -
        priority_share)``.
    k:
        Ads returned per request (>= 1).
    keep_results:
        Retain ``(request, result)`` pairs in dispatch order on
        ``self.results`` (off by default: the traffic harness only
        needs the stats).
    """

    def __init__(self, engine, max_queue: int = 256,
                 deadline_ms: float = 50.0,
                 max_batch: Optional[int] = None,
                 num_workers: int = 1,
                 priority_share: float = 0.0,
                 k: int = 20,
                 keep_results: bool = False):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1, got %d" % max_queue)
        if not deadline_ms > 0:
            raise ValueError("deadline_ms must be > 0, got %r" % deadline_ms)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1, got %d" % num_workers)
        if not 0.0 <= priority_share <= 1.0:
            raise ValueError("priority_share must be in [0, 1], got %r"
                             % priority_share)
        if max_batch is None:
            max_batch = getattr(engine, "max_batch_size", 32)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %d" % max_batch)
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.engine = engine
        self.max_queue = int(max_queue)
        self.deadline = float(deadline_ms) / 1000.0
        self.max_batch = int(max_batch)
        self.num_workers = int(num_workers)
        self.priority_share = float(priority_share)
        self.k = int(k)
        self.stats = AdmissionStats()
        self.results: List[Tuple[AdmissionRequest, Any]] = []
        self._keep_results = bool(keep_results)
        self._queues: Dict[str, Deque[AdmissionRequest]] = {
            lane: deque() for lane in LANES}
        self._lanes = tuple(self._queues.values())    # dequeue order
        self._depth = 0
        self._worker_free = [0.0] * self.num_workers
        self._clock = 0.0
        # organic arrivals stop at the unreserved share of the queue
        self._organic_cap = self.max_queue - int(
            round(self.priority_share * self.max_queue))

    # -- queue state ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued (all lanes)."""
        return self._depth

    # -- offering traffic ----------------------------------------------------

    def offer(self, arrival: float, query: int,
              preclicks: Sequence[int] = (),
              lane: str = "organic") -> bool:
        """Offer one request at virtual time ``arrival``; ``True`` = admitted.

        Arrivals must be non-decreasing — the controller advances its
        virtual clock to each arrival, dispatching every batch that
        became due in between.
        """
        if arrival < self._clock:
            raise ValueError(
                "arrivals must be non-decreasing: got %.6f after %.6f"
                % (arrival, self._clock))
        request = AdmissionRequest(arrival=float(arrival), query=int(query),
                                   preclicks=tuple(map(int, preclicks)),
                                   lane=lane)
        self._advance(request.arrival)
        self._clock = request.arrival
        stats = self.stats
        stats.offered += 1
        stats.offered_by_lane[lane] += 1
        cap = self.max_queue if lane == "paid" else self._organic_cap
        if self._depth >= cap:
            stats.shed_queue += 1
            stats.shed_by_lane[lane] += 1
            return False
        self._queues[lane].append(request)
        self._depth += 1
        stats.admitted += 1
        if self._depth > stats.max_depth_seen:
            stats.max_depth_seen = self._depth
        return True

    def drain(self) -> float:
        """Dispatch everything still queued; returns the virtual makespan.

        The makespan is the virtual time the last worker goes idle —
        the denominator for achieved-QPS accounting.
        """
        self._advance(math.inf)
        return max(max(self._worker_free), self._clock)

    # -- the discrete-event core ---------------------------------------------

    def _oldest(self) -> float:
        """Arrival of the oldest queued request (the queue is non-empty)."""
        paid, organic = self._lanes
        if not paid:
            return organic[0].arrival
        if not organic:
            return paid[0].arrival
        return min(paid[0].arrival, organic[0].arrival)

    def _advance(self, now: float) -> None:
        """Dispatch every batch due at or before ``now``.

        A batch is due at ``max(oldest queued arrival, earliest-free
        worker)``; ``offer`` advances *before* queueing, so a request
        arriving exactly then joins the next batch.
        """
        free = self._worker_free
        while self._depth:
            free_at = min(free)
            oldest = self._oldest()
            dispatch_at = max(oldest, free_at)
            if dispatch_at > now:
                return
            if oldest + self.deadline < dispatch_at:
                self._shed_expired(dispatch_at)
                continue    # queue changed; recompute the dispatch time
            batch = self._next_batch()
            results, service = self.engine.serve_batch(
                [r.query for r in batch], [r.preclicks for r in batch],
                k=self.k)
            free[free.index(free_at)] = dispatch_at + service
            stats = self.stats
            waits = [dispatch_at - r.arrival for r in batch]
            stats.batch_sizes.append(len(batch))
            stats.served += len(batch)
            stats.queue_wait_seconds += waits
            stats.service_seconds += [service] * len(batch)
            stats.latency_seconds += [wait + service for wait in waits]
            if self._keep_results:
                self.results += zip(batch, results or [None] * len(batch))

    def _shed_expired(self, dispatch_at: float) -> None:
        """Drop the queue heads whose wait would exceed the deadline."""
        for queue in self._lanes:
            while queue and queue[0].arrival + self.deadline < dispatch_at:
                request = queue.popleft()
                self._depth -= 1
                self.stats.shed_deadline += 1
                self.stats.shed_by_lane[request.lane] += 1

    def _next_batch(self) -> List[AdmissionRequest]:
        """Pop up to ``max_batch`` requests, paid lane strictly first."""
        batch: List[AdmissionRequest] = []
        for queue in self._lanes:
            while queue and len(batch) < self.max_batch:
                batch.append(queue.popleft())
        self._depth -= len(batch)
        return batch
