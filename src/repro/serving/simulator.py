"""Queueing simulator — response time vs QPS (paper Fig. 9).

The deployed system serves tens of thousands of requests per second
from the iGraph engine.  The *shape* of its latency curve (slow, smooth
growth until the worker pool saturates) is a queueing property, not a
hardware one, so it is reproduced with an M/M/c model:

- the per-request service time is *measured* by timing real two-layer
  retrievals on this machine — either one request at a time, or through
  the micro-batching :class:`~repro.serving.engine.ServingEngine`,
  whose amortised batched service time is what a production fleet
  actually pays per request;
- a c-worker Erlang-C queue maps an offered load λ (QPS) to the mean
  waiting time, giving ``response = wait(λ) + service``.

The Erlang-C probability is computed through the iterative Erlang-B
recursion (``B(0) = 1``, ``B(n) = aB(n-1) / (n + aB(n-1))``), which
stays in ``(0, 1]`` at every step — unlike the textbook factorial
formula, it neither overflows nor loses precision for fleets of
thousands of workers.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.retrieval.two_layer import TwoLayerRetriever
    from repro.serving.engine import ServingEngine


def erlang_b(offered_load: float, servers: int) -> float:
    """Erlang-B blocking probability via the stable iterative recursion."""
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = offered_load * blocking / (n + offered_load * blocking)
    return blocking


def allen_cunneen_wait(arrival_rate: float, service_rate: float,
                       servers: int, ca2: float = 1.0,
                       cs2: float = 1.0) -> float:
    """G/G/c mean-wait approximation: Erlang-C scaled by ``(ca²+cs²)/2``.

    ``ca2``/``cs2`` are the squared coefficients of variation of the
    inter-arrival and service processes (1.0 each recovers M/M/c; a
    near-deterministic service pushes ``cs2 → 0`` and halves the
    Erlang-C wait, the M/D/c limit).  This is what calibrating the
    simulator against the *measured* admission+engine system uses: the
    engine's service times are not exponential, so the fair prediction
    applies the measured ``cs2``.
    """
    scale = 0.5 * (ca2 + cs2)
    return scale * erlang_c_wait(arrival_rate, service_rate, servers)


def erlang_c_wait(arrival_rate: float, service_rate: float,
                  servers: int) -> float:
    """Mean queueing delay of an M/M/c system (seconds).

    Returns ``inf`` when the system is unstable (λ ≥ c·μ).  Stable for
    arbitrarily large fleets (``servers=1000`` and beyond) because the
    Erlang-B recursion replaces the factorial-based formula.
    """
    if arrival_rate <= 0:
        return 0.0
    utilisation = arrival_rate / (servers * service_rate)
    if utilisation >= 1.0:
        return float("inf")
    offered = arrival_rate / service_rate
    blocking = erlang_b(offered, servers)
    p_wait = blocking / (1.0 - utilisation * (1.0 - blocking))
    return p_wait / (servers * service_rate - arrival_rate)


@dataclasses.dataclass
class ServingStats:
    """One point of the Fig. 9 curve."""

    qps: float
    response_time_ms: float
    utilisation: float


class ServingSimulator:
    """Measures service time, then sweeps QPS through the queue model.

    Parameters
    ----------
    retriever:
        The two-layer retriever to time (``None`` if the service time
        is injected via ``service_seconds`` or measured from an
        engine).
    num_workers:
        Size of the simulated serving fleet.  The paper's fleet handles
        ~50k QPS at <5 ms; scale workers to the measured service time.
    service_seconds:
        Optional pre-measured per-request service time.
    """

    def __init__(self, retriever: Optional["TwoLayerRetriever"] = None,
                 num_workers: int = 64,
                 service_seconds: Optional[float] = None):
        self.retriever = retriever
        self.num_workers = int(num_workers)
        self._service_seconds = service_seconds

    def measure_service_time(self, queries: Sequence[int],
                             preclicks: Sequence[Sequence[int]],
                             k: int = 20, repeats: int = 1) -> float:
        """Mean wall-clock seconds of one unbatched two-layer retrieval."""
        if self.retriever is None:
            raise RuntimeError("no retriever to measure; pass one to the "
                               "constructor or use measure_batched_"
                               "service_time()")
        start = time.perf_counter()
        count = 0
        for _ in range(repeats):
            for query, items in zip(queries, preclicks):
                self.retriever.retrieve(int(query), items, k=k)
                count += 1
        elapsed = time.perf_counter() - start
        self._service_seconds = elapsed / max(count, 1)
        return self._service_seconds

    def measure_batched_service_time(self, engine: "ServingEngine",
                                     queries: Sequence[int],
                                     preclicks: Sequence[Sequence[int]],
                                     k: int = 20) -> float:
        """Amortised per-request seconds when served in micro-batches.

        Drives ``engine`` over the request stream once and reads the
        per-request busy time from its stats — the batched service time
        the production queueing model should consume.  For a larger
        sample pass more requests: replaying the same ones would time
        the engine's result cache, not the retriever.
        """
        busy_before = engine.stats.total_busy_seconds
        count_before = engine.stats.requests
        engine.serve(queries, preclicks, k=k)
        busy = engine.stats.total_busy_seconds - busy_before
        count = engine.stats.requests - count_before
        self._service_seconds = busy / max(count, 1)
        return self._service_seconds

    @property
    def service_seconds(self) -> float:
        if self._service_seconds is None:
            raise RuntimeError("call measure_service_time() first")
        return self._service_seconds

    def size_fleet(self, qps: float, target_utilisation: float = 0.8) -> int:
        """Workers needed to serve ``qps`` at the target utilisation.

        Sets (and returns) ``num_workers = ceil(qps · service /
        target_utilisation)`` from the measured service time, replacing
        the by-hand ``sim.num_workers = ...`` mutation callers used to
        do.  Requires a measured (or injected) service time.
        """
        if qps <= 0:
            raise ValueError("qps must be > 0, got %r" % qps)
        if not 0.0 < target_utilisation <= 1.0:
            raise ValueError("target_utilisation must be in (0, 1], got %r"
                             % target_utilisation)
        offered = qps * self.service_seconds
        self.num_workers = max(1, int(math.ceil(offered / target_utilisation)))
        return self.num_workers

    def sweep(self, qps_values: Sequence[float]) -> List[ServingStats]:
        """Mean response time for each offered load (paper Fig. 9)."""
        service_rate = 1.0 / self.service_seconds
        stats: List[ServingStats] = []
        for qps in qps_values:
            wait = erlang_c_wait(qps, service_rate, self.num_workers)
            response = wait + self.service_seconds
            stats.append(ServingStats(
                qps=float(qps),
                response_time_ms=1000.0 * response,
                utilisation=qps / (self.num_workers * service_rate)))
        return stats

    def predict_wait(self, qps: float, ca2: float = 1.0,
                     cs2: float = 1.0) -> float:
        """Predicted mean queueing wait (seconds) at offered load ``qps``.

        With the default ``ca2 = cs2 = 1`` this is the plain Erlang-C
        (M/M/c) wait; pass the measured squared coefficients of
        variation to get the :func:`allen_cunneen_wait` G/G/c
        correction — the prediction the admission-layer calibration
        (``benchmarks/bench_serving_async.py``) compares against.
        """
        return allen_cunneen_wait(qps, 1.0 / self.service_seconds,
                                  self.num_workers, ca2=ca2, cs2=cs2)

    def saturation_qps(self) -> float:
        """Offered load at which the fleet saturates (λ = c·μ)."""
        return self.num_workers / self.service_seconds
