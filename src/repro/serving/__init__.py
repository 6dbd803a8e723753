"""Serving subsystem: admission control, micro-batched engine, traffic, queue model.

The online half of the deployment (paper §IV-C, Fig. 6/9, Table V),
layered front to back:

- :mod:`repro.serving.admission` — :class:`AdmissionController`, the
  SLO-aware layer in front of the engine: arrival-timestamped bounded
  queue, work-conserving micro-batching (a batch leaves as soon as a
  worker is free), paid/organic priority lanes, backpressure +
  deadline load-shedding, and per-request queue/service latency
  percentiles in :class:`AdmissionStats`;
- :mod:`repro.serving.engine` — :class:`ServingEngine`, which serves
  request streams and admission-formed batches, answers repeat
  requests from an exact cache of finished results (an LRU behind a
  frequency-counted admission gate), sends each micro-batch's misses
  through the vectorised retriever, and keeps per-worker and
  per-request timings;
- :mod:`repro.serving.traffic` — :class:`TrafficGenerator`, the
  closed-loop harness replaying Zipf head-skewed queries from real
  behaviour-log sessions over Poisson/bursty/diurnal arrivals, and
  :class:`SyntheticService` for pure-virtual queueing runs;
- :mod:`repro.serving.simulator` — the Erlang-C (M/M/c)
  :class:`ServingSimulator` mapping measured (batched) service times to
  the response-time-vs-QPS curve of paper Fig. 9, with the
  :func:`allen_cunneen_wait` G/G/c correction used to calibrate it
  against the measured admission+engine system.
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionRequest,
    AdmissionStats,
    LANES,
)
from repro.serving.engine import (
    EngineStats,
    LRUCache,
    ServingEngine,
    percentiles,
)
from repro.serving.simulator import (
    ServingSimulator,
    ServingStats,
    allen_cunneen_wait,
    erlang_b,
    erlang_c_wait,
)
from repro.serving.traffic import (
    ARRIVAL_PROCESSES,
    SyntheticService,
    TrafficGenerator,
    TrafficReport,
    TrafficRequest,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionController",
    "AdmissionRequest",
    "AdmissionStats",
    "EngineStats",
    "LANES",
    "LRUCache",
    "ServingEngine",
    "ServingSimulator",
    "ServingStats",
    "SyntheticService",
    "TrafficGenerator",
    "TrafficReport",
    "TrafficRequest",
    "allen_cunneen_wait",
    "erlang_b",
    "erlang_c_wait",
    "percentiles",
]
