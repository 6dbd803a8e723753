"""What the three workloads share: results, traced blocks, stats adapter."""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import boundaries

#: where runs may write: inside the checkout, already git-ignored
SCRATCH = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "results" / "e2e")

#: the ``examples/configs/tiny.json`` universe, for the tier-1 smoke test
TINY_UNIVERSE = dict(num_queries=220, num_items=320, num_ads=90,
                     num_users=160, tree_depth=3, tree_branching=2)


@dataclasses.dataclass
class Measured:
    """The workload-side end-to-end figures of one untraced run."""

    work_per_s: float
    op_ms_p50: float
    op_ms_tail: float
    result_quality: float
    attempted: int
    failed: int
    #: names of the correctness gates that failed (each is a failed op)
    gate_failures: List[str]
    #: sample counts, window sizes and anything else a reader needs to
    #: interpret the figures; printed, never compared
    notes: Dict[str, object]


def check_gates(gates: Dict[str, bool]) -> List[str]:
    """Names of the gates that do not hold."""
    return [name for name, ok in gates.items() if not ok]


def another_window_fits(elapsed: float, windows: int, seconds: float,
                        min_windows: int = 1) -> bool:
    """Whether to time one more whole window.

    Timed regions are time-bounded, so a slow host fits fewer windows
    instead of running longer: another window starts only while one of
    the average length so far still fits in ``seconds``.
    """
    if windows < min_windows:
        return True
    return elapsed + elapsed / windows <= seconds


def op_span(tracer: Optional[boundaries.Tracer], name: str):
    """The root span of one op on a traced pass, nothing otherwise."""
    return tracer.root(name) if tracer is not None \
        else contextlib.nullcontext()


def host_probe_ms() -> float:
    """A fixed numpy + Python load (about 20 ms on the reference host).

    Tells a reader which host regime a traced run sat in; never used
    to scale a metric (normalising by it was measured not to help).
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    start = time.perf_counter()
    for _ in range(40):
        a = np.tanh(a @ a.T / 160.0)
    total = 0
    for i in range(200000):
        total += i * i % 7
    return 1000.0 * (time.perf_counter() - start)


@dataclasses.dataclass
class TracedBlocks:
    """Equal untraced and traced work, interleaved block by block."""

    tracer: boundaries.Tracer
    untraced_seconds: float = 0.0
    traced_seconds: float = 0.0
    probes_ms: List[float] = dataclasses.field(default_factory=list)

    def run(self, blocks: int,
            block: Callable[[Optional[boundaries.Tracer]], float]) -> None:
        """``block(tracer_or_None)`` does a fixed amount of work and
        returns its timed wall; interleaving keeps both halves in the
        same host regime, so their difference is the tracing overhead.
        """
        for _ in range(blocks):
            self.probes_ms.append(host_probe_ms())
            self.untraced_seconds += block(None)
            with boundaries.installed(self.tracer):
                self.traced_seconds += block(self.tracer)

    def common_metrics(self) -> Dict[str, float]:
        return {
            "trace.overhead_share": (self.traced_seconds
                                     - self.untraced_seconds)
            / self.untraced_seconds,
            "trace.unattributed_share": self.tracer.unattributed_share(),
            "bench.host_probe_ms": statistics.median(self.probes_ms),
        }


def read_stats(stats) -> Dict[str, object]:
    """The one place that knows the field names of the serving stats.

    Accepts an ``EngineStats`` or an ``AdmissionStats``; ROADMAP item 1
    turns both into views over a metrics registry, and then only this
    function changes.
    """
    if hasattr(stats, "cache_hits"):
        return {"cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "degraded_requests": stats.degraded_requests}
    return {"offered": stats.offered, "served": stats.served,
            "shed": stats.shed,
            "wait_ms": [1000.0 * s for s in stats.queue_wait_seconds],
            "latency_ms": [1000.0 * s for s in stats.latency_seconds],
            "service_seconds": stats.service_seconds,
            "batch_sizes": stats.batch_sizes}


def reset_engine_stats(engine) -> None:
    """Drop the engine's per-request sample lists.

    They grow by one float per request, so an untraced run that kept
    them would report a peak RSS that depends on how many windows the
    host fitted in.
    """
    engine.stats = type(engine.stats)(
        worker_busy_seconds=[0.0] * engine.num_workers)
