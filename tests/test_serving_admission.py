"""Admission layer: bounded queue, lanes, dispatch-when-free, calibration.

The calibration tests are the contract that makes the Erlang-C
:class:`ServingSimulator` a trustworthy capacity-planning tool:

- over a :class:`SyntheticService` with exponential draws the
  controller at ``max_batch=1`` *is* an M/M/c queue, and its measured
  mean wait must match ``erlang_c_wait`` within **±35%** (sampling
  noise of ~8k requests at a fixed seed — the documented tight band);
- with deterministic service it is M/D/c and must match the
  ``allen_cunneen_wait`` correction (``cs2=0``) within the same band;
- with the *real* :class:`ServingEngine` in the loop, measured service
  times are noisy on shared CI hardware, so the documented band is
  wide (**ratio in [0.2, 5]** at three sub-saturation loads) — the
  tight engine-backed agreement gate lives in
  ``benchmarks/bench_serving_async.py`` where thousands of requests
  amortise the noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import (
    AdmissionController,
    AdmissionStats,
    LANES,
    ServingEngine,
    SyntheticService,
    TrafficGenerator,
    allen_cunneen_wait,
    erlang_c_wait,
)
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def retriever(train_graph):
    model = make_model("amcad", train_graph, num_subspaces=2, subspace_dim=4,
                       seed=23)
    Trainer(model, TrainerConfig(steps=12, batch_size=32, seed=23)).train()
    return TwoLayerRetriever(IndexSet(model, top_k=15).build(),
                             expansion_k=4, ads_per_key=4)


def det_service(mean=0.01, max_batch=1):
    return SyntheticService(mean, "deterministic", max_batch_size=max_batch)


class TestAdmissionQueue:
    def test_fill_dispatch(self):
        """Batches fill behind a busy worker: a 70-burst is 1, 32, 32, 5."""
        ctrl = AdmissionController(det_service(mean=0.001), max_batch=32,
                                   deadline_ms=1e6, num_workers=1)
        for i in range(70):
            assert ctrl.offer(0.0, query=i)
        ctrl.drain()
        # the first request finds the worker idle and leaves alone; the
        # other 69 queued behind it and leave in full batches
        assert ctrl.stats.batch_sizes == [1, 32, 32, 5]
        assert ctrl.depth == 0
        dispatches = sorted(set(ctrl.stats.queue_wait_seconds))
        assert dispatches == pytest.approx([0.0, 0.001, 0.033, 0.065])

    def test_deadline_dispatch(self):
        """The deadline no longer holds a partial batch back."""
        ctrl = AdmissionController(det_service(), max_batch=100,
                                   deadline_ms=20.0, num_workers=1)
        ctrl.offer(0.0, query=0)
        ctrl.offer(0.005, query=1)      # worker idle at 0: #0 left alone
        assert ctrl.stats.batch_sizes == [1]
        assert ctrl.depth == 1
        ctrl.offer(0.05, query=2)       # #1 left when the worker freed
        ctrl.drain()
        assert ctrl.stats.batch_sizes == [1, 1, 1]
        assert ctrl.stats.queue_wait_seconds == pytest.approx(
            [0.0, 0.005, 0.0])

    def test_idle_worker_serves_at_once(self):
        """Inter-arrival above service time: every batch 1, every wait 0."""
        ctrl = AdmissionController(det_service(mean=0.004), max_batch=32,
                                   deadline_ms=50.0, num_workers=1)
        for i in range(40):
            ctrl.offer(0.005 * i, query=i)
        ctrl.drain()
        assert ctrl.stats.batch_sizes == [1] * 40
        assert ctrl.stats.queue_wait_seconds == [0.0] * 40

    def test_busy_worker_batches_at_free_time(self):
        """Arrivals behind a busy worker leave together when it frees."""
        ctrl = AdmissionController(det_service(), max_batch=32,
                                   deadline_ms=50.0, num_workers=1)
        for i, t in enumerate([0.0, 0.001, 0.002, 0.003]):
            ctrl.offer(t, query=i)
        ctrl.drain()
        assert ctrl.stats.batch_sizes == [1, 3]
        assert ctrl.stats.queue_wait_seconds == pytest.approx(
            [0.0, 0.009, 0.008, 0.007])
        # deterministic service: 10 ms per request, summed per batch
        assert ctrl.stats.service_seconds == pytest.approx(
            [0.01, 0.03, 0.03, 0.03])

    def test_backpressure_shed_at_watermark(self):
        ctrl = AdmissionController(det_service(), max_queue=2, max_batch=100,
                                   deadline_ms=1e6, num_workers=1)
        # a long first request occupies the worker; the watermark counts
        # queued requests, not the one in service
        assert ctrl.offer(0.0, query=99)
        admitted = [ctrl.offer(0.0, query=i) for i in range(5)]
        assert admitted == [True, True, False, False, False]
        assert ctrl.stats.admitted == 3
        assert ctrl.stats.shed_queue == 3
        assert ctrl.stats.shed_rate == pytest.approx(3 / 6)

    def test_priority_reservation(self):
        """priority_share of the queue only admits the paid lane."""
        ctrl = AdmissionController(det_service(), max_queue=4, max_batch=100,
                                   deadline_ms=1e6, priority_share=0.5)
        assert ctrl.offer(0.0, query=99, lane="paid")   # occupies the worker
        assert ctrl.offer(0.0, query=0, lane="organic")
        assert ctrl.offer(0.0, query=1, lane="organic")
        # organic stops at (1 - 0.5) * max_queue = 2...
        assert not ctrl.offer(0.0, query=2, lane="organic")
        # ...but paid fills the reserved half
        assert ctrl.offer(0.0, query=3, lane="paid")
        assert ctrl.offer(0.0, query=4, lane="paid")
        assert not ctrl.offer(0.0, query=5, lane="paid")
        assert ctrl.stats.shed_by_lane == {"paid": 1, "organic": 1}

    def test_strict_priority_dequeue(self):
        """Paid drains first even when organic arrived earlier."""
        ctrl = AdmissionController(det_service(), max_batch=3,
                                   deadline_ms=1e6, keep_results=True)
        ctrl.offer(0.0, query=99)       # occupies the worker until 0.01
        ctrl.offer(0.0, query=0, lane="organic")
        ctrl.offer(0.001, query=1, lane="paid")
        ctrl.offer(0.002, query=2, lane="paid")
        ctrl.drain()
        lanes = [request.lane for request, _ in ctrl.results[1:]]
        assert lanes == ["paid", "paid", "organic"]
        assert ctrl.stats.batch_sizes == [1, 3]

    def test_deadline_shed_when_workers_saturated(self):
        """Requests that outwaited their budget are dropped at dispatch."""
        ctrl = AdmissionController(det_service(mean=0.05), max_batch=1,
                                   deadline_ms=10.0, num_workers=1)
        ctrl.offer(0.0, query=0)        # dispatches at t=0, busy until 0.05
        ctrl.offer(0.001, query=1)      # expires at 0.011 < 0.05
        ctrl.offer(0.002, query=2)      # expires at 0.012 < 0.05
        ctrl.drain()
        assert ctrl.stats.served == 1
        assert ctrl.stats.shed_deadline == 2

    def test_served_wait_bounded_by_deadline(self, daily_logs):
        """Construction guarantee: an admitted+served wait <= deadline."""
        svc = SyntheticService(0.01, "exponential", seed=4)
        ctrl = AdmissionController(svc, max_queue=64, deadline_ms=25.0,
                                   max_batch=1, num_workers=2)
        traffic = TrafficGenerator(daily_logs[:1], seed=6)
        traffic.drive(ctrl, qps=1.5 * 2 / 0.01, duration=2.0)  # overloaded
        assert ctrl.stats.shed > 0
        assert max(ctrl.stats.queue_wait_seconds) <= 0.025 + 1e-12
        # latency of admitted requests = wait + its batch's service
        for wait, service, latency in zip(ctrl.stats.queue_wait_seconds,
                                          ctrl.stats.service_seconds,
                                          ctrl.stats.latency_seconds):
            assert latency == pytest.approx(wait + service)

    def test_arrivals_must_be_monotonic(self):
        ctrl = AdmissionController(det_service())
        ctrl.offer(1.0, query=0)
        with pytest.raises(ValueError, match="non-decreasing"):
            ctrl.offer(0.5, query=1)

    def test_unknown_lane_rejected(self):
        ctrl = AdmissionController(det_service())
        with pytest.raises(ValueError, match="lane"):
            ctrl.offer(0.0, query=0, lane="platinum")

    def test_validation(self):
        engine = det_service()
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(engine, max_queue=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            AdmissionController(engine, deadline_ms=0.0)
        with pytest.raises(ValueError, match="num_workers"):
            AdmissionController(engine, num_workers=0)
        with pytest.raises(ValueError, match="priority_share"):
            AdmissionController(engine, priority_share=1.5)
        with pytest.raises(ValueError, match="max_batch"):
            AdmissionController(engine, max_batch=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            AdmissionController(det_service(), k=k)

    def test_max_batch_adopts_engine_width(self):
        ctrl = AdmissionController(det_service(max_batch=7))
        assert ctrl.max_batch == 7

    def test_idle_stats_are_zero(self):
        stats = AdmissionStats()
        assert stats.shed_rate == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.mean_wait_seconds == 0.0
        assert stats.mean_latency_seconds == 0.0
        assert stats.wait_percentiles() == {"p50": 0.0, "p95": 0.0,
                                            "p99": 0.0}
        assert stats.latency_percentiles() == {"p50": 0.0, "p95": 0.0,
                                               "p99": 0.0}
        summary = stats.summary()
        assert summary["offered"] == 0 and summary["shed_rate"] == 0.0


class TestWorkConserving:
    """The dispatch contract over random traffic, checked from the outside.

    Batches are rebuilt from the stats (served order + ``batch_sizes``);
    a batch occupies a worker over ``[dispatch, dispatch + service)``.
    """

    #: slack for dispatch times rebuilt as ``arrival + wait``
    EPS = 1e-9

    @given(gaps=st.lists(st.sampled_from([0.0, 0.0005, 0.002, 0.004, 0.01])
                         | st.floats(min_value=0.0, max_value=0.02),
                         min_size=1, max_size=60),
           lane_bits=st.lists(st.booleans(), min_size=60, max_size=60),
           workers=st.integers(min_value=1, max_value=3),
           max_batch=st.integers(min_value=1, max_value=8),
           max_queue=st.integers(min_value=1, max_value=40),
           deadline_ms=st.floats(min_value=1.0, max_value=100.0),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_idle_worker_while_work_is_queued(
            self, gaps, lane_bits, workers, max_batch, max_queue,
            deadline_ms, seed):
        svc = SyntheticService(0.004, "exponential", seed=seed)
        ctrl = AdmissionController(svc, max_queue=max_queue,
                                   deadline_ms=deadline_ms,
                                   max_batch=max_batch, num_workers=workers,
                                   keep_results=True)
        arrival = 0.0
        for i, gap in enumerate(gaps):
            arrival += gap
            ctrl.offer(arrival, query=i, lane=LANES[lane_bits[i]])
        ctrl.drain()
        stats = ctrl.stats
        assert ctrl.depth == 0
        assert stats.served + stats.shed == stats.offered == len(gaps)
        assert stats.served == len(ctrl.results) == sum(stats.batch_sizes)
        waits = stats.queue_wait_seconds
        assert all(0.0 <= w <= ctrl.deadline + 1e-12 for w in waits)

        busy, starts, index = [], [], 0
        for size in stats.batch_sizes:
            members = ctrl.results[index:index + size]
            dispatch = members[0][0].arrival + waits[index]
            starts.extend([dispatch] * size)
            busy.append((dispatch, dispatch + stats.service_seconds[index]))
            # paid strictly first, each lane in arrival order
            lanes = [request.lane for request, _ in members]
            assert lanes == sorted(lanes, key=LANES.index)
            for lane in LANES:
                times = [r.arrival for r, _ in members if r.lane == lane]
                assert times == sorted(times)
            index += size

        def in_service(t):
            return sum(1 for lo, hi in busy if lo <= t < hi)

        assert all(in_service(lo + self.EPS) <= workers for lo, _ in busy)
        # a request that waited saw every worker busy the whole time:
        # probe at its arrival and just after each service completion
        for (request, _), wait, start in zip(ctrl.results, waits, starts):
            if wait <= 2 * self.EPS:
                continue
            probes = [request.arrival] + [
                hi for _, hi in busy
                if request.arrival < hi < start - 2 * self.EPS]
            for t in probes:
                assert in_service(t + self.EPS) == workers, \
                    "request %d waited with a worker idle at %.6f" % (
                        request.query, t)


class TestAdmissionOverEngine:
    def test_results_match_direct_retrieval(self, retriever, rng):
        """Admitted requests get the exact answers the engine would give."""
        engine = ServingEngine(retriever, max_batch_size=4)
        ctrl = AdmissionController(engine, max_batch=4, deadline_ms=1e6,
                                   keep_results=True, k=6)
        queries = rng.integers(100, size=12)
        preclicks = [list(rng.integers(40, size=2)) for _ in queries]
        for i, (query, items) in enumerate(zip(queries, preclicks)):
            ctrl.offer(0.001 * i, int(query), items)
        ctrl.drain()
        assert ctrl.stats.served == 12
        direct = retriever.retrieve_batch(queries, preclicks, k=6)
        by_request = {(int(q), tuple(p)): r
                      for q, p, r in zip(queries, preclicks, direct)}
        for request, result in ctrl.results:
            expected = by_request[(request.query,
                                   tuple(request.preclicks))]
            assert np.array_equal(result.ads, expected.ads)
            assert np.allclose(result.scores, expected.scores)

    def test_wait_grows_with_offered_load(self, retriever, daily_logs):
        engine = ServingEngine(retriever, max_batch_size=8, cache_size=512)
        traffic = TrafficGenerator(daily_logs[:1], seed=3)
        waits = []
        for rho, seed in ((0.2, 1), (0.95, 2)):
            ctrl = AdmissionController(engine, max_batch=1, deadline_ms=1e6,
                                       max_queue=10**6, num_workers=1)
            # the probe both warms the LRU and measures the service time
            probe = traffic.generate(qps=100.0, duration=0.5, seed=seed)
            service = self._mean_service(engine, probe)
            traffic.drive(ctrl, qps=rho / service, duration=200 * service,
                          seed=seed)
            waits.append(ctrl.stats.mean_wait_seconds)
        assert waits[0] < waits[1]

    @staticmethod
    def _mean_service(engine, requests):
        before_busy = engine.stats.total_busy_seconds
        before_n = engine.stats.requests
        for request in requests:
            engine.serve_batch([request.query], [request.preclicks])
        return ((engine.stats.total_busy_seconds - before_busy)
                / (engine.stats.requests - before_n))


class TestCalibration:
    """Simulator-vs-measured agreement — the capacity-planning contract."""

    #: documented tolerance: measured/predicted mean wait over a
    #: synthetic service, ~8k fixed-seed requests per load point
    SYNTHETIC_BAND = (0.65, 1.35)
    #: documented tolerance with the real engine in the loop at small
    #: request counts on shared hardware (tight gate: the async bench)
    ENGINE_BAND = (0.2, 5.0)
    LOADS = (0.5, 0.7, 0.85)

    def _measured_wait(self, daily_logs, service_model, qps, workers,
                       seed):
        ctrl = AdmissionController(service_model, max_queue=10**6,
                                   deadline_ms=1e9, max_batch=1,
                                   num_workers=workers)
        traffic = TrafficGenerator(daily_logs[:1], process="poisson",
                                   seed=seed)
        traffic.drive(ctrl, qps=qps, duration=8000.0 / qps)
        return ctrl.stats.mean_wait_seconds

    def test_mmc_agreement_with_erlang_c(self, daily_logs):
        """Exponential service at max_batch=1 is M/M/c: Erlang-C must hold."""
        service, workers = 0.01, 4
        for i, rho in enumerate(self.LOADS):
            qps = rho * workers / service
            svc = SyntheticService(service, "exponential", seed=40 + i)
            measured = self._measured_wait(daily_logs, svc, qps, workers,
                                           seed=50 + i)
            predicted = erlang_c_wait(qps, 1.0 / service, workers)
            ratio = measured / predicted
            assert self.SYNTHETIC_BAND[0] <= ratio <= self.SYNTHETIC_BAND[1], \
                "rho=%.2f: measured %.6fs vs Erlang-C %.6fs (ratio %.2f)" \
                % (rho, measured, predicted, ratio)

    def test_mdc_agreement_with_corrected_wait(self, daily_logs):
        """Deterministic service is M/D/c: the cs2=0 correction must hold."""
        service, workers = 0.01, 4
        for i, rho in enumerate(self.LOADS):
            qps = rho * workers / service
            svc = SyntheticService(service, "deterministic")
            measured = self._measured_wait(daily_logs, svc, qps, workers,
                                           seed=60 + i)
            predicted = allen_cunneen_wait(qps, 1.0 / service, workers,
                                           cs2=0.0)
            ratio = measured / predicted
            assert self.SYNTHETIC_BAND[0] <= ratio <= self.SYNTHETIC_BAND[1], \
                "rho=%.2f: measured %.6fs vs M/D/c %.6fs (ratio %.2f)" \
                % (rho, measured, predicted, ratio)
            # and the raw Erlang-C wait overpredicts a deterministic
            # service — the reason the correction exists
            assert measured < erlang_c_wait(qps, 1.0 / service, workers)

    @pytest.mark.parametrize("cache_size", [0, 2048])
    def test_engine_backed_agreement(self, retriever, daily_logs,
                                     cache_size):
        """Real engine in the loop at three sub-saturation loads.

        Run with the result cache off (every request pays the retriever,
        a stationary service) and at the shipped LRU size, where a hit is
        ~70x cheaper than a miss and the hit share of a stream decides
        its mean service time.  The probe that picks the offered rate is
        therefore the drive's own stream, served by a twin engine warmed
        to the same cache state — it sees the hits and misses the drive
        will see, which an independent 50-request sample does not.

        Wall-clock timing on a loaded host can push a single run
        outside the acceptance band, so each load gets up to three
        attempts over different arrival seeds — a real calibration bug
        fails all of them.
        """
        traffic = TrafficGenerator(daily_logs[:1], process="poisson", seed=9)
        warm = traffic.generate(qps=100.0, duration=1.0)

        def warmed_engine():
            engine = ServingEngine(retriever, max_batch_size=4,
                                   cache_size=cache_size)
            for request in warm:
                engine.serve_batch([request.query], [request.preclicks])
            return engine

        workers, base_qps, horizon = 2, 100.0, 3.0
        for i, rho in enumerate(self.LOADS):
            last_failure = None
            for attempt in range(3):
                stream = traffic.generate(qps=base_qps, duration=horizon,
                                          seed=80 + i + 1000 * attempt)
                twin, engine = warmed_engine(), warmed_engine()
                service = TestAdmissionOverEngine._mean_service(twin, stream)
                # same requests, arrivals rescaled to the target load
                stretch = base_qps * service / (rho * workers)
                ctrl = AdmissionController(engine, max_queue=10**6,
                                           deadline_ms=1e9, max_batch=1,
                                           num_workers=workers)
                for request in stream:
                    ctrl.offer(request.arrival * stretch, request.query,
                               request.preclicks, lane=request.lane)
                ctrl.drain()
                assert ctrl.stats.served == len(stream)
                assert engine.stats.cache_hits == twin.stats.cache_hits
                samples = np.asarray(ctrl.stats.service_seconds)
                mean_service = float(samples.mean())
                cs2 = float(samples.var() / mean_service ** 2)
                predicted = allen_cunneen_wait(
                    len(stream) / (horizon * stretch), 1.0 / mean_service,
                    workers, cs2=cs2)
                ratio = ctrl.stats.mean_wait_seconds / predicted
                if self.ENGINE_BAND[0] <= ratio <= self.ENGINE_BAND[1]:
                    last_failure = None
                    break
                last_failure = (
                    "rho=%.2f: measured %.6fs vs corrected %.6fs (ratio "
                    "%.2f)" % (rho, ctrl.stats.mean_wait_seconds, predicted,
                               ratio))
            assert last_failure is None, last_failure
