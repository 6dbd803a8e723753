"""Async serving plane: admission-controller calibration + load sweep.

Closes the loop the admission layer (PR 7) was built for: drive the
real :class:`ServingEngine` through the SLO-aware
:class:`AdmissionController` with session-replayed traffic and check
the measured queueing behaviour against the Erlang-C capacity model.

Four parts land in ``BENCH_serving_async.json``:

- **calibration sweep** — Poisson traffic at 0.3/0.5/0.7/0.85 of the
  measured saturation point (``workers / mean service time``) plus a
  1.4x overload point.  Per point: measured mean/percentile waits vs.
  the ``allen_cunneen_wait`` prediction fed with the in-run measured
  service mean and squared CV.  Each point is the **median of three
  seeded runs** of ~1.2k requests, and every run **re-probes the
  service time immediately before driving**: on shared hardware the
  engine's service time drifts with machine load, so an offered rate
  pinned to a stale probe can silently cross the real saturation
  point, and a single multi-ms OS stall cascades through a run's queue
  and can inflate its mean wait several-fold — the fresh probe handles
  the drift, the median handles the stalls.  Gates at
  ``--scale >= 1``: no shedding below saturation (across all runs),
  shedding above it, served p99 wait within the deadline (a
  construction guarantee worth re-measuring), and the median
  measured/predicted mean-wait ratio within **[0.4, 2.5]** at the
  0.5/0.7/0.85 points (the documented band);
- **arrival processes** — the same offered load (0.7 of saturation)
  under a *tight* 5x-service deadline, over a synthetic exponential
  service so the comparison is noise-free: bursty (MMPP) traffic must
  shed more than Poisson at equal mean rate — the reason capacity
  plans cannot be made from mean QPS alone;
- **priority lanes** — 1.4x overload with half the queue reserved:
  the paid lane must shed at a lower rate than organic;
- **batched dispatch** — the only leg with ``max_batch`` above 1, so
  the only one that sees how the dispatcher forms batches: one seeded
  stream through one worker of a cached engine at its batch width,
  offered at 0.1/0.5/0.9/1.2x the saturation measured with full-width
  batches.  Per point: latency and wait p50/p99, mean batch size,
  achieved qps, shed.  Gates at ``--scale >= 1``: mean batch size
  never falls as load rises, reaches 0.9x ``max_batch`` at 1.2x, and
  the p50 wait at 0.1x is 0 (a request that finds a worker idle is
  served at once).

Run directly (``PYTHONPATH=src python benchmarks/bench_serving_async.py
[--scale X] [--out PATH]``); CI runs ``--scale 0.05`` as a smoke.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import build_graph
from repro.models import make_model
from repro.retrieval import IndexSet, TwoLayerRetriever
from repro.serving import (
    AdmissionController,
    ServingEngine,
    SyntheticService,
    TrafficGenerator,
    allen_cunneen_wait,
    erlang_c_wait,
)
from repro.training import Trainer, TrainerConfig

FLEET = 4                      # virtual workers in front of the engine
SUB_SATURATION = (0.3, 0.5, 0.7, 0.85)
OVERLOAD = 1.4
CALIBRATION_LOADS = (0.5, 0.7, 0.85)   # points the ratio gate applies to
RATIO_BAND = (0.4, 2.5)
REQUESTS_PER_POINT = 1200
RUNS_PER_POINT = 3             # median across runs de-noises OS stalls
PROBE_REQUESTS = 200           # fresh service probe before every run
MAX_QUEUE = 512
#: the bench SLO: a queue-wait budget of 40x the measured mean service
DEADLINE_SERVICE_MULTIPLE = 40.0

#: batched leg: loads as fractions of full-width-batch saturation
BATCHED_LOADS = (0.1, 0.5, 0.9, 1.2)
BATCHED_REQUESTS = 2400
#: result-cache entries, below the stream's ~360 distinct signatures:
#: every pass keeps a miss path, as on the e2e ``serve_zipf`` stream
BATCHED_CACHE = 256
BATCHED_SATURATION_PASSES = 3

SYNTH_SERVICE_SECONDS = 0.01
SYNTH_REQUESTS = 4000
SYNTH_DEADLINE_MS = 50.0       # 5x service: tight enough to shed


def _build_engine(seed: int = 7) -> ServingEngine:
    simulator = SponsoredSearchSimulator(SimulatorConfig(
        num_queries=220, num_items=320, num_ads=90, num_users=160,
        tree_depth=3, tree_branching=2, seed=seed))
    logs = simulator.simulate_days(1)
    graph = build_graph(simulator.universe, logs)
    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                       seed=seed)
    Trainer(model, TrainerConfig(steps=12, batch_size=32, seed=seed)).train()
    retriever = TwoLayerRetriever(IndexSet(model, top_k=15).build(),
                                  expansion_k=4, ads_per_key=4)
    # no result cache: a cache that keeps warming across sweep points
    # makes the service process non-stationary, so the probed
    # saturation point drifts and the calibration is meaningless
    engine = ServingEngine(retriever, max_batch_size=FLEET, cache_size=0)
    return engine, logs


def _measure_service(engine, traffic, requests: int) -> float:
    """Warm the cache and measure the mean single-request service time."""
    probe = traffic.generate(qps=100.0, duration=requests / 100.0, seed=99)
    before_busy = engine.stats.total_busy_seconds
    before_n = engine.stats.requests
    for request in probe:
        engine.serve_batch([request.query], [request.preclicks])
    return ((engine.stats.total_busy_seconds - before_busy)
            / max(engine.stats.requests - before_n, 1))


def _run_point(engine, traffic, fraction: float, requests: int,
               probe_requests: int, seed: int) -> dict:
    """One seeded run: fresh service probe, then the closed-loop drive."""
    service = _measure_service(engine, traffic, probe_requests)
    saturation_qps = FLEET / service
    deadline_ms = 1000.0 * DEADLINE_SERVICE_MULTIPLE * service
    qps = fraction * saturation_qps
    ctrl = AdmissionController(engine, max_queue=MAX_QUEUE,
                               deadline_ms=deadline_ms, max_batch=1,
                               num_workers=FLEET)
    report = traffic.drive(ctrl, qps=qps, duration=requests / qps,
                           seed=seed)
    payload = _point_payload(ctrl, report, fraction)
    payload.update({
        "probe_service_ms": 1000.0 * service,
        "saturation_qps": saturation_qps,
        "deadline_ms": deadline_ms,
        "p99_within_deadline": bool(
            report.wait_ms["p99"] <= deadline_ms + 1e-9),
    })
    return payload


def _point_payload(ctrl, report, load_fraction: float) -> dict:
    stats = ctrl.stats
    samples = np.asarray(stats.service_seconds, dtype=np.float64)
    mean_service = float(samples.mean()) if samples.size else 0.0
    cs2 = (float(samples.var() / mean_service ** 2)
           if mean_service > 0 else 0.0)
    arrival_rate = stats.served / report.duration
    corrected = (allen_cunneen_wait(arrival_rate, 1.0 / mean_service,
                                    FLEET, cs2=cs2)
                 if mean_service > 0 else 0.0)
    raw = (erlang_c_wait(arrival_rate, 1.0 / mean_service, FLEET)
           if mean_service > 0 else 0.0)
    measured = stats.mean_wait_seconds
    return {
        "load_fraction": load_fraction,
        "target_qps": report.target_qps,
        "offered": report.offered,
        "served": report.served,
        "achieved_qps": report.achieved_qps,
        "shed": report.shed,
        "shed_queue": stats.shed_queue,
        "shed_deadline": stats.shed_deadline,
        "shed_rate": report.shed_rate,
        "service_ms": {"mean": 1000.0 * mean_service, "cs2": cs2},
        "mean_wait_ms": 1000.0 * measured,
        "wait_ms": report.wait_ms,
        "latency_ms": report.latency_ms,
        "predicted_wait_ms": {"erlang_c": 1000.0 * raw,
                              "allen_cunneen": 1000.0 * corrected},
        "ratio_vs_predicted": (measured / corrected if corrected > 0
                               else None),
    }


def _sweep(engine, traffic, scale: float) -> dict:
    requests = max(int(REQUESTS_PER_POINT * scale), 40)
    probe_requests = max(int(PROBE_REQUESTS * scale), 40)
    # one throwaway warm-up pass so the first probe isn't cold
    _measure_service(engine, traffic, probe_requests)
    points = []
    for i, fraction in enumerate(SUB_SATURATION + (OVERLOAD,)):
        runs = [_run_point(engine, traffic, fraction, requests,
                           probe_requests, seed=100 + 10 * i + r)
                for r in range(RUNS_PER_POINT)]
        ratios = sorted(run["ratio_vs_predicted"] for run in runs
                        if run["ratio_vs_predicted"] is not None)
        points.append({
            "load_fraction": fraction,
            "median_target_qps": sorted(
                run["target_qps"] for run in runs)[len(runs) // 2],
            "runs": runs,
            "shed_total": sum(run["shed"] for run in runs),
            "median_mean_wait_ms": sorted(
                run["mean_wait_ms"] for run in runs)[len(runs) // 2],
            "median_ratio_vs_predicted": (
                ratios[len(ratios) // 2] if ratios else None),
            "max_p99_wait_ms": max(run["wait_ms"]["p99"] for run in runs),
            "p99_within_deadline": all(run["p99_within_deadline"]
                                       for run in runs),
        })
    all_runs = [run for p in points for run in p["runs"]]
    return {
        "fleet": FLEET,
        "max_queue": MAX_QUEUE,
        "requests_per_point": requests,
        "runs_per_point": RUNS_PER_POINT,
        "probe_requests": probe_requests,
        "median_probe_service_ms": sorted(
            run["probe_service_ms"]
            for run in all_runs)[len(all_runs) // 2],
        "median_saturation_qps": sorted(
            run["saturation_qps"] for run in all_runs)[len(all_runs) // 2],
        "deadline_service_multiple": DEADLINE_SERVICE_MULTIPLE,
        "ratio_band": list(RATIO_BAND),
        "calibration_loads": list(CALIBRATION_LOADS),
        "points": points,
    }


def _batched(engine, traffic, scale: float) -> dict:
    """Dispatch at the engine's batch width over a cached engine."""
    cached = ServingEngine(engine.retriever, cache_size=BATCHED_CACHE)
    width = cached.max_batch_size
    requests = max(int(BATCHED_REQUESTS * scale), 4 * width)
    base_qps = 1000.0
    stream = traffic.generate(qps=base_qps, duration=requests / base_qps,
                              seed=41)
    chunks = [stream[i:i + width] for i in range(0, len(stream), width)]

    def full_batch_pass() -> float:
        start = time.perf_counter()
        for chunk in chunks:
            cached.serve_batch([r.query for r in chunk],
                               [r.preclicks for r in chunk])
        return time.perf_counter() - start

    # one warm pass fills the cache with the stream's head; later passes
    # start near that state, not exactly in it (admission counts keep
    # growing and halving); saturation is one full-width worker
    full_batch_pass()
    walls = sorted(full_batch_pass()
                   for _ in range(BATCHED_SATURATION_PASSES))
    saturation_qps = len(stream) / walls[len(walls) // 2]
    batch_service = walls[len(walls) // 2] / len(chunks)
    deadline_ms = 1000.0 * DEADLINE_SERVICE_MULTIPLE * batch_service
    points = []
    for fraction in BATCHED_LOADS:
        qps = fraction * saturation_qps
        stretch = base_qps / qps
        hits_before = cached.stats.cache_hits
        ctrl = AdmissionController(cached, max_queue=MAX_QUEUE,
                                   deadline_ms=deadline_ms, max_batch=width)
        for r in stream:
            ctrl.offer(r.arrival * stretch, r.query, r.preclicks,
                       lane=r.lane)
        makespan = ctrl.drain()
        summary = ctrl.stats.summary()
        points.append({
            "load_fraction": fraction,
            "target_qps": qps,
            "offered": summary["offered"],
            "served": summary["served"],
            "shed": summary["shed"],
            "achieved_qps": summary["served"] / makespan,
            "mean_batch_size": summary["mean_batch_size"],
            "wait_ms": summary["wait_ms"],
            "latency_ms": summary["latency_ms"],
            "cache_hit_ratio": ((cached.stats.cache_hits - hits_before)
                                / max(summary["served"], 1)),
        })
    return {"max_batch": width, "cache_size": BATCHED_CACHE,
            "requests": len(stream), "saturation_qps": saturation_qps,
            "full_batch_service_ms": 1000.0 * batch_service,
            "deadline_ms": deadline_ms, "points": points}


def _arrival_processes(logs, scale: float) -> dict:
    requests = max(int(SYNTH_REQUESTS * scale), 60)
    qps = 0.7 * FLEET / SYNTH_SERVICE_SECONDS
    out = {"target_qps": qps, "requests": requests,
           "deadline_ms": SYNTH_DEADLINE_MS,
           "service_ms": 1000.0 * SYNTH_SERVICE_SECONDS}
    for process in ("poisson", "bursty", "diurnal"):
        traffic = TrafficGenerator(logs, process=process, seed=21)
        svc = SyntheticService(SYNTH_SERVICE_SECONDS, "exponential",
                               seed=22)
        ctrl = AdmissionController(svc, max_queue=MAX_QUEUE,
                                   deadline_ms=SYNTH_DEADLINE_MS,
                                   max_batch=1, num_workers=FLEET)
        report = traffic.drive(ctrl, qps=qps, duration=requests / qps)
        out[process] = {
            "offered": report.offered,
            "shed_rate": report.shed_rate,
            "mean_wait_ms": report.mean_wait_ms,
            "wait_ms": report.wait_ms,
        }
    return out


def _priority_lanes(logs, scale: float) -> dict:
    requests = max(int(SYNTH_REQUESTS * scale), 60)
    qps = OVERLOAD * FLEET / SYNTH_SERVICE_SECONDS
    traffic = TrafficGenerator(logs, paid_share=0.25, seed=31)
    svc = SyntheticService(SYNTH_SERVICE_SECONDS, "exponential", seed=32)
    ctrl = AdmissionController(svc, max_queue=64,
                               deadline_ms=SYNTH_DEADLINE_MS,
                               max_batch=1, num_workers=FLEET,
                               priority_share=0.5)
    traffic.drive(ctrl, qps=qps, duration=requests / qps)
    stats = ctrl.stats
    rates = {lane: (stats.shed_by_lane[lane]
                    / max(stats.offered_by_lane[lane], 1))
             for lane in ("paid", "organic")}
    return {"target_qps": qps, "priority_share": 0.5,
            "paid_share": 0.25, "offered_by_lane": dict(stats.offered_by_lane),
            "shed_rate_by_lane": rates}


def _gates(sweep: dict, processes: dict, priority: dict,
           batched: dict) -> dict:
    by_load = {p["load_fraction"]: p for p in sweep["points"]}
    below = [by_load[f] for f in SUB_SATURATION]
    overload = by_load[OVERLOAD]
    ratios = {f: by_load[f]["median_ratio_vs_predicted"]
              for f in CALIBRATION_LOADS}
    sizes = [p["mean_batch_size"] for p in batched["points"]]
    return {
        "no_shed_below_saturation": all(p["shed_total"] == 0
                                        for p in below),
        "shed_above_saturation": overload["shed_total"] > 0,
        "p99_wait_within_deadline": all(p["p99_within_deadline"]
                                        for p in sweep["points"]),
        "calibrated_within_band": all(
            r is not None and RATIO_BAND[0] <= r <= RATIO_BAND[1]
            for r in ratios.values()),
        "calibration_ratios": ratios,
        "bursty_sheds_more_than_poisson": (
            processes["bursty"]["shed_rate"]
            > processes["poisson"]["shed_rate"]),
        "paid_lane_sheds_less": (
            priority["shed_rate_by_lane"]["paid"]
            < priority["shed_rate_by_lane"]["organic"]),
        "batch_size_rises_with_load": all(
            a <= b for a, b in zip(sizes, sizes[1:])),
        "batches_fill_past_saturation": (
            sizes[-1] >= 0.9 * batched["max_batch"]),
        "no_wait_at_low_load": (
            batched["points"][0]["wait_ms"]["p50"] == 0.0),
    }


def main(argv=None) -> int:
    parser = bench_parser(
        "serving_async",
        "SLO-aware admission control: calibration sweep, arrival "
        "processes, priority lanes")
    args = parser.parse_args(argv)

    engine, logs = _build_engine()
    traffic = TrafficGenerator(logs, paid_share=0.25, seed=11)

    sweep = _sweep(engine, traffic, args.scale)
    processes = _arrival_processes(logs, args.scale)
    priority = _priority_lanes(logs, args.scale)
    batched = _batched(engine, traffic, args.scale)
    gates = _gates(sweep, processes, priority, batched)

    payload = {
        "scale": args.scale,
        "sweep": sweep,
        "arrival_processes": processes,
        "priority": priority,
        "batched": batched,
        "gates": gates,
    }
    write_json_out(args.out, payload)

    print("median saturation %.0f qps (fleet %d, service %.3f ms); "
          "deadline %gx service"
          % (sweep["median_saturation_qps"], FLEET,
             sweep["median_probe_service_ms"],
             sweep["deadline_service_multiple"]))
    for p in sweep["points"]:
        ratio = p["median_ratio_vs_predicted"]
        offered = sum(run["offered"] for run in p["runs"])
        print("  load %.2f  qps %7.0f  median wait %6.3f ms  max p99 "
              "%6.3f ms  shed %5.1f%%  measured/predicted %s"
              % (p["load_fraction"], p["median_target_qps"],
                 p["median_mean_wait_ms"], p["max_p99_wait_ms"],
                 100.0 * p["shed_total"] / max(offered, 1),
                 "%.2f" % ratio if ratio is not None else "n/a"))
    print("arrival processes @0.7 load: shed poisson %.1f%%  bursty %.1f%%"
          "  diurnal %.1f%%"
          % tuple(100.0 * processes[p]["shed_rate"]
                  for p in ("poisson", "bursty", "diurnal")))
    print("priority @%.1fx overload: shed paid %.1f%%  organic %.1f%%"
          % (OVERLOAD,
             100.0 * priority["shed_rate_by_lane"]["paid"],
             100.0 * priority["shed_rate_by_lane"]["organic"]))

    print("batched @ width %d, one worker, saturation %.0f qps:"
          % (batched["max_batch"], batched["saturation_qps"]))
    for p in batched["points"]:
        print("  load %.1f  achieved %7.0f qps  batch %5.2f  wait p50 %.3f "
              "ms  latency p50/p99 %.3f/%.3f ms  shed %d"
              % (p["load_fraction"], p["achieved_qps"], p["mean_batch_size"],
                 p["wait_ms"]["p50"], p["latency_ms"]["p50"],
                 p["latency_ms"]["p99"], p["shed"]))

    if args.scale >= 1.0:
        failed = [name for name, ok in gates.items()
                  if isinstance(ok, bool) and not ok]
        if failed:
            print("FAIL: %s" % ", ".join(failed))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
