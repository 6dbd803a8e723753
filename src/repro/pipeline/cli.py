"""The ``python -m repro`` command line.

Subcommands cover the full lifecycle:

- ``run``    — execute a configured pipeline end to end and persist
  its artifacts (``--config config.json``, dotted ``--set`` overrides);
- ``serve``  — reload a finished run's artifacts and answer retrieval
  requests with no model and no retraining;
- ``index``  — rebuild (and save) the inverted indices from persisted
  artifacts without retraining, e.g. to re-shard or switch backends;
- ``eval``   — recompute the offline metrics from persisted artifacts;
- ``gc``     — prune old published generations (never the live one);
- ``models`` — list the registered model variant names.

Examples::

    python -m repro run --config examples/configs/tiny.json
    python -m repro run --config c.json --set training.steps=500 \
        --set model.name=amcad_e --artifacts artifacts/euclidean
    python -m repro serve --artifacts artifacts/tiny --queries 3,14,15
    python -m repro serve --artifacts artifacts/tiny --requests 64 \
        --qps 500 --set serving.admission_deadline_ms=20
    python -m repro index --artifacts artifacts/tiny \
        --set index.backend=sharded --set index.num_shards=4
    python -m repro eval --artifacts artifacts/tiny
    python -m repro serve --artifacts artifacts/tiny --generation 2
    python -m repro gc --artifacts artifacts/tiny --keep 3
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence

import numpy as np

from repro.models.amcad import list_models
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import Pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AMCAD reproduction pipeline: offline training -> "
                    "index build -> serving, driven by one JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured pipeline end to end")
    run.add_argument("--config", metavar="PATH",
                     help="pipeline config JSON (default: built-in defaults)")
    run.add_argument("--artifacts", metavar="DIR",
                     help="artifact directory (overrides config.artifact_dir)")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE",
                     help="override a config value, e.g. training.steps=500 "
                          "(repeatable; values parsed as JSON)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-stage progress lines")

    serve = sub.add_parser(
        "serve", help="reload artifacts and serve retrieval requests")
    serve.add_argument("--artifacts", metavar="DIR", required=True)
    serve.add_argument("--generation", type=int, default=None, metavar="N",
                       help="serve from this published generation "
                            "(default: the newest; pre-generation "
                            "directories use the flat layout)")
    serve.add_argument("--queries", metavar="Q1,Q2,...",
                       help="comma-separated query ids (default: random)")
    serve.add_argument("--preclicks", metavar="P;P;...",
                       help="per-request pre-click items: semicolon-separated "
                            "comma lists aligned with --queries, e.g. "
                            "'1,2;;9' (default: none)")
    serve.add_argument("--requests", type=int, default=8,
                       help="number of random requests when --queries is "
                            "not given (default: %(default)s)")
    serve.add_argument("--k", type=int, default=None,
                       help="ads per request (default: config serving.k)")
    serve.add_argument("--qps", type=float, default=None,
                       help="offer the requests at this QPS (Poisson "
                            "arrivals on a virtual clock) through the "
                            "SLO-aware admission controller instead of the "
                            "raw bulk path; prints queue latency "
                            "percentiles and the shed count")
    serve.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="override a serving-time config value, e.g. "
                            "serving.admission_deadline_ms=20 (serving.* "
                            "and faults.* sections)")
    serve.add_argument("--seed", type=int, default=0)

    index = sub.add_parser(
        "index", help="rebuild (and save) indices from artifacts without "
                      "retraining")
    index.add_argument("--artifacts", metavar="DIR", required=True)
    index.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="override an index-time config value, e.g. "
                            "index.backend=sharded index.num_shards=4")

    evaluate = sub.add_parser(
        "eval", help="recompute offline metrics from artifacts")
    evaluate.add_argument("--artifacts", metavar="DIR", required=True)
    evaluate.add_argument("--set", dest="overrides", action="append",
                          default=[], metavar="SECTION.KEY=VALUE",
                          help="override an eval-time config value, e.g. "
                               "eval.auc_samples=1000")

    gc = sub.add_parser(
        "gc", help="prune old published generations (never the live one)")
    gc.add_argument("--artifacts", metavar="DIR", required=True)
    gc.add_argument("--keep", type=int, required=True, metavar="N",
                    help="number of newest generations to keep")

    sub.add_parser("models", help="list the registered model variants")
    return parser


def _cmd_run(args) -> int:
    config = (PipelineConfig.load(args.config) if args.config
              else PipelineConfig())
    if args.overrides:
        config = config.with_overrides(args.overrides)
    pipeline = Pipeline(config, artifact_dir=args.artifacts)
    if not args.quiet:
        print("running pipeline %r%s" % (
            config.name,
            " -> %s" % pipeline.store.root if pipeline.store else
            " (in memory; set artifact_dir or --artifacts to persist)"))
    report = pipeline.run(verbose=not args.quiet)
    if args.quiet:
        print(report.summary())
    else:
        # the verbose run already printed one line per stage
        print("pipeline %r done — %d stages, %.1fs total"
              % (config.name, len(report.stages), report.total_seconds))
    if pipeline.store is not None:
        print("artifacts: %s (%s)" % (pipeline.store.root,
                                      ", ".join(pipeline.store.files())))
        if pipeline.serving_generation is not None:
            print("published generation %06d" % pipeline.serving_generation)
    return 0


def _parse_requests(args, num_queries: int, num_items: int):
    if args.queries:
        queries = [int(q) for q in args.queries.split(",") if q.strip()]
        bad = [q for q in queries if not 0 <= q < num_queries]
        if bad:
            raise SystemExit("query id(s) %s out of range [0, %d)"
                             % (bad, num_queries))
        preclicks: List[List[int]] = [[] for _ in queries]
        if args.preclicks:
            groups = args.preclicks.split(";")
            if len(groups) != len(queries):
                raise SystemExit("--preclicks has %d group(s) but --queries "
                                 "has %d" % (len(groups), len(queries)))
            preclicks = [[int(p) for p in group.split(",") if p.strip()]
                         for group in groups]
            bad = [p for group in preclicks for p in group
                   if not 0 <= p < num_items]
            if bad:
                raise SystemExit("pre-click item id(s) %s out of range "
                                 "[0, %d)" % (bad, num_items))
        return queries, preclicks
    if args.preclicks:
        raise SystemExit("--preclicks requires --queries (random requests "
                         "draw their own pre-clicks)")
    rng = np.random.default_rng(args.seed)
    queries = [int(q) for q in rng.integers(num_queries, size=args.requests)]
    preclicks = [[int(p) for p in rng.integers(num_items, size=2)]
                 for _ in queries]
    return queries, preclicks


def _cmd_serve(args) -> int:
    pipeline = Pipeline.from_artifacts(args.artifacts,
                                       generation=args.generation)
    # faults.* is allowed alongside serving.*: injecting serving-time
    # faults (degraded shards, slice errors) is exactly what the chaos
    # harness does, and the plan never changes what the artifacts mean
    _apply_section_overrides(pipeline, args.overrides,
                             ("serving", "faults"))
    if pipeline.serving_generation is not None:
        print("serving generation %06d" % pipeline.serving_generation)
    sim_cfg = pipeline.config.data.simulator_config()
    queries, preclicks = _parse_requests(args, sim_cfg.num_queries,
                                         sim_cfg.num_items)
    if args.qps is not None:
        return _serve_admitted(pipeline, args, queries, preclicks)
    results = pipeline.serve(queries, preclicks, k=args.k)
    for query, items, result in zip(queries, preclicks, results):
        ads = ", ".join("%d (%.3f)" % (ad, score)
                        for ad, score in zip(result.ads, result.scores))
        print("query %-5d preclicks %-12s -> %s"
              % (query, items or "[]", ads or "(no ads)"))
    stats = pipeline.engine.stats
    print("served %d request(s) in %d micro-batch(es), %.3f ms/request"
          % (stats.requests, stats.batches, 1000.0 * stats.service_seconds))
    if stats.degraded:
        print("DEGRADED: %d request(s) in %d batch(es) got empty results "
              "after %d slice error(s)"
              % (stats.degraded_requests, stats.degraded_batches,
                 stats.slice_errors))
    return 0


def _serve_admitted(pipeline, args, queries, preclicks) -> int:
    """Route the requests through the SLO-aware admission controller."""
    if not args.qps > 0:
        raise SystemExit("--qps must be > 0, got %r" % args.qps)
    controller = pipeline.make_admission_controller(keep_results=True)
    if args.k is not None:
        controller.k = args.k
    rng = np.random.default_rng(args.seed)
    arrival = 0.0
    for query, items in zip(queries, preclicks):
        arrival += float(rng.exponential(1.0 / args.qps))
        controller.offer(arrival, query, items)
    controller.drain()
    for request, result in controller.results:
        ads = ", ".join("%d (%.3f)" % (ad, score)
                        for ad, score in zip(result.ads, result.scores))
        print("query %-5d preclicks %-12s -> %s"
              % (request.query, list(request.preclicks) or "[]",
                 ads or "(no ads)"))
    stats = controller.stats
    latency = stats.latency_percentiles()
    print("admitted %d/%d request(s) at %.0f qps (shed %d: %d queue-full, "
          "%d deadline, %d breaker)"
          % (stats.served, stats.offered, args.qps, stats.shed,
             stats.shed_queue, stats.shed_deadline, stats.shed_breaker))
    engine_stats = pipeline.engine.stats
    if engine_stats.degraded:
        print("DEGRADED: %d request(s) got empty results after %d slice "
              "error(s)" % (engine_stats.degraded_requests,
                            engine_stats.slice_errors))
    if controller.breaker is not None:
        print("breaker: %s" % controller.breaker.summary())
    print("latency p50/p95/p99: %.3f / %.3f / %.3f ms  (queue deadline "
          "%.0f ms, max batch %d)"
          % (1000.0 * latency["p50"], 1000.0 * latency["p95"],
             1000.0 * latency["p99"], 1000.0 * controller.deadline,
             controller.max_batch))
    return 0


def _apply_section_overrides(pipeline, overrides, sections) -> None:
    """Apply ``--set`` overrides restricted to the named config sections.

    The artifact-based subcommands only accept overrides of the sections
    they re-run: everything else (data, graph, model geometry, training)
    is baked into the persisted model and indices, so changing it would
    silently disagree with the artifacts.
    """
    if not overrides:
        return
    if isinstance(sections, str):
        sections = (sections,)
    allowed = tuple(section + "." for section in sections)
    foreign = [a for a in overrides
               if not a.strip().startswith(allowed)]
    if foreign:
        names = "/".join(s + ".*" for s in sections)
        raise SystemExit("%s only accepts %s overrides (the artifacts "
                         "were produced with the persisted config); got %s"
                         % (sections[0], names, ", ".join(map(repr, foreign))))
    pipeline.config = pipeline.ctx.config = \
        pipeline.config.with_overrides(overrides)
    # a fresh fault plan in the overrides must reach the injector
    pipeline.install_faults()


def _cmd_index(args) -> int:
    pipeline = Pipeline.from_artifacts(args.artifacts)
    # re-sharding/re-backending is exactly the model-free refresh this
    # command exists for
    _apply_section_overrides(pipeline, args.overrides, "index")
    info = pipeline.rebuild_indices()
    print(json.dumps(info, indent=2, sort_keys=True))
    if pipeline.store is not None:
        print("artifacts: %s (%s)" % (pipeline.store.root,
                                      ", ".join(pipeline.store.files())))
    return 0


def _cmd_eval(args) -> int:
    pipeline = Pipeline.from_artifacts(args.artifacts)
    _apply_section_overrides(pipeline, args.overrides, "eval")
    info = pipeline.evaluate()
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_gc(args) -> int:
    from repro.pipeline.artifacts import ArtifactStore
    store = ArtifactStore(args.artifacts, create=False)
    generations = store.generations()
    if not generations:
        print("no published generations under %s" % store.root)
        return 0
    live = store.latest_generation()
    removed = store.gc(args.keep)
    kept = store.generations()
    print("removed %d generation(s)%s; kept %s (live: %06d)"
          % (len(removed),
             " (%s)" % ", ".join("%06d" % g for g in removed)
             if removed else "",
             ", ".join("%06d" % g for g in kept), live))
    return 0


def _cmd_models(_args) -> int:
    for name in list_models():
        print(name)
    print("product:<SIG>   (any signature over E/H/S/U, e.g. product:HS)")
    print()
    print("every geometry kernel has one numpy implementation; the retired "
          "model.kernels key is accepted as 'auto', 'numpy' or 'compiled' "
          "and ignored")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "serve": _cmd_serve, "index": _cmd_index,
               "eval": _cmd_eval, "gc": _cmd_gc,
               "models": _cmd_models}[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
