"""Composable pipeline stages (simulate → graph → train → index → serve → eval).

Each stage reads and extends one shared :class:`PipelineContext` and
returns a JSON-safe info dict for the run report.  Stages that produce
shippable artifacts (checkpoint, indices) persist them through the
context's :class:`~repro.pipeline.artifacts.ArtifactStore` when one is
attached, so a later process can reload without retraining.

Data-bearing context fields (``simulator``/``logs``/graphs) are only
computed when absent, so callers sweeping many models over one dataset
can share them across runs via :meth:`PipelineContext.fork_data`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.synthetic import SponsoredSearchSimulator
from repro.evaluation import (
    evaluate_ranking,
    ground_truth_from_log,
    next_auc,
)
from repro.evaluation.ab_test import ABTestConfig, run_ab_test
from repro.graph.builder import GraphBuilder
from repro.graph.schema import NodeType, Relation
from repro.models.amcad import make_model
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.config import PipelineConfig
from repro.retrieval.index import IndexSet
from repro.retrieval.two_layer import TwoLayerRetriever
from repro.serving.admission import AdmissionController
from repro.serving.engine import ServingEngine
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import TrafficGenerator
from repro.training.trainer import Trainer


@dataclasses.dataclass
class PipelineContext:
    """Everything the stages produce, in dependency order."""

    config: PipelineConfig
    store: Optional[ArtifactStore] = None

    # data / graph
    simulator: Optional[SponsoredSearchSimulator] = None
    logs: Optional[list] = None
    train_graph: Optional[Any] = None
    eval_graph: Optional[Any] = None

    # training
    model: Optional[Any] = None
    training_report: Optional[Any] = None
    control_model: Optional[Any] = None

    # indexing
    index_set: Optional[IndexSet] = None
    control_index_set: Optional[IndexSet] = None

    # serving
    retriever: Optional[TwoLayerRetriever] = None
    engine: Optional[ServingEngine] = None
    fleet_workers: Optional[int] = None

    def fork_data(self, config: PipelineConfig) -> "PipelineContext":
        """A fresh context reusing this one's dataset and graphs.

        Lets a benchmark sweep many model configs over one simulated
        platform without re-simulating; the caller must keep the data
        and graph sections of ``config`` identical.  The store comes
        from the :class:`Pipeline` the context is handed to.
        """
        return PipelineContext(config=config,
                               simulator=self.simulator, logs=self.logs,
                               train_graph=self.train_graph,
                               eval_graph=self.eval_graph)

    def make_retriever(self, index_set: IndexSet) -> TwoLayerRetriever:
        serving = self.config.serving
        return TwoLayerRetriever(index_set, expansion_k=serving.expansion_k,
                                 ads_per_key=serving.ads_per_key)

    def make_engine(self, generation: int = 0) -> ServingEngine:
        """A configured engine over :attr:`retriever`."""
        serving = self.config.serving
        return ServingEngine(
            self.retriever, max_batch_size=serving.max_batch_size,
            cache_size=serving.cache_size,
            num_shards=self.config.index.serving_shards,
            slice_retries=serving.slice_retries, generation=generation)


class Stage:
    """One step of the lifecycle; subclasses set ``name`` and ``run``."""

    name = "stage"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        raise NotImplementedError


class DataStage(Stage):
    """Simulate the sponsored-search platform and its daily logs."""

    name = "data"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        cfg = ctx.config.data
        if ctx.simulator is None:
            ctx.simulator = SponsoredSearchSimulator(cfg.simulator_config())
            ctx.logs = ctx.simulator.simulate_days(cfg.days)
        universe = ctx.simulator.universe
        counts = universe.num_nodes()
        sessions = [len(log) for log in ctx.logs]
        return {
            "days": cfg.days,
            "train_days": cfg.train_days,
            "sessions_per_day": sessions,
            "num_queries": counts[NodeType.QUERY],
            "num_items": counts[NodeType.ITEM],
            "num_ads": counts[NodeType.AD],
            "summary": "%d days (%d sessions), %d queries / %d items / %d ads"
                       % (cfg.days, sum(sessions), counts[NodeType.QUERY],
                          counts[NodeType.ITEM], counts[NodeType.AD]),
        }


class GraphStage(Stage):
    """Build the training graph and the held-out next-day graph."""

    name = "graph"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        data_cfg = ctx.config.data
        if ctx.train_graph is None:
            ctx.train_graph = self._build(ctx, ctx.logs[:data_cfg.train_days])
            if data_cfg.eval_days:
                ctx.eval_graph = self._build(ctx,
                                             ctx.logs[data_cfg.train_days:])
        train_edges = ctx.train_graph.num_edges()
        eval_edges = (ctx.eval_graph.num_edges()
                      if ctx.eval_graph is not None else 0)
        return {
            "train_edges": train_edges,
            "eval_edges": eval_edges,
            "summary": "train graph %d edges%s"
                       % (train_edges,
                          "; eval graph %d edges" % eval_edges
                          if ctx.eval_graph is not None else ""),
        }

    @staticmethod
    def _build(ctx: PipelineContext, logs):
        graph_cfg = ctx.config.graph
        builder = GraphBuilder(
            ctx.simulator.universe,
            semantic_threshold=graph_cfg.semantic_threshold,
            max_semantic_degree=graph_cfg.max_semantic_degree)
        return builder.add_logs(logs).build()


class TrainStage(Stage):
    """Train the configured model (and the A/B control channel, if any)."""

    name = "train"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        cfg = ctx.config
        # only the primary model checkpoints for resume (the control
        # channel is retrained from scratch on a crash — it shares the
        # store and two interleaved checkpoints would clobber each other)
        checkpoint_path = (ctx.store.path(ArtifactStore.CHECKPOINT)
                           if ctx.store is not None
                           and cfg.training.checkpoint_every > 0 else None)
        ctx.model, ctx.training_report = self._train(
            ctx, cfg.model.name, cfg.model.seed,
            checkpoint_path=checkpoint_path)
        if ctx.store is not None:
            from repro.io import save_model
            save_model(ctx.model, ctx.store.path(ArtifactStore.MODEL))
        report = ctx.training_report
        info = {
            "model": cfg.model.name,
            "steps": report.steps,
            "samples_seen": report.samples_seen,
            "train_seconds": report.wall_seconds,
            "losses": [float(x) for x in report.losses],
            "final_loss": report.final_loss,
            "mean_tail_loss": report.mean_tail_loss,
            "backward_depth": cfg.training.backward_depth,
            "summary": "%s: %d steps, final loss %.3f (tail mean %.3f)"
                       % (cfg.model.name, report.steps, report.final_loss,
                          report.mean_tail_loss),
        }
        if cfg.training.checkpoint_every > 0:
            info["checkpoint_every"] = cfg.training.checkpoint_every
            info["resumed_from_step"] = report.resumed_from_step
            info["checkpoints_written"] = report.checkpoints_written
            if report.resumed_from_step:
                info["summary"] += " (resumed from step %d)" % (
                    report.resumed_from_step)
        if cfg.eval.enabled and cfg.eval.ab_control:
            ctx.control_model, control_report = self._train(
                ctx, cfg.eval.ab_control, cfg.model.seed)
            if ctx.store is not None:
                from repro.io import save_model
                save_model(ctx.control_model,
                           ctx.store.path(ArtifactStore.CONTROL_MODEL))
            info["control_model"] = cfg.eval.ab_control
            info["control_final_loss"] = control_report.final_loss
            info["summary"] += "; control %s final loss %.3f" % (
                cfg.eval.ab_control, control_report.final_loss)
        return info

    @staticmethod
    def _train(ctx: PipelineContext, name: str, seed: int,
               checkpoint_path=None):
        cfg = ctx.config
        model = make_model(name, ctx.train_graph,
                           num_subspaces=cfg.model.num_subspaces,
                           subspace_dim=cfg.model.subspace_dim,
                           seed=seed, **cfg.model.overrides)
        trainer = Trainer(model, cfg.training.trainer_config(),
                          checkpoint_path=checkpoint_path)
        if checkpoint_path is not None and checkpoint_path.exists():
            # a leftover checkpoint means the previous run died mid-
            # train: resume it (the trainer verifies the config
            # fingerprint and deletes the file once training completes)
            trainer.restore_checkpoint()
        report = trainer.train()
        return model, report


class IndexStage(Stage):
    """Build the inverted indices through the configured search backend."""

    name = "index"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        cfg = ctx.config.index
        relations = cfg.relation_list()
        ctx.index_set = self._build(ctx, ctx.model, relations)
        if ctx.store is not None:
            ctx.index_set.save(ctx.store.path(ArtifactStore.INDICES))
        if ctx.control_model is not None:
            ctx.control_index_set = self._build(ctx, ctx.control_model,
                                                relations)
            if ctx.store is not None:
                ctx.control_index_set.save(
                    ctx.store.path(ArtifactStore.CONTROL_INDICES))
        build_seconds = {rel.value: ix.build_seconds
                         for rel, ix in ctx.index_set.indices.items()}
        info = {
            "backend": cfg.backend,
            "top_k": cfg.top_k,
            "relations": sorted(build_seconds),
            "build_seconds": build_seconds,
            "total_build_seconds": ctx.index_set.total_build_seconds,
            "summary": "%d indices (backend %r, top_k %d) in %.2fs"
                       % (len(build_seconds), cfg.backend, cfg.top_k,
                          ctx.index_set.total_build_seconds),
        }
        if cfg.backend == "sharded":
            info["num_shards"] = cfg.num_shards
            info["inner_backend"] = cfg.inner_backend
            info["summary"] += " [%d shards x %s]" % (cfg.num_shards,
                                                      cfg.inner_backend)
        dials = cfg._ann_dial_kwargs(
            cfg.inner_backend if cfg.backend == "sharded" else cfg.backend)
        if dials:
            info.update(dials)
            info["summary"] += " [%s]" % ", ".join(
                "%s=%s" % (k, v) for k, v in sorted(dials.items()))
        info["backend_params"] = ctx.index_set.backend_params
        return info

    @staticmethod
    def _build(ctx: PipelineContext, model, relations):
        cfg = ctx.config.index
        return IndexSet(model, top_k=cfg.top_k,
                        batch_size=cfg.batch_size, backend=cfg.backend,
                        backend_kwargs=cfg.resolved_backend_kwargs()
                        ).build(relations)


class ServeStage(Stage):
    """Stand up the serving engine and measure the batched service time."""

    name = "serve"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        cfg = ctx.config.serving
        if not cfg.enabled:
            return {"enabled": False, "summary": "disabled"}
        ctx.retriever = ctx.make_retriever(ctx.index_set)
        ctx.engine = ctx.make_engine()
        info: Dict[str, Any] = {"enabled": True,
                                "max_batch_size": cfg.max_batch_size,
                                "cache_size": cfg.cache_size,
                                "num_shards": ctx.engine.num_shards}
        if cfg.measure_requests < 1:
            info["summary"] = "engine up (service time not measured)"
            return info

        # measure_repeats scales the sample, it does not replay it: a
        # replayed request is a result-cache hit, and a probe of hits
        # would size the fleet for traffic that never reaches the index
        data_cfg = ctx.config.data.simulator_config()
        rng = np.random.default_rng(cfg.seed)
        draws = cfg.measure_requests * cfg.measure_repeats
        queries = rng.integers(data_cfg.num_queries, size=draws)
        preclicks = [list(rng.integers(data_cfg.num_items,
                                       size=cfg.preclicks_per_request))
                     for _ in range(draws)]
        sim = ServingSimulator(ctx.retriever)
        service = sim.measure_batched_service_time(
            ctx.engine, queries, preclicks, k=cfg.k)
        ctx.fleet_workers = sim.size_fleet(cfg.target_qps,
                                           cfg.target_utilisation)
        sweep = [{"qps": s.qps, "response_time_ms": s.response_time_ms,
                  "utilisation": s.utilisation}
                 for s in sim.sweep(cfg.qps_sweep)]
        stats = ctx.engine.stats
        info.update({
            "service_seconds": service,
            "service_ms": 1000.0 * service,
            "batches": stats.batches,
            "mean_batch_size": stats.mean_batch_size,
            "cache_hit_rate": stats.cache_hit_rate,
            "fleet_workers": ctx.fleet_workers,
            "target_qps": cfg.target_qps,
            "target_utilisation": cfg.target_utilisation,
            "qps_sweep": sweep,
            "summary": "%.3f ms/request batched, cache hit %.0f%%, "
                       "fleet %d workers for %.0f qps"
                       % (1000.0 * service, 100.0 * stats.cache_hit_rate,
                          ctx.fleet_workers, cfg.target_qps),
        })
        admission = self._admission_probe(ctx, service)
        if admission is not None:
            info["admission"] = admission
            info["summary"] += ", admission p99 %.2f ms (shed %.0f%%)" % (
                admission["latency_ms"]["p99"],
                100.0 * admission["shed_rate"])
        return info

    @staticmethod
    def _admission_probe(ctx: PipelineContext, service: float):
        """Drive the admission layer over replayed log sessions.

        One short closed-loop run offering 60% of the rate one worker
        sustains at the measured *batched* service time.  A lone
        request costs more than its share of a full batch, so the probe
        queues briefly and small batches form — enough to surface the
        configured admission knobs, the queue latency percentiles, and
        any shedding in the stage report.
        """
        cfg = ctx.config.serving
        train_logs = (ctx.logs or [])[:ctx.config.data.train_days]
        if not any(len(log) for log in train_logs):
            return None
        controller = AdmissionController(ctx.engine, num_workers=1,
                                         **cfg.admission_kwargs())
        # the probe replays the training window's sessions; the paid
        # share is fixed — lane policy is an admission knob, not a
        # traffic one
        traffic = TrafficGenerator(train_logs, paid_share=0.25,
                                   seed=cfg.seed)
        probe_qps = 0.6 / max(service, 1e-9)
        duration = cfg.measure_requests / probe_qps
        report = traffic.drive(controller, qps=probe_qps, duration=duration)
        payload = controller.stats.summary()
        payload.update({
            "max_queue": controller.max_queue,
            "deadline_ms": 1000.0 * controller.deadline,
            "max_batch": controller.max_batch,
            "priority_share": controller.priority_share,
            "probe_qps": probe_qps,
            "achieved_qps": report.achieved_qps,
        })
        return payload


class EvalStage(Stage):
    """Offline metrics (Next AUC, Hitrate/nDCG) and the simulated A/B test."""

    name = "eval"

    def run(self, ctx: PipelineContext) -> Dict[str, Any]:
        cfg = ctx.config.eval
        if not cfg.enabled:
            return {"enabled": False, "summary": "disabled"}
        info: Dict[str, Any] = {"enabled": True}
        parts: List[str] = []

        if (cfg.auc_samples > 0 and ctx.model is not None
                and ctx.eval_graph is not None):
            auc = next_auc(ctx.model.similarity, ctx.eval_graph,
                           num_samples=cfg.auc_samples, seed=cfg.seed)
            info["next_auc"] = auc
            parts.append("next-day AUC %.2f" % auc)

        if cfg.ranking_ks and ctx.config.data.eval_days:
            eval_log = ctx.logs[ctx.config.data.train_days]
            for relation, target_type, label in (
                    (Relation.Q2I, NodeType.ITEM, "q2i"),
                    (Relation.Q2A, NodeType.AD, "q2a")):
                if relation not in ctx.index_set:
                    continue
                index = ctx.index_set[relation]
                # cutoffs are bounded by the *built* index width (which
                # can be below the nominal top_k when the target space
                # is small), so run and artifact-reload reports agree
                ks = [k for k in cfg.ranking_ks if k <= index.ids.shape[1]]
                if not ks:
                    continue
                truth = ground_truth_from_log(eval_log, target_type)
                metrics = evaluate_ranking(
                    lambda q, k: index.lookup_batch(q, k)[0], truth, ks=ks,
                    max_queries=cfg.max_queries, seed=cfg.seed)
                info[label] = metrics.row()
            if "q2i" in info:
                k0 = min(int(key.split("@")[1]) for key in info["q2i"]
                         if key.startswith("hr@"))
                parts.append("Q2I hr@%d %.2f" % (k0, info["q2i"]["hr@%d" % k0]))

        if cfg.ab_control and ctx.control_index_set is None:
            # only reachable when re-evaluating artifacts: a run() with
            # ab_control set always trains and indexes the control
            raise RuntimeError(
                "A/B test requested (eval.ab_control=%r) but no control "
                "channel is available — these artifacts were produced "
                "without one; re-run the pipeline with eval.ab_control set"
                % cfg.ab_control)
        if cfg.ab_control:
            control = ctx.make_retriever(ctx.control_index_set)
            treatment = ctx.make_retriever(ctx.index_set)
            result = run_ab_test(ctx.simulator.universe, control, treatment,
                                 ABTestConfig(num_requests=cfg.ab_requests,
                                              seed=cfg.seed))
            info["ab_control"] = cfg.ab_control
            info["ab_ctr_lift"] = result.ctr_lift()
            info["ab_rpm_lift"] = result.rpm_lift()
            parts.append("A/B overall CTR %+.2f%% RPM %+.2f%%"
                         % (info["ab_ctr_lift"]["overall"],
                            info["ab_rpm_lift"]["overall"]))

        info["summary"] = "; ".join(parts) if parts else "nothing to evaluate"
        return info


#: The canonical stage order of one full run.
DEFAULT_STAGES = (DataStage, GraphStage, TrainStage, IndexStage, ServeStage,
                  EvalStage)
