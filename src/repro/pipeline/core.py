"""The :class:`Pipeline` orchestrator.

``Pipeline(config).run()`` drives the six stages in order, times each,
persists artifacts (when an artifact directory is configured) and
returns a structured :class:`~repro.pipeline.report.PipelineReport`.

``Pipeline.from_artifacts(dir)`` is the serving side of the contract:
it reloads the config and the built indices from disk and stands up
the retriever + micro-batching engine with *no model and no
retraining* — the paper's ship-to-serving step (Fig. 3).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.config import PipelineConfig
from repro.pipeline.report import PipelineReport, StageReport, jsonify
from repro.testing import faults as fault_harness
from repro.pipeline.stages import (
    DEFAULT_STAGES,
    EvalStage,
    PipelineContext,
)
from repro.retrieval.index import IndexSet
from repro.retrieval.two_layer import TwoLayerRetriever
from repro.serving.engine import ServingEngine


class Pipeline:
    """One configured offline→serving lifecycle.

    Parameters
    ----------
    config:
        The validated :class:`PipelineConfig`.
    artifact_dir:
        Where to persist artifacts; overrides ``config.artifact_dir``.
        When both are ``None`` the run stays in memory.
    context:
        Optional pre-populated :class:`PipelineContext` (e.g. from
        :meth:`PipelineContext.fork_data`) so sweeps over one dataset
        skip re-simulation.  Its config/store are rebound to this
        pipeline's.
    """

    def __init__(self, config: PipelineConfig,
                 artifact_dir: Optional[str] = None,
                 context: Optional[PipelineContext] = None):
        self.config = config
        root = artifact_dir if artifact_dir is not None else config.artifact_dir
        self.store = ArtifactStore(root) if root else None
        if context is None:
            context = PipelineContext(config=config, store=self.store)
        else:
            context.config = config
            context.store = self.store
        self.ctx = context
        self.report: Optional[PipelineReport] = None
        #: generation the serving plane is bound to (None = flat layout)
        self.serving_generation: Optional[int] = None
        self.install_faults()

    def install_faults(self) -> None:
        """Install the config's fault-injection plan process-wide.

        A no-op when ``config.faults`` is empty or disabled, so normal
        pipelines never touch the injector (and never clobber a plan a
        test installed directly).
        """
        specs = self.config.faults.fault_specs()
        if specs:
            fault_harness.install_plan(specs)

    # -- the full offline run ------------------------------------------------

    def run(self, verbose: bool = False) -> PipelineReport:
        """Execute every stage in order; persist config + report at the end."""
        stage_reports: List[StageReport] = []
        for stage_cls in DEFAULT_STAGES:
            stage = stage_cls()
            start = time.perf_counter()
            info = stage.run(self.ctx) or {}
            elapsed = time.perf_counter() - start
            stage_reports.append(StageReport(name=stage.name,
                                             wall_seconds=elapsed,
                                             info=jsonify(info)))
            if verbose:
                print("  [%-5s] %6.2fs  %s"
                      % (stage.name, elapsed, info.get("summary", "")))
        self.report = PipelineReport(pipeline=self.config.name,
                                     stages=stage_reports)
        if self.store is not None:
            self.store.save_config(self.config)
            self.store.save_report(self.report)
            # snapshot the finished run into a checksummed generation;
            # a crash before this line leaves the previous generation
            # (if any) as the newest published one
            self.serving_generation = self.store.publish_generation()
        return self.report

    # -- the serving side ----------------------------------------------------

    @classmethod
    def from_artifacts(cls, directory,
                       generation: Optional[int] = None) -> "Pipeline":
        """Reload a finished run for model-free serving.

        Only the config and the persisted indices are needed; the
        retriever and engine come up exactly as configured, and
        :meth:`serve` answers requests without any retraining.

        With ``generations/`` present the whole pipeline loads from
        *one* generation — ``generation`` explicitly, or the newest
        published one — after checksum-verifying every file it carries
        (:class:`~repro.pipeline.artifacts.ArtifactCorruptionError`
        names the offending file and generation).  Pre-generation
        artifact directories fall back to the flat layout.
        """
        store = ArtifactStore(directory, create=False)
        chosen = (generation if generation is not None
                  else store.latest_generation())
        if chosen is not None:
            return cls._from_generation(store, chosen)
        if not store.has(ArtifactStore.CONFIG):
            raise FileNotFoundError("no %s under %s — not a pipeline "
                                    "artifact directory"
                                    % (ArtifactStore.CONFIG, directory))
        config = store.load_config()
        pipeline = cls(config, artifact_dir=str(directory))
        ctx = pipeline.ctx
        ctx.index_set = IndexSet.load(store.path(ArtifactStore.INDICES))
        if store.has(ArtifactStore.CONTROL_INDICES):
            ctx.control_index_set = IndexSet.load(
                store.path(ArtifactStore.CONTROL_INDICES))
        # retriever + engine come up lazily through the properties below,
        # from the same config the offline run persisted
        if store.has(ArtifactStore.REPORT):
            pipeline.report = store.load_report()
        return pipeline

    @classmethod
    def _from_generation(cls, store: ArtifactStore,
                         generation: int) -> "Pipeline":
        """Stand a pipeline up from one published, verified generation."""
        manifest = store.verify_generation(generation)
        files = manifest.get("files", {})
        for required in (ArtifactStore.CONFIG, ArtifactStore.INDICES):
            if required not in files:
                raise FileNotFoundError(
                    "generation %06d under %s does not carry %s (has: %s)"
                    % (generation, store.root, required,
                       ", ".join(sorted(files)) or "none"))
        base = store.generation_dir(generation)
        config = PipelineConfig.load(base / ArtifactStore.CONFIG)
        pipeline = cls(config, artifact_dir=str(store.root))
        pipeline.serving_generation = generation
        ctx = pipeline.ctx
        ctx.index_set = IndexSet.load(base / ArtifactStore.INDICES)
        if ArtifactStore.CONTROL_INDICES in files:
            ctx.control_index_set = IndexSet.load(
                base / ArtifactStore.CONTROL_INDICES)
        if ArtifactStore.REPORT in files:
            pipeline.report = PipelineReport.load(
                base / ArtifactStore.REPORT)
        return pipeline

    def hot_swap(self, generation: Optional[int] = None) -> int:
        """Swap the serving plane onto another published generation.

        Verifies the target generation (default: the newest published
        one), loads its indices, builds a fresh retriever, and — when a
        live engine exists — flips it atomically via
        :meth:`~repro.serving.engine.ServingEngine.swap_retriever`:
        in-flight micro-batches finish on the old index, the next batch
        snapshot sees the new one, and the response cache is cleared so
        no stale entries cross the swap.  Returns the generation now
        serving.
        """
        if self.store is None:
            raise RuntimeError("hot_swap needs an artifact directory")
        chosen = (generation if generation is not None
                  else self.store.latest_generation())
        if chosen is None:
            raise FileNotFoundError("no published generations under %s"
                                    % self.store.root)
        manifest = self.store.verify_generation(chosen)
        if ArtifactStore.INDICES not in manifest.get("files", {}):
            raise FileNotFoundError(
                "generation %06d under %s does not carry %s"
                % (chosen, self.store.root, ArtifactStore.INDICES))
        index_set = IndexSet.load(
            self.store.generation_dir(chosen) / ArtifactStore.INDICES)
        retriever = self.ctx.make_retriever(index_set)
        self.ctx.index_set = index_set
        self.ctx.retriever = retriever
        self.serving_generation = chosen
        if self.ctx.engine is not None:
            self.ctx.engine.swap_retriever(retriever, generation=chosen)
        return chosen

    @property
    def retriever(self) -> TwoLayerRetriever:
        if self.ctx.retriever is None:
            if self.ctx.index_set is None:
                raise RuntimeError("no indices yet — run() the pipeline or "
                                   "load one via from_artifacts()")
            self.ctx.retriever = self.ctx.make_retriever(self.ctx.index_set)
        return self.ctx.retriever

    @property
    def engine(self) -> ServingEngine:
        if self.ctx.engine is None:
            self.ctx.retriever = self.retriever     # built on first use
            self.ctx.engine = self.ctx.make_engine(
                generation=self.serving_generation or 0)
        return self.ctx.engine

    def serve(self, queries: Sequence[int],
              preclicks: Optional[Sequence[Sequence[int]]] = None,
              k: Optional[int] = None):
        """Answer a request stream through the micro-batching engine."""
        return self.engine.serve(queries, preclicks,
                                 k=k if k is not None else self.config.serving.k)

    def make_admission_controller(self, num_workers: int = 1,
                                  keep_results: bool = False):
        """An :class:`AdmissionController` over this pipeline's engine.

        Configured entirely from the persisted ``serving.admission_*``
        keys — the SLO-aware front of the serving plane for callers
        (e.g. ``python -m repro serve --qps``) that want
        arrival-timestamped, shed-aware serving rather than the raw
        bulk path.
        """
        from repro.serving.admission import AdmissionController
        return AdmissionController(self.engine, num_workers=num_workers,
                                   keep_results=keep_results,
                                   **self.config.serving.admission_kwargs())

    # -- artifact-restored stage reruns (CLI ``index`` / ``eval``) -----------

    def _resolve_artifact(self, name: str):
        """Path of ``name`` honouring the bound generation.

        Returns the (verified) generation copy when this pipeline is
        bound to one and the generation carries the file, the flat copy
        otherwise, or ``None`` when the artifact is absent everywhere.
        """
        if self.store is None:
            return None
        if self.serving_generation is not None:
            manifest = self.store.load_manifest(self.serving_generation)
            if name in manifest.get("files", {}):
                return self.store.resolve(
                    name, generation=self.serving_generation)
        return self.store.path(name) if self.store.has(name) else None

    def _restore_model_context(self, purpose: str) -> None:
        """Rebuild data/graphs from the config and reload checkpoints.

        Shared preamble of the artifact-based stage reruns: the dataset
        and graphs are deterministic functions of the config, the model
        (and the A/B control model, when persisted) comes from the
        checkpoint files — from the bound generation when there is one.
        """
        from repro.pipeline.stages import DataStage, GraphStage
        DataStage().run(self.ctx)
        GraphStage().run(self.ctx)
        if self.ctx.model is None:
            model_path = self._resolve_artifact(ArtifactStore.MODEL)
            if model_path is None:
                raise FileNotFoundError(
                    "no model checkpoint to %s — run the pipeline with an "
                    "artifact directory first" % purpose)
            from repro.io import load_model
            self.ctx.model = load_model(model_path, self.ctx.train_graph)
        if self.ctx.control_model is None:
            control_path = self._resolve_artifact(ArtifactStore.CONTROL_MODEL)
            if control_path is not None:
                from repro.io import load_model
                self.ctx.control_model = load_model(control_path,
                                                    self.ctx.train_graph)

    def rebuild_indices(self) -> Dict[str, Any]:
        """Re-run the index stage from persisted artifacts — no retraining.

        Rebuilds the (deterministic) dataset and graphs from the
        config, reloads the model checkpoint (and the A/B control
        checkpoint when present), runs :class:`IndexStage` through the
        currently-configured backend, and persists the fresh indices
        back into the artifact store alongside the updated config.
        This is the offline refresh step of the paper's lifecycle: new
        index layout (e.g. ``index.backend="sharded"``), same model.
        """
        from repro.pipeline.stages import IndexStage
        self._restore_model_context("rebuild indices from")
        info = jsonify(IndexStage().run(self.ctx))
        # the new indices invalidate any retriever/engine built over the
        # old ones; they come back lazily through the properties
        self.ctx.retriever = None
        self.ctx.engine = None
        if self.store is not None:
            self.store.save_config(self.config)
            # the refreshed indices + config become a new generation, so
            # serving processes can hot-swap onto them (or roll back)
            self.serving_generation = self.store.publish_generation()
            info["generation"] = self.serving_generation
        return info

    # -- standalone re-evaluation (CLI ``eval``) -----------------------------

    def evaluate(self) -> Dict[str, Any]:
        """Recompute the eval stage from persisted artifacts.

        Rebuilds the (deterministic) dataset and graphs from the
        config, reloads the model checkpoint — indices are already
        loaded when this pipeline came from :meth:`from_artifacts` —
        and runs :class:`EvalStage`.
        """
        self._restore_model_context("evaluate")
        if self.ctx.index_set is None:
            if self.store is None or not self.store.has(ArtifactStore.INDICES):
                raise FileNotFoundError("no indices to evaluate against")
            self.ctx.index_set = IndexSet.load(
                self.store.path(ArtifactStore.INDICES))
        return jsonify(EvalStage().run(self.ctx))
