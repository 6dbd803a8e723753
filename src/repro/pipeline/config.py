"""The declarative configuration tree for :class:`~repro.pipeline.core.Pipeline`.

One :class:`PipelineConfig` describes a full offline→serving lifecycle:
which platform to simulate, how to build the graph, which model variant
to train and how, how the six inverted indices are constructed, how the
serving layer is sized, and what to evaluate.  Every section is a
dataclass validated on construction, and the whole tree round-trips
through ``to_dict``/``from_dict`` and JSON, so an experiment is a file:

    config = PipelineConfig.load("experiment.json")
    config = config.with_overrides(["training.steps=500"])
    Pipeline(config).run()
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.common import (atomic_write_text, drop_retired_planes,
                          is_retired_key)
from repro.data.synthetic import SimulatorConfig
from repro.graph.schema import Relation
from repro.models.amcad import AMCADConfig, list_models
from repro.retrieval.backend import BACKENDS, ShardedBackend, make_backend
from repro.testing.faults import FaultSpec
from repro.training.trainer import TrainerConfig


def _known_fields(cls) -> List[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _reject_unknown(section: str, given: Dict[str, Any], cls) -> None:
    allowed = set(_known_fields(cls))
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(
            "unknown %s key(s) %s; known keys: %s"
            % (section, ", ".join(map(repr, unknown)),
               ", ".join(sorted(allowed))))


@dataclasses.dataclass
class DataConfig:
    """Which synthetic platform to simulate and how to split its days."""

    #: total days of behaviour logs to simulate
    days: int = 2
    #: leading days used to build the training graph; the remainder is
    #: the held-out next-day evaluation window
    train_days: int = 1
    seed: int = 7
    #: overrides forwarded to :class:`~repro.data.synthetic.SimulatorConfig`
    #: (e.g. ``{"num_queries": 500}``); the seed comes from ``seed`` above
    simulator: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("data.days must be >= 1, got %d" % self.days)
        if not 1 <= self.train_days <= self.days:
            raise ValueError("data.train_days must be in [1, data.days=%d], "
                             "got %d" % (self.days, self.train_days))
        if "seed" in self.simulator:
            raise ValueError("set data.seed, not data.simulator['seed']")
        _reject_unknown("data.simulator", self.simulator, SimulatorConfig)

    @property
    def eval_days(self) -> int:
        return self.days - self.train_days

    def simulator_config(self) -> SimulatorConfig:
        return SimulatorConfig(seed=self.seed, **self.simulator)


@dataclasses.dataclass
class GraphConfig:
    """Behaviour-log → heterogeneous-graph construction knobs."""

    semantic_threshold: float = 0.4
    max_semantic_degree: int = 20

    def __post_init__(self):
        if not 0.0 <= self.semantic_threshold <= 1.0:
            raise ValueError("graph.semantic_threshold must be in [0, 1], "
                             "got %r" % self.semantic_threshold)
        if self.max_semantic_degree < 1:
            raise ValueError("graph.max_semantic_degree must be >= 1")


@dataclasses.dataclass
class ModelConfig:
    """Which model variant to build, and its geometry."""

    name: str = "amcad"
    num_subspaces: int = 2
    subspace_dim: int = 4
    seed: int = 0
    #: extra :class:`~repro.models.amcad.AMCADConfig` overrides
    overrides: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        key = self.name.lower()
        if key.startswith("product:"):
            signature = key.split(":", 1)[1]
            if not signature or any(ch not in "ehsu" for ch in signature):
                raise ValueError(
                    "model.name %r: product signature must be a non-empty "
                    "string over 'EHSU', e.g. 'product:HS'" % self.name)
        elif key not in list_models():
            raise ValueError(
                "model.name %r is not a registered variant; choose one of: "
                "%s, or 'product:<SIG>'"
                % (self.name, ", ".join(list_models())))
        if self.num_subspaces < 1 or self.subspace_dim < 1:
            raise ValueError("model geometry must be positive, got "
                             "num_subspaces=%d subspace_dim=%d"
                             % (self.num_subspaces, self.subspace_dim))
        reserved = {"num_subspaces", "subspace_dim", "seed"}
        if reserved & set(self.overrides):
            raise ValueError("set model.%s directly, not via model.overrides"
                             % "/".join(sorted(reserved & set(self.overrides))))
        _reject_unknown("model.overrides", self.overrides, AMCADConfig)


@dataclasses.dataclass
class TrainingConfig(TrainerConfig):
    """The ``training`` section: :class:`TrainerConfig` — its options,
    documentation and validation — under the pipeline's two defaults."""

    steps: int = 200
    learning_rate: float = 0.05

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(**dataclasses.asdict(self))


@dataclasses.dataclass
class IndexConfig:
    """Offline inverted-index construction."""

    top_k: int = 50
    backend: str = "exact"
    backend_kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    batch_size: int = 256
    #: relations to build (``"q2q"`` … ``"i2a"``); ``None`` = all six
    relations: Optional[List[str]] = None
    #: target-space shards per index (``backend="sharded"`` only; also
    #: the serving engine's micro-batch fan-out width)
    num_shards: int = 2
    #: backend each shard delegates to (``"exact"`` or ``"ivf"``)
    inner_backend: str = "exact"
    #: retries per failed shard search before it is excluded
    shard_retries: int = 0
    #: base backoff between shard retry rounds in ms (doubles per round)
    shard_backoff_ms: float = 0.0
    #: IVF inverted lists (``backend="ivf"``; 0 = sqrt(catalog) heuristic)
    num_lists: int = 0
    #: IVF lists scanned per query — the IVF recall/latency dial
    nprobe: int = 16
    #: candidates re-ranked with the true manifold metric after the
    #: tangent-space prune (ANN backends; 0 = re-rank every candidate)
    rerank_k: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("index.top_k must be >= 1")
        if self.batch_size < 1:
            raise ValueError("index.batch_size must be >= 1, got %d"
                             % self.batch_size)
        if not isinstance(self.backend_kwargs, dict):
            raise ValueError("index.backend_kwargs must be an object of "
                             "backend constructor kwargs, got %r"
                             % (self.backend_kwargs,))
        if self.backend not in BACKENDS:
            raise ValueError("index.backend %r is not registered; choose "
                             "one of: %s"
                             % (self.backend, ", ".join(sorted(BACKENDS))))
        if self.num_shards < 1:
            raise ValueError("index.num_shards must be >= 1, got %d"
                             % self.num_shards)
        if (self.inner_backend == "sharded"
                or self.inner_backend not in BACKENDS):
            inner = sorted(set(BACKENDS) - {"sharded"})
            raise ValueError("index.inner_backend must be one of: %s; "
                             "got %r" % (", ".join(inner),
                                         self.inner_backend))
        if self.shard_retries < 0:
            raise ValueError("index.shard_retries must be >= 0, got %d"
                             % self.shard_retries)
        if self.shard_backoff_ms < 0:
            raise ValueError("index.shard_backoff_ms must be >= 0, got %r"
                             % self.shard_backoff_ms)
        if self.num_lists < 0:
            raise ValueError("index.num_lists must be >= 0 (0 = sqrt "
                             "heuristic), got %d" % self.num_lists)
        if self.nprobe < 1:
            raise ValueError("index.nprobe must be >= 1, got %d"
                             % self.nprobe)
        if self.rerank_k < 0:
            raise ValueError("index.rerank_k must be >= 0 (0 = re-rank "
                             "every candidate), got %d" % self.rerank_k)
        if self.relations is not None:
            valid = {r.value for r in Relation}
            unknown = sorted(set(self.relations) - valid)
            if unknown:
                raise ValueError("index.relations has unknown relation(s) "
                                 "%s; valid: %s"
                                 % (unknown, ", ".join(sorted(valid))))
        # construct (not build) the backend, so a kwarg it rejects fails
        # here and not after training
        try:
            backend = make_backend(self.backend,
                                   **self.resolved_backend_kwargs())
            if isinstance(backend, ShardedBackend):
                make_backend(backend.inner_backend, **backend.inner_kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError("index.backend_kwargs %r rejected by backend "
                             "%r: %s" % (self.backend_kwargs, self.backend,
                                         exc)) from exc

    def relation_list(self) -> Optional[List[Relation]]:
        if self.relations is None:
            return None
        return [Relation(value) for value in self.relations]

    def _ann_dial_kwargs(self, backend: str) -> Dict[str, Any]:
        """The recall/latency dial kwargs a given ANN backend takes."""
        if backend == "ivf":
            return {"num_lists": self.num_lists, "nprobe": self.nprobe,
                    "rerank_k": self.rerank_k}
        return {}

    def resolved_backend_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs for the configured backend.

        For ``backend="sharded"`` the shard keys are folded in; for the
        ANN backend (``"ivf"``, directly or as the inner backend of a
        sharded index) the recall/latency dials are folded
        in (explicit ``backend_kwargs`` entries win, so power users can
        still set e.g. ``inner_kwargs`` or override the shard count).
        """
        kwargs = dict(self.backend_kwargs)
        for key, value in self._ann_dial_kwargs(self.backend).items():
            kwargs.setdefault(key, value)
        if self.backend == "sharded":
            kwargs.setdefault("num_shards", self.num_shards)
            kwargs.setdefault("inner_backend", self.inner_backend)
            inner_dials = self._ann_dial_kwargs(self.inner_backend)
            if inner_dials:
                inner_kwargs = dict(kwargs.get("inner_kwargs") or {})
                for key, value in inner_dials.items():
                    inner_kwargs.setdefault(key, value)
                kwargs["inner_kwargs"] = inner_kwargs
            if self.shard_retries > 0:
                kwargs.setdefault("shard_retries", self.shard_retries)
            if self.shard_backoff_ms > 0:
                kwargs.setdefault("shard_backoff",
                                  self.shard_backoff_ms / 1000.0)
        return kwargs

    @property
    def serving_shards(self) -> int:
        """Micro-batch fan-out width for the serving engine."""
        return self.num_shards if self.backend == "sharded" else 1


@dataclasses.dataclass
class ServingConfig:
    """Online serving layer: retriever knobs, engine, fleet sizing."""

    enabled: bool = True
    expansion_k: int = 10
    ads_per_key: int = 10
    k: int = 20
    max_batch_size: int = 32
    cache_size: int = 1024
    #: the batched service time is measured over ``measure_requests x
    #: measure_repeats`` seeded synthetic requests, each drawn afresh
    #: (``measure_requests=0`` skips measurement and the QPS sweep)
    measure_requests: int = 40
    measure_repeats: int = 2
    preclicks_per_request: int = 2
    #: offered load the fleet is sized for (via ``size_fleet``)
    target_qps: float = 50000.0
    target_utilisation: float = 0.8
    qps_sweep: List[float] = dataclasses.field(
        default_factory=lambda: [1000.0, 5000.0, 10000.0, 30000.0, 50000.0])
    seed: int = 0
    #: admission-queue watermark: arrivals beyond this depth are shed
    admission_max_queue: int = 256
    #: per-request queueing budget (ms): requests that would wait longer
    #: are shed at dispatch
    admission_deadline_ms: float = 50.0
    #: most requests per admitted micro-batch (0 = ``max_batch_size``)
    admission_max_batch: int = 0
    #: fraction of the admission queue reserved for the paid lane
    admission_priority_share: float = 0.0
    #: retries per raising engine shard slice before it degrades to
    #: empty results for its requests
    slice_retries: int = 0

    def __post_init__(self):
        if self.k < 1 or self.expansion_k < 1 or self.ads_per_key < 1:
            raise ValueError("serving.k/expansion_k/ads_per_key must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("serving.max_batch_size must be >= 1")
        if self.cache_size < 0:
            raise ValueError("serving.cache_size must be >= 0 (0 disables "
                             "the result cache), got %d" % self.cache_size)
        if self.measure_requests < 0:
            raise ValueError("serving.measure_requests must be >= 0")
        if self.measure_repeats < 1:
            raise ValueError("serving.measure_repeats must be >= 1")
        if self.preclicks_per_request < 0:
            raise ValueError("serving.preclicks_per_request must be >= 0")
        if not 0.0 < self.target_utilisation <= 1.0:
            raise ValueError("serving.target_utilisation must be in (0, 1], "
                             "got %r" % self.target_utilisation)
        if self.target_qps <= 0:
            raise ValueError("serving.target_qps must be > 0")
        if any(not qps > 0 for qps in self.qps_sweep):
            raise ValueError("serving.qps_sweep entries must be > 0, got %r"
                             % (self.qps_sweep,))
        if self.admission_max_queue < 1:
            raise ValueError("serving.admission_max_queue must be >= 1, "
                             "got %d" % self.admission_max_queue)
        if not self.admission_deadline_ms > 0:
            raise ValueError("serving.admission_deadline_ms must be > 0, "
                             "got %r" % self.admission_deadline_ms)
        if self.admission_max_batch < 0:
            raise ValueError("serving.admission_max_batch must be >= 0 "
                             "(0 adopts max_batch_size), got %d"
                             % self.admission_max_batch)
        if not 0.0 <= self.admission_priority_share <= 1.0:
            raise ValueError("serving.admission_priority_share must be in "
                             "[0, 1], got %r" % self.admission_priority_share)
        if self.slice_retries < 0:
            raise ValueError("serving.slice_retries must be >= 0, got %d"
                             % self.slice_retries)

    def admission_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs for an ``AdmissionController`` over the engine.

        ``admission_max_batch=0`` resolves to the engine's
        ``max_batch_size``, so a batch formed under load is no wider
        than the engine would slice it.
        """
        return {
            "max_queue": self.admission_max_queue,
            "deadline_ms": self.admission_deadline_ms,
            "max_batch": self.admission_max_batch or self.max_batch_size,
            "priority_share": self.admission_priority_share,
            "k": self.k,
        }


@dataclasses.dataclass
class EvalConfig:
    """What to evaluate after training and index construction."""

    enabled: bool = True
    #: next-day link-prediction AUC sample pairs (0 disables)
    auc_samples: int = 300
    #: Hitrate/nDCG cutoffs against next-day click ground truth
    #: (empty disables the ranking evaluation)
    ranking_ks: List[int] = dataclasses.field(default_factory=lambda: [10, 100])
    max_queries: int = 150
    #: model variant for the A/B control channel (``None`` disables the
    #: simulated online A/B test; e.g. ``"amcad_e"`` for the paper's setup)
    ab_control: Optional[str] = None
    ab_requests: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.auc_samples < 0:
            raise ValueError("eval.auc_samples must be >= 0")
        if any(k < 1 for k in self.ranking_ks):
            raise ValueError("eval.ranking_ks must be positive")
        if self.max_queries < 1:
            raise ValueError("eval.max_queries must be >= 1, got %d"
                             % self.max_queries)
        if self.ab_control is not None:
            # reuse the model-name validation
            ModelConfig(name=self.ab_control)
            if self.ab_requests < 1:
                raise ValueError("eval.ab_requests must be >= 1 when "
                                 "eval.ab_control is set")


@dataclasses.dataclass
class FaultsConfig:
    """Fault-injection plan (the chaos harness; empty = no faults).

    Each entry of ``specs`` is a
    :class:`~repro.testing.faults.FaultSpec` as a plain dict
    (``{"site": "shard.search", "mode": "hang", ...}``); with
    ``enabled`` the plan is installed process-wide when a pipeline
    stands up its serving engine or trainer.  Strictly a
    testing/benchmark surface — the default config injects nothing.
    """

    enabled: bool = True
    specs: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def __post_init__(self):
        for i, spec in enumerate(self.specs):
            if not isinstance(spec, dict):
                raise ValueError("faults.specs[%d] must be an object, got %r"
                                 % (i, type(spec).__name__))
            FaultSpec.from_dict(spec)  # full key/value validation

    def fault_specs(self) -> List[FaultSpec]:
        """The validated specs, or ``[]`` when disabled."""
        if not self.enabled:
            return []
        return [FaultSpec.from_dict(spec) for spec in self.specs]


_SECTIONS = {
    "data": DataConfig,
    "graph": GraphConfig,
    "model": ModelConfig,
    "training": TrainingConfig,
    "index": IndexConfig,
    "serving": ServingConfig,
    "eval": EvalConfig,
    "faults": FaultsConfig,
}


@dataclasses.dataclass
class PipelineConfig:
    """The whole lifecycle as one validated, serialisable object."""

    name: str = "pipeline"
    #: default artifact directory for ``Pipeline`` runs (CLI ``--artifacts``
    #: overrides; ``None`` keeps the run in memory)
    artifact_dir: Optional[str] = None
    data: DataConfig = dataclasses.field(default_factory=DataConfig)
    graph: GraphConfig = dataclasses.field(default_factory=GraphConfig)
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    training: TrainingConfig = dataclasses.field(default_factory=TrainingConfig)
    index: IndexConfig = dataclasses.field(default_factory=IndexConfig)
    serving: ServingConfig = dataclasses.field(default_factory=ServingConfig)
    eval: EvalConfig = dataclasses.field(default_factory=EvalConfig)
    faults: FaultsConfig = dataclasses.field(default_factory=FaultsConfig)

    # -- dict / JSON round-trip ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PipelineConfig":
        """Build and validate a config from a plain dict (e.g. JSON)."""
        payload = dict(payload)
        _reject_unknown("pipeline", payload, cls)
        kwargs: Dict[str, Any] = {}
        for key, value in payload.items():
            section_cls = _SECTIONS.get(key)
            if section_cls is None:
                kwargs[key] = value
                continue
            if not isinstance(value, dict):
                raise ValueError("section %r must be an object, got %r"
                                 % (key, type(value).__name__))
            value = drop_retired_planes(key, value)
            _reject_unknown(key, value, section_cls)
            kwargs[key] = section_cls(**value)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> pathlib.Path:
        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_json(pathlib.Path(path).read_text())

    # -- CLI-style overrides -------------------------------------------------

    #: dotted paths whose values are free-form dicts: overrides may
    #: introduce keys there that the base config does not carry yet
    #: (they are still validated against the wrapped dataclass by
    #: ``from_dict``)
    _FREE_FORM_PATHS = frozenset(
        {"data.simulator", "model.overrides", "index.backend_kwargs"})

    def with_overrides(self, assignments: Sequence[str]) -> "PipelineConfig":
        """A new config with ``section.key=value`` assignments applied.

        Values are parsed as JSON where possible (``200`` → int,
        ``true`` → bool, ``[10,100]`` → list, ``null`` → None) and fall
        back to plain strings; the result is re-validated in full, so a
        retired key is dropped or rejected exactly as on load.
        """
        payload = self.to_dict()
        for assignment in assignments:
            if "=" not in assignment:
                raise ValueError("override %r is not of the form "
                                 "section.key=value" % assignment)
            dotted, raw = assignment.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            target = payload
            parts = dotted.strip().split(".")
            for part in parts[:-1]:
                if not isinstance(target.get(part), dict):
                    raise ValueError(
                        "override %r: %r is not a config section; "
                        "available: %s"
                        % (assignment, part, ", ".join(sorted(target))))
                target = target[part]
            section = ".".join(parts[:-1])
            known = (parts[-1] in target or section in self._FREE_FORM_PATHS
                     or is_retired_key(section, parts[-1]))
            if not known:
                raise ValueError(
                    "override %r: unknown key %r; available: %s"
                    % (assignment, parts[-1], ", ".join(sorted(target))))
            target[parts[-1]] = value
        return PipelineConfig.from_dict(payload)
