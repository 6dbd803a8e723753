"""Day-level incremental training (paper §V-C).

Instead of re-training on a whole multi-day window, the deployed
system inherits the previous day's model and continues training on the
new day's graph only.  Because feature occurrence is long-tailed, an
LRU feature-exit mechanism evicts embedding rows for features unseen
over a horizon, capping model growth.

Here the mechanism is reproduced faithfully at laptop scale: the same
model object is re-bound to each new day's graph (the entity universe
is shared, so embedding tables keep their meaning), trained for a
fraction of the from-scratch step budget, and its feature tables are
swept by :class:`~repro.models.features.LRUFeatureRegistry`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.data.logs import BehaviorLog
from repro.data.universe import Universe
from repro.graph.builder import build_graph
from repro.graph.hetgraph import HetGraph
from repro.models.amcad import AMCAD
from repro.models.features import LRUFeatureRegistry
from repro.training.trainer import Trainer, TrainerConfig, TrainingReport


@dataclasses.dataclass
class DayResult:
    """Outcome of one incremental day."""

    day: int
    report: TrainingReport
    evicted_features: int
    active_features: int


class IncrementalTrainer:
    """Continues training one model across consecutive daily graphs.

    Parameters
    ----------
    model:
        The model inherited day over day.
    universe:
        Shared entity catalogue (ids stay aligned across days).
    steps_per_day:
        Incremental step budget (a fraction of from-scratch training).
    lru_horizon_days:
        Days a feature may stay unseen before eviction.
    """

    def __init__(self, model: AMCAD, universe: Universe,
                 steps_per_day: int = 20, lru_horizon_days: int = 3,
                 trainer_config: Optional[TrainerConfig] = None):
        self.model = model
        self.universe = universe
        self.steps_per_day = int(steps_per_day)
        self.trainer_config = trainer_config or TrainerConfig()
        self.registry = LRUFeatureRegistry(horizon_steps=lru_horizon_days)
        for embedding in model.encoder.embeddings.values():
            for table in embedding.tables.values():
                self.registry.register(table)
        self.history: List[DayResult] = []

    def _touch_day_features(self, graph: HetGraph) -> None:
        """Mark features of active (connected) nodes as seen today."""
        for node_type, embedding in self.model.encoder.embeddings.items():
            degree = graph.degree(node_type)
            active = np.flatnonzero(degree > 0)
            fields = graph.features[node_type]
            for field, table in embedding.tables.items():
                self.registry.touch(table, np.asarray(fields[field])[active])

    def train_day(self, log: BehaviorLog) -> DayResult:
        """Inherit the model and continue training on one day's graph."""
        graph = build_graph(self.universe, [log])
        self.model.graph = graph
        self.model.encoder.graph = graph
        config = dataclasses.replace(self.trainer_config,
                                     steps=self.steps_per_day,
                                     warmup_steps=0)
        trainer = Trainer(self.model, config)
        report = trainer.train()
        self._touch_day_features(graph)
        self.registry.advance()
        evicted = self.registry.evict_stale()
        result = DayResult(day=log.day, report=report,
                           evicted_features=evicted,
                           active_features=self.registry.active_rows)
        self.history.append(result)
        return result

    def train_days(self, logs: Sequence[BehaviorLog]) -> List[DayResult]:
        return [self.train_day(log) for log in logs]
