"""Training engine: optimiser, stability measures, trainer loops.

Implements paper §IV-B-3 (joint triplet training over all relations)
and §V (deployment): AdaGrad on tangent-space parameters, gradient
clipping + learning-rate warm-up (§V-B), and day-level incremental
training with LRU feature exit (§V-C).
"""

from repro.training.optim import AdaGrad, WarmupSchedule, clip_gradients
from repro.training.trainer import Trainer, TrainerConfig, TrainingReport
from repro.training.incremental import IncrementalTrainer

__all__ = [
    "AdaGrad",
    "WarmupSchedule",
    "clip_gradients",
    "Trainer",
    "TrainerConfig",
    "TrainingReport",
    "IncrementalTrainer",
]
