"""The joint training loop (paper §IV-B-3, §V-A).

One training iteration mirrors the paper's XDL/Euler deployment loop:
the worker asks the graph engine for meta-path walk samples plus
negatives, computes the triplet loss over all relation types jointly,
and applies an (asynchronous in the paper, synchronous here) AdaGrad
update.  Curvatures are clamped after every step.

The sampling phase is array-native: meta-path walks advance in blocks
(one alias draw per level for every walk at once), negatives attach
with vectorised draws, and the loss receives a
:class:`~repro.graph.sampling.SampleBatch`.  The forward dedups the GCN
receptive field into per-level unique frontiers
(:class:`~repro.models.plan.EncodePlan`) before touching the tape.

There is one loop, :meth:`Trainer.train_step`: every step samples
fresh neighbour draws (the paper's stochastic aggregation) for one
batch, and one dial, ``backward_depth`` (default off), truncates the
backward below a GCN level (full forward, bounded tape).

``checkpoint_every`` only adds writes to that loop: a checkpointed run
trains the same model as an un-checkpointed one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common import atomic_savez, drop_retired_planes
from repro.graph.metapath import MAX_EMPTY_ROUNDS, MetaPathWalker
from repro.graph.sampling import NegativeSampler, SampleBatch
from repro.graph.schema import Relation
from repro.models.amcad import AMCAD
from repro.training.optim import AdaGrad


@dataclasses.dataclass
class TrainerConfig:
    """Loop hyper-parameters (paper §VI-A-3 scaled down).

    The paper uses batch 1024, K=6 negatives, lr=1e-2; defaults here
    keep those ratios at laptop scale.  Every value is validated on
    construction, so an invalid option is rejected where the config is
    built (``TrainerConfig(...)``, ``PipelineConfig.from_dict``), not
    where it is first used.

    ``backward_depth`` keeps only the top N GCN rounds on the tape: the
    forward is bit-identical — lower levels run the same encoder code
    under ``no_grad`` — while the backward stops at the boundary.
    0 = full backward.
    """

    steps: int = 60
    batch_size: int = 64
    num_negatives: int = 6
    easy_ratio: float = 2.0 / 3.0
    learning_rate: float = 1e-2
    warmup_steps: int = 10
    clip_norm: float = 5.0
    seed: int = 0
    backward_depth: int = 0
    #: optimiser steps between resume checkpoints (0 disables).  A
    #: checkpoint holds everything the loop carries from one step to
    #: the next, so a resumed run's losses are bit-identical to the
    #: uninterrupted run's — and to a run that never checkpointed.
    checkpoint_every: int = 0

    def __post_init__(self):
        for key, minimum in (("steps", 1), ("batch_size", 1),
                             ("backward_depth", 0), ("checkpoint_every", 0)):
            if getattr(self, key) < minimum:
                raise ValueError("training.%s must be >= %d, got %r"
                                 % (key, minimum, getattr(self, key)))
        if self.learning_rate <= 0:
            raise ValueError("training.learning_rate must be > 0, got %r"
                             % self.learning_rate)

    def __getattr__(self, name):
        # only reached for names the instance and class do not have
        if name in _RETIRED_TRAINING_KEYS:
            raise AttributeError(
                "TrainerConfig.%s was retired with its plane; the key is "
                "accepted (and dropped) on construction only" % name)
        raise AttributeError("%r object has no attribute %r"
                             % (type(self).__name__, name))


#: keys of the removed multi-process sampler, cross-step draw cache and
#: gradient accumulation: the constructor accepts any value they
#: accepted and drops it (see ``drop_retired_planes``); they are not
#: fields, so reading one raises
_RETIRED_TRAINING_KEYS = ("prefetch_workers", "prefetch_depth",
                          "plan_refresh", "accumulate_steps")
_dataclass_init = TrainerConfig.__init__


@functools.wraps(_dataclass_init)
def _init_dropping_retired(self, *args, **kwargs):
    retired = {key: kwargs.pop(key) for key in _RETIRED_TRAINING_KEYS
               if key in kwargs}
    drop_retired_planes("training", {key: value for key, value
                                     in retired.items() if value is not None})
    _dataclass_init(self, *args, **kwargs)


TrainerConfig.__init__ = _init_dropping_retired


@dataclasses.dataclass
class TrainingReport:
    """What a training run produced (losses, wall-clock, grad norms)."""

    losses: List[float]
    wall_seconds: float
    steps: int
    samples_seen: int
    #: optimiser step this run started from (0 = fresh trainer)
    resumed_from_step: int = 0
    #: resume checkpoints written during this run
    checkpoints_written: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def mean_tail_loss(self) -> float:
        """Mean of the last quarter of steps — a stable convergence proxy."""
        if not self.losses:
            return float("nan")
        tail = self.losses[-max(1, len(self.losses) // 4):]
        return float(np.mean(tail))


class Trainer:
    """Trains an :class:`AMCAD` model (or variant) on its graph."""

    def __init__(self, model: AMCAD, config: Optional[TrainerConfig] = None,
                 walker: Optional[MetaPathWalker] = None,
                 negative_sampler: Optional[NegativeSampler] = None,
                 checkpoint_path=None):
        self.model = model
        self.config = config or TrainerConfig()
        self.checkpoint_path = checkpoint_path
        cfg = self.config
        model.encoder.backward_depth = cfg.backward_depth
        self._steps_done = 0
        self.rng = np.random.default_rng(cfg.seed)
        self.walker = walker or MetaPathWalker(model.graph)
        self.negative_sampler = negative_sampler or NegativeSampler(
            model.graph, num_negatives=cfg.num_negatives,
            easy_ratio=cfg.easy_ratio)
        self.optimizer = AdaGrad(model.parameters(),
                                 learning_rate=cfg.learning_rate,
                                 warmup_steps=cfg.warmup_steps,
                                 clip_norm=cfg.clip_norm)
        #: losses across the whole trainer lifetime (survives resume —
        #: restored from the checkpoint, appended to by every run)
        self.loss_history: List[float] = []
        # per-relation (src, pos) array chunks, and how many walks each
        # refill round advances together
        self._array_buffers: Dict[Relation, List[Tuple[np.ndarray,
                                                       np.ndarray]]] = {}
        self._walks_per_round = max(len(self.walker.meta_paths),
                                    3 * cfg.batch_size)

    def _next_batch(self) -> SampleBatch:
        """A relation-homogeneous batch: walks advance in blocks.

        Pairs arrive in mixed relation order; buffering until one
        relation fills a batch keeps every training step a single large
        batched encode instead of six small ones (≈6× fewer python-op
        dispatches — all relations still train jointly over steps).  A
        refill advances ``_walks_per_round`` walks per meta-path level
        with batched alias draws, and the returned batch is a
        :class:`SampleBatch` ready for the vectorised negative sampler
        and loss.  :data:`~repro.graph.metapath.MAX_EMPTY_ROUNDS` refills
        in a row without a pair raise ``RuntimeError``.
        """
        target = self.config.batch_size
        empty_rounds = 0
        while True:
            for relation, chunks in self._array_buffers.items():
                if sum(chunk[0].size for chunk in chunks) < target:
                    continue
                src = np.concatenate([chunk[0] for chunk in chunks])
                pos = np.concatenate([chunk[1] for chunk in chunks])
                leftover = ([] if src.size == target
                            else [(src[target:], pos[target:])])
                self._array_buffers[relation] = leftover
                return self.negative_sampler.sample_arrays(
                    self.rng, relation, src[:target], pos[:target])
            blocks = self.walker.sample_pair_blocks(self.rng,
                                                    self._walks_per_round)
            for block in blocks:
                self._array_buffers.setdefault(block.relation, []).append(
                    (block.src_idx, block.dst_idx))
            empty_rounds = 0 if blocks else empty_rounds + 1
            if empty_rounds == MAX_EMPTY_ROUNDS:
                raise RuntimeError("meta-path walker produced no pairs in "
                                   "%d walk rounds" % MAX_EMPTY_ROUNDS)

    def train_step(self) -> float:
        """One batch: sample → loss → backward → clip → AdaGrad → clamp κ."""
        self._steps_done += 1
        self.optimizer.zero_grad()
        loss = self.model.loss(self._next_batch(), rng=self.rng)
        loss.backward()
        self.optimizer.step()
        self.model.constrain()
        return loss.item()

    #: 2 added the loop's leftover pair buffers; a format-1 checkpoint
    #: cannot continue the loop bit-identically and is refused
    CHECKPOINT_FORMAT = 2

    #: fingerprint keys of retired dials, each at the value that ran the
    #: loop that is left: a checkpoint carrying it resumes, and any other
    #: value is refused as a config mismatch naming the key
    RETIRED_FINGERPRINT = {"plan_refresh": 1, "accumulate_steps": 1}

    def _checkpoint_arrays(self):
        """Parameter and AdaGrad-accumulator views, one pair per array
        of the model's checkpoint layout (``AMCAD.checkpoint_arrays``)."""
        accumulators = {id(param): accumulator for param, accumulator
                        in zip(self.optimizer.parameters,
                               self.optimizer._accumulators)}
        return (self.model.checkpoint_arrays(),
                self.model.checkpoint_arrays(
                    lambda param: accumulators[id(param)]))

    def save_checkpoint(self, path=None) -> None:
        """Atomically write a resume checkpoint (npz) to ``path``.

        Captures everything ``restore_checkpoint`` needs for a
        bit-identical continuation: parameter tensors, AdaGrad
        accumulators and step count, the trainer's step counter and
        loss history, the RNG's full bit-generator state and the
        per-relation leftover ``(src, pos)`` pair buffers, in their
        fill order.  The write goes through
        :func:`repro.common.atomic_savez`, so a crash mid-write leaves
        the previous checkpoint intact.
        """
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        header = {
            "format_version": self.CHECKPOINT_FORMAT,
            "steps_done": self._steps_done,
            "optimizer_step_count": self.optimizer.step_count,
            "losses": [float(x) for x in self.loss_history],
            "rng_state": self.rng.bit_generator.state,
            "fingerprint": dataclasses.asdict(self.config),
            "buffers": [relation.value for relation in self._array_buffers],
        }
        arrays = {"header": np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)}
        params, accumulators = self._checkpoint_arrays()
        for i, (param, accumulator) in enumerate(zip(params, accumulators)):
            arrays["param_%06d" % i] = param
            arrays["accum_%06d" % i] = accumulator
        for relation, chunks in self._array_buffers.items():
            for j, name in enumerate(("src", "pos")):
                arrays["buffer_%s_%s" % (name, relation.value)] = (
                    np.concatenate([chunk[j] for chunk in chunks]) if chunks
                    else np.empty(0, dtype=np.int64))
        atomic_savez(path, arrays)

    def restore_checkpoint(self, path=None) -> int:
        """Load a checkpoint written by :meth:`save_checkpoint`.

        Restores parameters, optimiser state, the step counter, the
        loss history, the RNG state and the pair buffers in place, then
        returns the optimiser step the checkpoint was taken at.  Raises
        ``ValueError`` if the checkpoint's format or config fingerprint
        does not match this trainer's (resuming under different
        hyper-parameters would silently diverge from the uninterrupted
        run).
        """
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("format_version") != self.CHECKPOINT_FORMAT:
                raise ValueError(
                    "checkpoint %s has format_version %r, expected %d"
                    % (path, header.get("format_version"),
                       self.CHECKPOINT_FORMAT))
            theirs = header.get("fingerprint")
            ours = dataclasses.asdict(self.config)
            ours.update({key: value for key, value
                         in self.RETIRED_FINGERPRINT.items()
                         if key in (theirs or {})})
            if theirs != ours:
                diff = sorted(k for k in set(ours) | set(dict(theirs or {}))
                              if ours.get(k) != (theirs or {}).get(k))
                raise ValueError(
                    "checkpoint %s was written under a different config "
                    "(mismatched: %s); resuming would diverge from the "
                    "uninterrupted run" % (path, ", ".join(diff) or "?"))
            params, accumulators = self._checkpoint_arrays()
            for i, (param, accumulator) in enumerate(zip(params,
                                                         accumulators)):
                stored = data["param_%06d" % i]
                if stored.shape != param.shape:
                    raise ValueError(
                        "checkpoint %s parameter %d has shape %s, model "
                        "expects %s" % (path, i, stored.shape, param.shape))
                param[...] = stored
                accumulator[...] = data["accum_%06d" % i]
            buffers = {}
            for value in header["buffers"]:
                src = data["buffer_src_%s" % value]
                pos = data["buffer_pos_%s" % value]
                buffers[Relation(value)] = [(src, pos)] if src.size else []
        self.optimizer.step_count = int(header["optimizer_step_count"])
        self._steps_done = int(header["steps_done"])
        self.loss_history = [float(x) for x in header["losses"]]
        self.rng.bit_generator.state = header["rng_state"]
        self._array_buffers = buffers
        return self._steps_done

    def train(self, steps: Optional[int] = None,
              log_every: int = 0) -> TrainingReport:
        """Run the loop; returns losses and wall-clock time.

        ``steps`` (default ``config.steps``) is the *lifetime total* of
        optimiser steps this trainer should have taken when the call
        returns, not an increment: a fresh trainer runs ``steps`` of
        them, a trainer restored from a checkpoint at step ``s`` (or
        one that already trained ``s`` steps) runs the remaining
        ``steps - s`` — with the same losses one uninterrupted call
        would have produced.  A call with nothing left to do raises
        ``ValueError``.
        """
        steps = steps if steps is not None else self.config.steps
        cfg = self.config
        if self._steps_done >= steps:
            raise ValueError(
                "train(steps=%d) has nothing left to do: this trainer has "
                "already taken %d optimiser steps, and steps is the lifetime "
                "total, not an increment" % (steps, self._steps_done))
        checkpointing = (cfg.checkpoint_every > 0
                         and self.checkpoint_path is not None)
        start_step = self._steps_done
        losses: List[float] = []
        checkpoints_written = 0
        start = time.perf_counter()
        for step in range(start_step, steps):
            losses.append(self.train_step())
            self.loss_history.append(losses[-1])
            if log_every and (step + 1) % log_every == 0:
                print("step %4d  loss %.4f  |grad| %.3f" %
                      (step + 1, losses[-1], self.optimizer.last_grad_norm))
            if (checkpointing and step + 1 < steps
                    and (step + 1) % cfg.checkpoint_every == 0):
                self.save_checkpoint()
                checkpoints_written += 1
        elapsed = time.perf_counter() - start
        if checkpointing:
            # a completed run leaves no checkpoint behind: rerunning the
            # stage trains fresh instead of resuming past the end
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.checkpoint_path)
        return TrainingReport(
            losses=losses, wall_seconds=elapsed, steps=steps - start_step,
            samples_seen=(steps - start_step) * cfg.batch_size,
            resumed_from_step=start_step,
            checkpoints_written=checkpoints_written)
