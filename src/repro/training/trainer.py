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
(:class:`~repro.models.plan.EncodePlan`) before touching the tape;
``TrainerConfig.plan_refresh`` adds cross-step reuse of the captured
neighbour draws.

Three throughput knobs stack on top (all default off; the synchronous
single-process loop remains the parity reference):

- ``prefetch_workers`` — run the sampling phase (batch + per-role
  encode plans) in a :class:`~repro.training.prefetch.PlanProducer`
  process pool, double-buffered so step N+1's payload is built while
  step N's forward/backward runs;
- ``accumulate_steps`` — K micro-batches per optimiser step,
  loss-scaled by 1/K so the update equals one K-times-larger batch;
- ``backward_depth`` — truncate the backward below a GCN level (full
  forward, bounded tape).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common import atomic_savez
from repro.graph.metapath import MetaPathWalker
from repro.graph.sampling import NegativeSampler, SampleBatch
from repro.graph.schema import Relation
from repro.models.amcad import AMCAD
from repro.models.plan import NeighborDrawCache
from repro.training.optim import AdaGrad
from repro.training.prefetch import PlanProducer


@dataclasses.dataclass
class TrainerConfig:
    """Loop hyper-parameters (paper §VI-A-3 scaled down).

    The paper uses batch 1024, K=6 negatives, lr=1e-2; defaults here
    keep those ratios at laptop scale.  Every value is validated on
    construction, so an invalid option is rejected where the config is
    built (``TrainerConfig(...)``, ``PipelineConfig.from_dict``), not
    where it is first used.

    ``plan_refresh`` controls encode-plan reuse across steps: with a
    value N > 1, ``train()`` attaches a
    :class:`~repro.models.plan.NeighborDrawCache` to the encoder for
    the duration of the loop, so a node revisited within an N-step
    window reuses its captured neighbour draws (plans are cheaper to
    build and the GCN sees a stable frontier), and the cache is
    cleared — draws resampled — every N steps, then detached before
    ``train()`` returns (inference never sees training-time draws).
    The default 1 resamples every step, matching the paper's
    stochastic aggregation exactly.

    ``prefetch_workers`` moves the sampling phase into a
    :class:`~repro.training.prefetch.PlanProducer` pool of that many
    spawn-context processes (0 = the synchronous reference path);
    ``prefetch_depth`` bounds the payload queue (double-buffering).
    Combined with ``plan_refresh > 1`` the producer owns the draw
    cache (one per worker) and demands ``plan_refresh >
    prefetch_workers`` — a shorter window can never hit a worker's
    cache.

    ``accumulate_steps`` runs K micro-batches per optimiser step with
    the loss scaled by 1/K, so gradients match one K·batch_size batch
    exactly (the loss is mean-normalised; asserted in tests).

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
    plan_refresh: int = 1
    prefetch_workers: int = 0
    prefetch_depth: int = 2
    accumulate_steps: int = 1
    backward_depth: int = 0
    #: optimiser steps between resume checkpoints (0 disables).
    #: Checkpointed runs consume the producer payload stream (inline
    #: when ``prefetch_workers=0``) whose step payloads are pure
    #: ``(seed, step)``, so a run resumed from a checkpoint produces
    #: losses bit-identical to the uninterrupted run.
    checkpoint_every: int = 0

    def __post_init__(self):
        for key, minimum in (("steps", 1), ("batch_size", 1),
                             ("plan_refresh", 1), ("prefetch_workers", 0),
                             ("prefetch_depth", 1), ("accumulate_steps", 1),
                             ("backward_depth", 0), ("checkpoint_every", 0)):
            if getattr(self, key) < minimum:
                raise ValueError("training.%s must be >= %d, got %r"
                                 % (key, minimum, getattr(self, key)))
        if self.learning_rate <= 0:
            raise ValueError("training.learning_rate must be > 0, got %r"
                             % self.learning_rate)
        if 1 < self.plan_refresh <= self.prefetch_workers:
            raise ValueError(
                "training.plan_refresh=%d with prefetch_workers=%d would "
                "silently miss the draw cache on every plan (each worker "
                "produces every %d-th step); use plan_refresh > "
                "prefetch_workers" % (self.plan_refresh, self.prefetch_workers,
                                      self.prefetch_workers))
        if (self.checkpoint_every > 0 and self.plan_refresh > 1
                and (self.checkpoint_every * self.accumulate_steps)
                % self.plan_refresh != 0):
            raise ValueError(
                "training.checkpoint_every=%d (x%d micro-steps) must land on "
                "a plan_refresh=%d window boundary, or a resumed run would "
                "rebuild plans from a different draw window"
                % (self.checkpoint_every, self.accumulate_steps,
                   self.plan_refresh))


@dataclasses.dataclass
class TrainingReport:
    """What a training run produced (losses, wall-clock, grad norms)."""

    losses: List[float]
    wall_seconds: float
    steps: int
    samples_seen: int
    #: time the consumer spent blocked on the prefetch queue (0.0 on
    #: the synchronous path)
    prefetch_wait_seconds: float = 0.0
    #: optimiser step this run resumed from (0 = fresh run)
    resumed_from_step: int = 0
    #: resume checkpoints written during this run
    checkpoints_written: int = 0
    #: prefetch workers that crashed / replacements spawned mid-run
    worker_deaths: int = 0
    worker_respawns: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def overlap_fraction(self) -> float:
        """Fraction of the wall during which the producer kept up.

        ``1 - wait/wall``: 1.0 means the consumer never blocked on the
        queue (sampling fully hidden behind forward/backward), 0.0
        means it waited the whole run.  Synchronous runs report 1.0
        trivially — there is no queue to wait on.
        """
        if self.wall_seconds <= 0:
            return 1.0
        return float(np.clip(1.0 - self.prefetch_wait_seconds
                             / self.wall_seconds, 0.0, 1.0))

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
        # drop any stale cache a previous trainer left on the encoder;
        # train() attaches a fresh one for the duration of the loop only
        model.encoder.draw_cache = None
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
        and loss.
        """
        target = self.config.batch_size
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
            for block in self.walker.sample_pair_blocks(
                    self.rng, self._walks_per_round):
                self._array_buffers.setdefault(block.relation, []).append(
                    (block.src_idx, block.dst_idx))

    def _accumulate_micro(self, next_micro) -> float:
        """One optimiser step over K micro-batches from ``next_micro``.

        ``next_micro()`` returns ``(samples, plans)``; ``plans`` is
        ``None`` on the synchronous path (the loss samples its own
        draws) and the producer's role-keyed plan dict when
        prefetching.  Each micro loss is scaled by 1/K before its
        backward — the tape accumulates gradients across ``backward``
        calls, so after K micro-batches the parameter gradients equal
        those of a single K·batch_size batch (the loss is
        mean-normalised per batch).  The returned scalar is the mean
        micro loss, directly comparable to a K=1 step's loss.
        """
        k = self.config.accumulate_steps
        self.optimizer.zero_grad()
        total = 0.0
        for _ in range(k):
            samples, plans = next_micro()
            loss = self.model.loss(samples, rng=self.rng, plans=plans)
            if k > 1:
                loss = loss / k
            loss.backward()
            total += loss.item()
        self.optimizer.step()
        self.model.constrain()
        return total

    def train_step(self) -> float:
        """One batch: sample → loss → backward → clip → AdaGrad → clamp κ.

        With ``accumulate_steps=K`` this is K sampled micro-batches and
        one optimiser step; the returned loss is their (1/K-scaled)
        sum, i.e. the mean micro loss.
        """
        cache = self.model.encoder.draw_cache
        if cache is not None and self._steps_done % self.config.plan_refresh == 0:
            cache.clear()
        self._steps_done += 1
        return self._accumulate_micro(lambda: (self._next_batch(), None))

    CHECKPOINT_FORMAT = 1

    def _checkpoint_fingerprint(self) -> Dict[str, object]:
        """The config subset a checkpoint must match to be resumable.

        ``prefetch_workers`` / ``prefetch_depth`` are excluded on
        purpose: producer payloads are pure ``(seed, step)``, so the
        worker topology may change between the checkpointing run and
        the resuming run without perturbing the loss trajectory.
        """
        fingerprint = dataclasses.asdict(self.config)
        fingerprint.pop("prefetch_workers", None)
        fingerprint.pop("prefetch_depth", None)
        return fingerprint

    def save_checkpoint(self, path=None) -> None:
        """Atomically write a resume checkpoint (npz) to ``path``.

        Captures everything ``restore_checkpoint`` needs for a
        bit-identical continuation: parameter tensors, AdaGrad
        accumulators and step count, the trainer's step counter and
        loss history, and the consumer RNG's full bit-generator state.
        The write goes through :func:`repro.common.atomic_savez`, so a
        crash mid-write leaves the previous checkpoint intact.
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
            "fingerprint": self._checkpoint_fingerprint(),
        }
        arrays = {"header": np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)}
        for i, param in enumerate(self.optimizer.parameters):
            arrays["param_%06d" % i] = param.data
        for i, accumulator in enumerate(self.optimizer._accumulators):
            arrays["accum_%06d" % i] = accumulator
        atomic_savez(path, arrays)

    def restore_checkpoint(self, path=None) -> int:
        """Load a checkpoint written by :meth:`save_checkpoint`.

        Restores parameters, optimiser state, the step counter, the
        loss history, and the RNG state in place, then returns the
        optimiser step the checkpoint was taken at.  Raises
        ``ValueError`` if the checkpoint's config fingerprint does not
        match this trainer's (resuming under different hyper-parameters
        would silently diverge from the uninterrupted run).
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
            ours = self._checkpoint_fingerprint()
            theirs = header.get("fingerprint")
            if theirs != ours:
                diff = sorted(k for k in set(ours) | set(dict(theirs or {}))
                              if ours.get(k) != (theirs or {}).get(k))
                raise ValueError(
                    "checkpoint %s was written under a different config "
                    "(mismatched: %s); resuming would diverge from the "
                    "uninterrupted run" % (path, ", ".join(diff) or "?"))
            params = self.optimizer.parameters
            for i, param in enumerate(params):
                stored = data["param_%06d" % i]
                if stored.shape != param.data.shape:
                    raise ValueError(
                        "checkpoint %s parameter %d has shape %s, model "
                        "expects %s" % (path, i, stored.shape,
                                        param.data.shape))
                param.data[...] = stored
            for i, accumulator in enumerate(self.optimizer._accumulators):
                accumulator[...] = data["accum_%06d" % i]
        self.optimizer.step_count = int(header["optimizer_step_count"])
        self._steps_done = int(header["steps_done"])
        self.loss_history = [float(x) for x in header["losses"]]
        self.rng.bit_generator.state = header["rng_state"]
        return self._steps_done

    def train(self, steps: Optional[int] = None,
              log_every: int = 0) -> TrainingReport:
        """Run the loop; returns losses and wall-clock time.

        ``steps`` (default ``config.steps``) is the *lifetime total* of
        optimiser steps this trainer should have taken when the call
        returns, not an increment: a fresh trainer runs ``steps`` of
        them, a trainer restored from a checkpoint at step ``s`` (or
        one that already trained ``s`` steps) runs the remaining
        ``steps - s``.  A call with nothing left to do raises
        ``ValueError``.

        The ``plan_refresh`` draw cache lives only for the duration of
        the loop — it is detached before returning so post-training
        inference (index builds, evaluation) never reuses frozen
        training-time neighbour draws.  With ``prefetch_workers > 0``
        the cache is owned by the producer's workers instead and the
        encoder never carries one.
        """
        steps = steps if steps is not None else self.config.steps
        cfg = self.config
        if self._steps_done >= steps:
            raise ValueError(
                "train(steps=%d) has nothing left to do: this trainer has "
                "already taken %d optimiser steps, and steps is the lifetime "
                "total, not an increment" % (steps, self._steps_done))
        if (cfg.prefetch_workers > 0 or cfg.checkpoint_every > 0
                or self._steps_done > 0):
            # checkpointed (and resumed) runs must consume the
            # (seed, step)-pure producer payload stream — inline when
            # prefetch_workers=0 — so micro-step i's payload is the
            # same whether or not the run was interrupted
            return self._train_prefetched(steps, log_every)
        if cfg.plan_refresh > 1:
            self.model.encoder.draw_cache = NeighborDrawCache()
        losses: List[float] = []
        start = time.perf_counter()
        try:
            for step in range(steps):
                losses.append(self.train_step())
                self.loss_history.append(losses[-1])
                if log_every and (step + 1) % log_every == 0:
                    print("step %4d  loss %.4f  |grad| %.3f" %
                          (step + 1, losses[-1],
                           self.optimizer.last_grad_norm))
        finally:
            self.model.encoder.draw_cache = None
        elapsed = time.perf_counter() - start
        return TrainingReport(
            losses=losses, wall_seconds=elapsed, steps=steps,
            samples_seen=steps * cfg.batch_size * cfg.accumulate_steps)

    def make_producer(self, steps: Optional[int] = None,
                      num_workers: Optional[int] = None) -> PlanProducer:
        """A :class:`PlanProducer` configured like this trainer's loop.

        One producer *step* is one micro-batch, so the producer runs
        ``steps * accumulate_steps`` payloads.  Exposed separately so
        benchmarks and tests can consume the payload stream directly.
        """
        cfg = self.config
        steps = steps if steps is not None else cfg.steps
        encoder = self.model.encoder
        return PlanProducer(
            self.walker, self.negative_sampler,
            total_steps=steps * cfg.accumulate_steps,
            batch_size=cfg.batch_size, gcn_layers=encoder.gcn_layers,
            neighbor_samples=encoder.neighbor_samples, seed=cfg.seed,
            num_workers=(cfg.prefetch_workers if num_workers is None
                         else num_workers),
            depth=cfg.prefetch_depth, plan_refresh=cfg.plan_refresh,
            walks_per_round=self._walks_per_round,
            start_step=self._steps_done * cfg.accumulate_steps)

    def _train_prefetched(self, steps: int, log_every: int) -> TrainingReport:
        """The overlapped loop: consume producer payloads in step order.

        Batches and per-role plans arrive pre-built; the loss replays
        the captured draws, so the main process touches only the tape.
        The payload for micro-step ``i`` is a pure function of
        ``(seed, i)`` (see :mod:`repro.training.prefetch`), which makes
        the loss trajectory independent of the worker count (asserted
        in tests; the synchronous path interleaves sampling with
        encoding on one stream, so it is a *statistically* equivalent
        reference, not a bit-equal one).
        """
        cfg = self.config
        start_opt = self._steps_done
        losses: List[float] = []
        checkpoints_written = 0
        producer = self.make_producer(steps)
        with producer:
            # workers have completed their ready handshake here, so the
            # clock measures the steady-state loop, not spawn start-up
            # (the synchronous path pays no start-up either)
            start = time.perf_counter()
            stream = iter(producer)

            def next_micro():
                payload = next(stream)
                return payload.batch, payload.plans

            for step in range(start_opt, steps):
                self._steps_done += 1
                loss = self._accumulate_micro(next_micro)
                losses.append(loss)
                self.loss_history.append(loss)
                if log_every and (step + 1) % log_every == 0:
                    print("step %4d  loss %.4f  |grad| %.3f" %
                          (step + 1, losses[-1],
                           self.optimizer.last_grad_norm))
                if (cfg.checkpoint_every > 0
                        and self.checkpoint_path is not None
                        and self._steps_done % cfg.checkpoint_every == 0
                        and self._steps_done < steps):
                    self.save_checkpoint()
                    checkpoints_written += 1
            elapsed = time.perf_counter() - start
        if cfg.checkpoint_every > 0 and self.checkpoint_path is not None:
            # a completed run leaves no checkpoint behind: rerunning the
            # stage trains fresh instead of resuming past the end
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.checkpoint_path)
        return TrainingReport(
            losses=losses, wall_seconds=elapsed, steps=steps - start_opt,
            samples_seen=((steps - start_opt) * cfg.batch_size
                          * cfg.accumulate_steps),
            prefetch_wait_seconds=producer.wait_seconds,
            resumed_from_step=start_opt,
            checkpoints_written=checkpoints_written,
            worker_deaths=producer.worker_deaths,
            worker_respawns=producer.worker_respawns)
