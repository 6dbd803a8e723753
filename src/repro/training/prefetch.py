"""Prefetching training plane: the sampling phase off the main process.

The profile that motivates this module: at ``gcn_layers=2`` a training
step spends ~7% of its wall building the :class:`SampleBatch` and the
two :class:`EncodePlan` objects and ~93% in forward/backward — but the
7% runs serially *before* the tape work, on the same core.  Both
artefacts were designed as plain-array contracts precisely so an
out-of-process producer could emit them; this module is that producer.

Three pieces:

- :func:`build_step_payload` — the per-step unit of work, pure numpy:
  draw a relation-homogeneous batch (meta-path walks + array-native
  negatives) and build one encode plan per endpoint role.  The step's
  RNG is derived from ``SeedSequence(entropy=(seed, step))``, so the
  payload for step ``i`` is a function of ``(seed, i)`` alone — the
  payload *stream* is bit-identical no matter how many workers produce
  it (the determinism contract the tests pin down).
- :class:`ProducerState` — the picklable snapshot (walker + negative
  sampler + plan geometry) a worker needs; one blob is pickled once and
  shipped to every worker at spawn.
- :class:`PlanProducer` — the double-buffered pool.  ``num_workers``
  spawn-context processes each autonomously generate the strided steps
  ``w, w+W, w+2W, …`` and push payloads into a bounded queue
  (``maxsize=depth``, the back-pressure that makes it double-buffered
  rather than unbounded); the consumer reorders to step order and
  tracks how long it blocked (``wait_seconds``, the overlap
  diagnostic).  ``num_workers=0`` runs the same code inline — the
  parity mode tests compare against.

``plan_refresh`` interaction: draw-cache reuse is owned by the
producer, one :class:`NeighborDrawCache` per worker.  A worker only
sees every ``W``-th step, so a refresh window shorter than the worker
count can never produce a cache hit; that combination raises
``ValueError`` instead of silently resampling every plan.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue as queue_lib
import time
import traceback
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.metapath import MetaPathWalker
from repro.graph.sampling import NegativeSampler, SampleBatch
from repro.models.plan import EncodePlan, NeighborDrawCache, build_encode_plan
from repro.testing import faults as fault_harness
from repro.testing.faults import fault_point

#: per-payload refill rounds before settling for the fullest buffer
#: (mirrors the trainer's synchronous loop, which keeps refilling across
#: steps; a stateless payload has to bound the search per step)
MAX_REFILL_ROUNDS = 64


@dataclasses.dataclass
class StepPayload:
    """One step's producer output: the batch plus one plan per role.

    ``plans`` is keyed ``"source"`` / ``"target"`` — the role-keyed
    contract ``AMCAD.loss`` resolves first, required because same-type
    relations (q2q/i2i) need *distinct* draws per endpoint.
    """

    step: int
    batch: SampleBatch
    plans: Dict[str, EncodePlan]


@dataclasses.dataclass
class _WorkerFailure:
    """A worker's exception, shipped through the queue as data."""

    worker_id: int
    message: str


def step_rng(seed: int, step: int) -> np.random.Generator:
    """The per-step generator: a pure function of ``(seed, step)``.

    Seeding each step independently (instead of advancing one stream)
    is what decouples the payload stream from the producer topology —
    worker ``w`` of ``W`` can generate step ``i`` without having
    generated steps ``0 … i-1``.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(step))))


class ProducerState:
    """Everything payload building needs, picklable as one blob.

    The walker and negative sampler both reference the same
    :class:`~repro.graph.hetgraph.HetGraph`; pickle memoisation ships
    the graph once.  ``draw_cache`` (present when ``plan_refresh > 1``)
    is per-state, hence per-worker — the producer owns reuse.
    """

    def __init__(self, walker: MetaPathWalker, sampler: NegativeSampler, *,
                 batch_size: int, gcn_layers: int, neighbor_samples: int,
                 seed: int, plan_refresh: int = 1,
                 walks_per_round: Optional[int] = None):
        self.walker = walker
        self.sampler = sampler
        self.graph = walker.graph
        self.batch_size = int(batch_size)
        self.gcn_layers = int(gcn_layers)
        self.neighbor_samples = int(neighbor_samples)
        self.seed = int(seed)
        self.plan_refresh = int(plan_refresh)
        self.walks_per_round = int(
            walks_per_round if walks_per_round is not None
            else max(len(walker.meta_paths), 3 * self.batch_size))
        self.draw_cache: Optional[NeighborDrawCache] = (
            NeighborDrawCache() if self.plan_refresh > 1 else None)
        self._window: Optional[int] = None


def _sample_step_batch(state: ProducerState,
                       rng: np.random.Generator) -> SampleBatch:
    """One relation-homogeneous batch, built statelessly from ``rng``.

    The trainer's synchronous loop keeps per-relation buffers alive across
    steps and serves whichever relation fills first, so relations train
    at a rate proportional to their pair-production rate.  A stateless
    payload restarts from empty, where "first to fill" would degenerate
    to *always the most productive relation* — so instead the step's
    relation is drawn from the per-step ``rng`` with probability
    proportional to the pair counts of one walk round: the same
    long-run relation mix, decided independently per step.  Refills
    then top the chosen relation up to ``batch_size`` (bounded by
    :data:`MAX_REFILL_ROUNDS`; a rare relation that cannot fill serves
    what it has, mirroring the sync plane's tail behaviour).
    """
    target = state.batch_size
    buffers: Dict[object, List[Tuple[np.ndarray, np.ndarray]]] = {}

    def refill() -> None:
        for block in state.walker.sample_pair_blocks(rng,
                                                     state.walks_per_round):
            buffers.setdefault(block.relation, []).append(
                (block.src_idx, block.dst_idx))

    rounds = 0
    while not buffers and rounds < MAX_REFILL_ROUNDS:
        refill()
        rounds += 1
    if not buffers:
        raise RuntimeError("meta-path walker produced no pairs in %d walk "
                           "rounds" % MAX_REFILL_ROUNDS)
    # sorted for a deterministic order; weights ∝ this round's pair counts
    relations = sorted(buffers, key=lambda r: r.value)
    weights = np.array([sum(chunk[0].size for chunk in buffers[r])
                        for r in relations], dtype=np.float64)
    relation = relations[int(rng.choice(len(relations),
                                        p=weights / weights.sum()))]
    while (sum(chunk[0].size for chunk in buffers[relation]) < target
           and rounds < MAX_REFILL_ROUNDS):
        refill()
        rounds += 1
    src = np.concatenate([chunk[0] for chunk in buffers[relation]])
    pos = np.concatenate([chunk[1] for chunk in buffers[relation]])
    return state.sampler.sample_arrays(rng, relation, src[:target],
                                       pos[:target])


def build_step_payload(state: ProducerState, step: int) -> StepPayload:
    """Sample step ``step``'s batch and build its per-role encode plans.

    Pure numpy end to end.  The target-role plan reads the state's draw
    cache (when ``plan_refresh > 1``), cleared whenever the step enters
    a new refresh window; the source-role plan always draws fresh so
    cached draws never couple the two endpoints of a same-type relation
    (see ``AMCAD._encode_group``).
    """
    cache = state.draw_cache
    if cache is not None:
        window = step // state.plan_refresh
        if window != state._window:
            cache.clear()
            state._window = window
    rng = step_rng(state.seed, step)
    batch = _sample_step_batch(state, rng)
    relation = batch.relation
    source_plan = build_encode_plan(
        state.graph, relation.source_type, batch.src_idx,
        state.gcn_layers, state.neighbor_samples, rng)
    merged = np.concatenate([batch.pos_idx, batch.neg_idx.ravel()])
    target_plan = build_encode_plan(
        state.graph, relation.target_type, merged,
        state.gcn_layers, state.neighbor_samples, rng, draw_cache=cache)
    return StepPayload(step=step, batch=batch,
                       plans={"source": source_plan, "target": target_plan})


def _worker_main(blob: bytes, worker_id: int, num_workers: int,
                 total_steps: int, out_queue, stop, ready,
                 start_step: int = 0, fault_plan=()) -> None:
    """Worker loop: unpickle the snapshot, produce the strided steps.

    ``ready`` is set after the snapshot is restored, so the consumer
    can exclude spawn/unpickle start-up from its throughput window.
    Exceptions ship through the queue as :class:`_WorkerFailure`
    payloads instead of dying silently.

    The worker produces the steps of its stride class (``step %
    num_workers == worker_id``) starting at ``start_step`` — the resume
    offset of a checkpointed run, or the consumer's current step when
    this worker replaces a crashed one.  ``fault_plan`` re-installs the
    parent's fault specs in the spawned process; the
    ``"prefetch.worker.start"`` / ``"prefetch.worker"`` fault points
    simulate start-up and mid-production crashes (``kill`` mode dies
    with :data:`~repro.testing.faults.KILL_EXIT_CODE`).
    """
    try:
        if fault_plan:
            fault_harness.install_plan(
                fault_harness.FaultSpec.from_dict(dict(spec))
                for spec in fault_plan)
        state = pickle.loads(blob)
        fault_point("prefetch.worker.start", worker=worker_id)
        ready.set()
        first = start_step + ((worker_id - start_step) % num_workers)
        for step in range(first, total_steps, num_workers):
            fault_point("prefetch.worker", worker=worker_id, step=step)
            payload = build_step_payload(state, step)
            while not stop.is_set():
                try:
                    out_queue.put((step, payload), timeout=0.1)
                    break
                except queue_lib.Full:
                    continue
            if stop.is_set():
                return
    except Exception:
        ready.set()   # never leave the consumer hanging on the handshake
        try:
            out_queue.put((-1, _WorkerFailure(worker_id,
                                              traceback.format_exc())),
                          timeout=5.0)
        except queue_lib.Full:      # pragma: no cover - queue wedged
            pass


class PlanProducer:
    """Double-buffered multi-process producer of :class:`StepPayload`.

    Use as a context manager; iterate to consume payloads in step
    order::

        with PlanProducer(walker, sampler, total_steps=120,
                          batch_size=64, gcn_layers=2,
                          neighbor_samples=4, seed=0,
                          num_workers=2) as producer:
            for payload in producer:
                loss = model.loss(payload.batch, plans=payload.plans)

    ``num_workers=0`` produces inline on the calling process — same
    payloads, no processes — which is the parity mode the determinism
    tests compare a worker pool against.  ``wait_seconds`` accumulates
    the time the consumer spent blocked on the queue; with the pool
    keeping up it stays near zero (full overlap).
    """

    def __init__(self, walker: MetaPathWalker, sampler: NegativeSampler, *,
                 total_steps: int, batch_size: int, gcn_layers: int,
                 neighbor_samples: int, seed: int, num_workers: int = 0,
                 depth: int = 2, plan_refresh: int = 1,
                 walks_per_round: Optional[int] = None,
                 start_timeout: float = 120.0, start_step: int = 0,
                 max_respawns: int = 4):
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0, got %d" % num_workers)
        if depth < 1:
            raise ValueError("depth must be >= 1, got %d" % depth)
        if total_steps < 0:
            raise ValueError("total_steps must be >= 0, got %d" % total_steps)
        if not 0 <= start_step <= total_steps:
            raise ValueError("start_step must be in [0, total_steps=%d], "
                             "got %d" % (total_steps, start_step))
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0, got %d"
                             % max_respawns)
        if plan_refresh < 1:
            raise ValueError("plan_refresh must be >= 1, got %d"
                             % plan_refresh)
        if plan_refresh > 1 and 1 <= num_workers and plan_refresh <= num_workers:
            raise ValueError(
                "plan_refresh=%d cannot reuse draws across %d prefetch "
                "workers: each worker produces every %d-th step, so a "
                "refresh window of %d steps never revisits a worker's "
                "cache (every plan would silently miss). Use plan_refresh "
                "> num_workers, or num_workers=0."
                % (plan_refresh, num_workers, num_workers, plan_refresh))
        self.total_steps = int(total_steps)
        self.num_workers = int(num_workers)
        self.depth = int(depth)
        self.start_timeout = float(start_timeout)
        self.start_step = int(start_step)
        self.max_respawns = int(max_respawns)
        self._state = ProducerState(
            walker, sampler, batch_size=batch_size, gcn_layers=gcn_layers,
            neighbor_samples=neighbor_samples, seed=seed,
            plan_refresh=plan_refresh, walks_per_round=walks_per_round)
        #: consumer-side blocked time (seconds); the overlap diagnostic
        self.wait_seconds = 0.0
        #: worker crashes observed and replacements spawned (see
        #: :meth:`producer_stats`); ``respawn_events`` records one dict
        #: per replacement for the stage report
        self.worker_deaths = 0
        self.worker_respawns = 0
        self.respawn_events: List[Dict[str, int]] = []
        # the active fault plan rides to every worker; spawned processes
        # start with an empty injector otherwise
        self._fault_plan = [spec.to_dict()
                            for spec in fault_harness.active_specs()]
        self._procs: list = []
        self._worker_ids: List[int] = []
        self._blob: Optional[bytes] = None
        self._ctx = None
        self._queue = None
        self._stop = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker_id: int, start_step: int, fault_plan):
        """Start one worker process; returns ``(proc, ready_event)``."""
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._blob, worker_id, self.num_workers, self.total_steps,
                  self._queue, self._stop, ready, start_step,
                  list(fault_plan)),
            daemon=True)
        proc.start()
        return proc, ready

    def _await_ready(self, worker_id: int, proc, ready) -> None:
        """Wait out one handshake, failing fast on a dead worker.

        A worker that dies before setting ``ready`` (spawn crash,
        ``"prefetch.worker.start"`` kill fault) surfaces as a clear
        error with its exit code instead of a silent ``start_timeout``
        wait.
        """
        deadline = time.perf_counter() + self.start_timeout
        while not ready.wait(timeout=0.05):
            if not proc.is_alive():
                self.close()
                raise RuntimeError(
                    "prefetch worker %d died during the ready handshake "
                    "(exit code %s)" % (worker_id, proc.exitcode))
            if time.perf_counter() >= deadline:
                self.close()
                raise RuntimeError(
                    "prefetch worker %d did not come up within %.0fs"
                    % (worker_id, self.start_timeout))

    def start(self) -> None:
        """Spawn the pool and wait for every worker's ready handshake."""
        if self._started or self.num_workers == 0:
            self._started = True
            return
        self._ctx = multiprocessing.get_context("spawn")
        self._blob = pickle.dumps(self._state,
                                  protocol=pickle.HIGHEST_PROTOCOL)
        self._queue = self._ctx.Queue(maxsize=self.depth)
        self._stop = self._ctx.Event()
        spawned = []
        for worker_id in range(self.num_workers):
            proc, ready = self._spawn(worker_id, self.start_step,
                                      self._fault_plan)
            self._procs.append(proc)
            self._worker_ids.append(worker_id)
            spawned.append((worker_id, proc, ready))
        self._started = True
        for worker_id, proc, ready in spawned:
            self._await_ready(worker_id, proc, ready)

    def close(self) -> None:
        """Stop workers, drain the queue, join; terminate stragglers."""
        if self._stop is not None:
            self._stop.set()
        if self._queue is not None:
            # unblock workers stuck in put() on the bounded queue
            try:
                while True:
                    self._queue.get_nowait()
            except (queue_lib.Empty, OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():     # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        if self._queue is not None:
            self._queue.close()
            self._queue.cancel_join_thread()
            self._queue = None
        self._procs = []
        self._worker_ids = []
        self._stop = None

    def __enter__(self) -> "PlanProducer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- crash recovery ------------------------------------------------------

    def producer_stats(self) -> Dict[str, object]:
        """Worker-death and respawn counters for reports/benchmarks."""
        return {
            "worker_deaths": self.worker_deaths,
            "worker_respawns": self.worker_respawns,
            "respawn_events": [dict(event) for event in self.respawn_events],
        }

    def _reap_and_respawn(self, at_step: int) -> None:
        """Replace crashed workers so the run continues.

        A worker that exited nonzero (e.g. SIGKILL, or a ``kill``-mode
        fault) is replaced by a fresh process producing its stride class
        from the consumer's current step — payloads are pure
        ``(seed, step)``, so the replacement regenerates exactly the
        steps the dead worker never delivered (an already-queued
        duplicate is harmless: the reorder buffer just overwrites).
        ``kill``-mode fault specs are dropped from the replacement's
        plan, otherwise an unbounded kill fault would just shoot every
        replacement on arrival.  More than ``max_respawns`` total
        deaths raise instead.
        """
        for slot, proc in enumerate(self._procs):
            if proc.is_alive() or proc.exitcode in (0, None):
                continue
            worker_id = self._worker_ids[slot]
            exitcode = proc.exitcode
            self.worker_deaths += 1
            if self.worker_deaths > self.max_respawns:
                raise RuntimeError(
                    "prefetch worker %d died (exit code %s) and the "
                    "respawn budget (%d) is spent"
                    % (worker_id, exitcode, self.max_respawns))
            survivable = [spec for spec in self._fault_plan
                          if spec.get("mode") != "kill"]
            replacement, ready = self._spawn(worker_id, at_step, survivable)
            self._procs[slot] = replacement
            self._await_ready(worker_id, replacement, ready)
            self.worker_respawns += 1
            self.respawn_events.append({"worker": worker_id,
                                        "exit_code": int(exitcode),
                                        "at_step": int(at_step)})

    # -- consumption --------------------------------------------------------

    def __iter__(self) -> Iterator[StepPayload]:
        """Payloads in step order, reordered from the workers' stream."""
        if self.num_workers == 0:
            for step in range(self.start_step, self.total_steps):
                yield build_step_payload(self._state, step)
            return
        if not self._started:
            raise RuntimeError("PlanProducer not started; use it as a "
                               "context manager (or call start())")
        pending: Dict[int, StepPayload] = {}
        for step in range(self.start_step, self.total_steps):
            while step not in pending:
                began = time.perf_counter()
                try:
                    got_step, payload = self._queue.get(timeout=1.0)
                except queue_lib.Empty:
                    self.wait_seconds += time.perf_counter() - began
                    self._reap_and_respawn(step)
                    if not any(proc.is_alive() for proc in self._procs):
                        raise RuntimeError(
                            "all prefetch workers exited before step %d "
                            "arrived" % step)
                    continue
                self.wait_seconds += time.perf_counter() - began
                if isinstance(payload, _WorkerFailure):
                    raise RuntimeError(
                        "prefetch worker %d failed:\n%s"
                        % (payload.worker_id, payload.message))
                pending[got_step] = payload
            yield pending.pop(step)
