"""``train_deep``: the paper's training configuration, one step at a time.

Why this workload: a ``gcn_layers=2`` step puts about 2 400 small
nodes on the tape, so ``autodiff`` dispatch, ``models`` (plan +
encoder) and the taped ``geometry`` kernels do all the work while
``retrieval``/``serving``/``pipeline`` do none.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.data.synthetic import SimulatorConfig, SponsoredSearchSimulator
from repro.evaluation import next_auc
from repro.graph import build_graph
from repro.models.amcad import make_model
from repro.training.trainer import Trainer, TrainerConfig

import boundaries
import stats
from harness import (TINY_UNIVERSE, Measured, TracedBlocks,
                     another_window_fits, check_gates, op_span)

NAME = boundaries.TRAIN
ROOT = "training.step"


@dataclasses.dataclass(frozen=True)
class Params:
    #: ``SimulatorConfig`` overrides ({} = the default 1200/1800/400 universe)
    simulator: Dict[str, int]
    warmup_steps: int = 20
    #: steps per window; the tail is the window's p90
    window: int = 10
    #: ``result_quality`` is taken after exactly this many timed steps,
    #: and the run never stops earlier
    quality_steps: int = 120
    auc_samples: int = 3000
    #: traced run: alternating untraced/traced blocks of one window each
    trace_blocks: int = 6


FULL = Params(simulator={})
TINY = Params(simulator=TINY_UNIVERSE, warmup_steps=1, window=1,
              quality_steps=3, auc_samples=100, trace_blocks=2)


@dataclasses.dataclass
class State:
    params: Params
    seed: int
    trainer: Trainer
    eval_graph: object


def build(seed: int, params: Params) -> State:
    """Simulate two days, build both graphs, warm one fresh trainer up."""
    simulator = SponsoredSearchSimulator(
        SimulatorConfig(seed=seed, **params.simulator))
    logs = simulator.simulate_days(2)
    train_graph = build_graph(simulator.universe, logs[:1])
    eval_graph = build_graph(simulator.universe, logs[1:])
    model = make_model("amcad", train_graph, gcn_layers=2, num_subspaces=2,
                       subspace_dim=4, seed=seed, kernels="auto")
    # one fresh trainer, synchronous plane, train_step() only: a second
    # Trainer.train() on one trainer silently takes the prefetched path
    trainer = Trainer(model, TrainerConfig(batch_size=64, num_negatives=6,
                                           seed=seed, prefetch_workers=0))
    for _ in range(params.warmup_steps):
        trainer.train_step()
    return State(params, seed, trainer, eval_graph)


def close(state: State) -> None:
    """Nothing on disk, no processes."""


def kernel_mode(state: State) -> str:
    return state.trainer.model.kernel_mode


def _quality(state: State) -> float:
    auc = next_auc(state.trainer.model.similarity, state.eval_graph,
                   num_samples=state.params.auc_samples, seed=state.seed)
    return auc / 100.0


def measure(state: State, seconds: float) -> Measured:
    """Whole windows of timed steps until ``seconds`` have been spent."""
    params, trainer = state.params, state.trainer
    step_ms: List[float] = []
    losses: List[float] = []
    quality = float("nan")
    elapsed = 0.0
    while another_window_fits(elapsed, len(step_ms) // params.window, seconds,
                              params.quality_steps // params.window):
        for _ in range(params.window):
            start = time.perf_counter()
            loss = trainer.train_step()
            spent = time.perf_counter() - start
            elapsed += spent
            step_ms.append(1000.0 * spent)
            losses.append(loss)
        if len(step_ms) == params.quality_steps:
            quality = _quality(state)     # the clock is not running here
    gated = losses[:params.quality_steps]
    quarter = max(len(gated) // 4, 1)
    non_finite = sum(1 for loss in losses if not math.isfinite(loss))
    failures = check_gates({
        "losses_finite": non_finite == 0,
        "loss_decreases": (statistics.fmean(gated[-quarter:])
                           < statistics.fmean(gated[:quarter])),
        # better than chance; over seeds 0-119 the AUC share is
        # 0.616 +- 0.028 (minimum 0.557), the loss ratio 0.76 +- 0.05
        "quality_floor": quality > 0.50,
    })
    windows = len(step_ms) // params.window
    return Measured(
        work_per_s=stats.window_medians(
            step_ms, params.window,
            lambda window: 1000.0 * len(window) / sum(window)),
        op_ms_p50=stats.window_medians(step_ms, params.window),
        op_ms_tail=stats.window_medians(step_ms, params.window,
                                        stats.percentile_of(90)),
        result_quality=quality,
        attempted=len(step_ms),
        failed=non_finite + len(failures),
        gate_failures=failures,
        notes={"op": "Trainer.train_step()", "work_unit": "optimiser step",
               "steps": len(step_ms), "windows": windows,
               "window_steps": params.window, "tail": "window p90",
               "quality": "next_auc/100 after %d timed steps, %d samples"
                          % (params.quality_steps, params.auc_samples)})


def layers(state: State) -> Tuple[Dict[str, float], boundaries.Tracer]:
    """Per-layer figures from alternating untraced/traced step blocks."""
    params, trainer = state.params, state.trainer

    def block(tracer: Optional[boundaries.Tracer]) -> float:
        start = time.perf_counter()
        for _ in range(params.window):
            with op_span(tracer, ROOT):
                trainer.train_step()
        return time.perf_counter() - start

    blocks = TracedBlocks(boundaries.Tracer())
    blocks.run(params.trace_blocks, block)
    tracer, counts = blocks.tracer, blocks.tracer.counts[ROOT]
    steps = tracer.calls(ROOT)
    backward_ms = tracer.self_ms("autodiff.backward")
    metrics = {
        "graph.sample_ms": tracer.self_ms("graph.sample") / steps,
        "graph.pairs_per_step": counts["graph.pairs"] / steps,
        "models.plan_ms": tracer.self_ms("models.plan") / steps,
        "models.plan_rows_per_step": counts["models.plan_rows"] / steps,
        "models.plan_dedup_ratio": (counts["models.plan_rows"]
                                    / counts["models.plan_rows_requested"]),
        "models.loss_fwd_ms": tracer.self_ms("models.loss_fwd") / steps,
        "geometry.kernel_ms": tracer.self_ms(boundaries.KERNEL_SPAN) / steps,
        "geometry.kernel_calls_per_step":
            tracer.calls(boundaries.KERNEL_SPAN) / steps,
        "autodiff.backward_ms": backward_ms / steps,
        "autodiff.tape_nodes_per_step": counts["autodiff.tape_nodes"] / steps,
        "autodiff.backward_us_per_node":
            1000.0 * backward_ms / counts["autodiff.tape_nodes"],
        "training.optim_ms": tracer.self_ms("training.optim") / steps,
        "training.step_self_ms": tracer.self_ms(ROOT) / steps,
    }
    metrics.update(blocks.common_metrics())
    return metrics, tracer
