"""Training throughput, stage by stage, in absolute units.

The paper trains on hundreds of millions of nodes with O(1) alias
draws and batched sampling workers (§V-A); this bench records the
reproduction's analogue on the default synthetic platform:

- **pairs/sec** — §IV-A-2 meta-path walks + same-category filtering
  through ``MetaPathWalker.sample_pair_blocks`` (one alias-table gather
  per walk level);
- **negatives/sec** — §V-A hard/easy negative sampling through
  ``NegativeSampler.sample_arrays`` (oversample-and-mask + pooled
  category draws);
- **steps/sec** — end-to-end ``Trainer.train`` at ``gcn_layers=0``
  (sampling-bound) and, in the ``backward_depth`` section, at
  ``gcn_layers=2`` with the backward cut at depth 0 and 1, each beside
  the final/tail loss and next-day AUC of the model it trained and the
  exact tape nodes and geometry kernel calls per step (host-independent
  counts, taken on an untimed replay of the same run).

Run directly (``PYTHONPATH=src python
benchmarks/bench_training_throughput.py [--scale X] [--out PATH]``);
results land in ``BENCH_training_throughput.json`` at the repo root
with the host fingerprint attached.  Nothing is gated: a shorter
backward trains a different model, so its speed is a trade to read
beside its quality, not a speedup.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.evaluation import next_auc
from repro.geometry import kernels
from repro.graph import MetaPathWalker, NegativeSampler, build_graph
from repro.models import make_model
from repro.training import Trainer, TrainerConfig

WALKS = 6000
TRAIN_STEPS = 120
BATCH_SIZE = 64
AUC_SAMPLES = 3000


def _measure_pairs(walker, num_walks):
    start = time.perf_counter()
    blocks = walker.sample_pair_blocks(np.random.default_rng(0), num_walks)
    seconds = time.perf_counter() - start
    pairs = sum(len(b) for b in blocks)
    return {
        "num_walks": num_walks,
        "pairs": pairs,
        "seconds": seconds,
        "pairs_per_sec": pairs / seconds,
    }, blocks


def _measure_negatives(sampler, blocks):
    k = sampler.num_negatives
    start = time.perf_counter()
    negatives = 0
    for block in blocks:
        batch = sampler.sample_arrays(np.random.default_rng(1),
                                      block.relation, block.src_idx,
                                      block.dst_idx)
        negatives += len(batch) * k
    seconds = time.perf_counter() - start
    return {
        "k": k,
        "negatives": negatives,
        "seconds": seconds,
        "negatives_per_sec": negatives / seconds,
    }


def _measure_training(graph, steps):
    # gcn_layers=0 keeps the adaptive geometry but drops the neighbour
    # aggregation, so the step time reflects the sampling phase rather
    # than the encoder
    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                       seed=1, gcn_layers=0)
    config = TrainerConfig(steps=steps, batch_size=BATCH_SIZE, seed=1)
    report = Trainer(model, config).train()
    return {
        "steps": report.steps,
        "wall_seconds": report.wall_seconds,
        "steps_per_sec": report.steps / report.wall_seconds,
        "samples_per_sec": report.samples_seen / report.wall_seconds,
        "final_loss": report.final_loss,
        "mean_tail_loss": report.mean_tail_loss,
    }


def _count_work(graph, backward_depth, steps):
    """Tape nodes and kernel calls per step of one seeded training run.

    Replays the run :func:`_measure_backward_depth` times — same model,
    seed and steps, so the same batches — with every registry kernel
    and the model's loss wrapped to count; the counts are exact and do
    not depend on the host.
    """
    model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                       seed=1, gcn_layers=2)
    trainer = Trainer(model, TrainerConfig(steps=steps, batch_size=BATCH_SIZE,
                                           seed=1,
                                           backward_depth=backward_depth))
    calls, nodes = [0], [0]
    loss_fn = model.loss

    def counted_loss(*args, **kwargs):
        loss = loss_fn(*args, **kwargs)
        nodes[0] += loss.graph_size()
        return loss

    def counted(impl):
        def call(*args, **kwargs):
            calls[0] += 1
            return impl(*args, **kwargs)
        return call

    originals = {name: k.numpy for name, k in kernels.REGISTRY.items()}
    model.loss = counted_loss
    try:
        for name, kernel in kernels.REGISTRY.items():
            kernel.numpy = counted(kernel.numpy)
        for _ in range(steps):
            trainer.train_step()
    finally:
        for name, kernel in kernels.REGISTRY.items():
            kernel.numpy = originals[name]
    return {"tape_nodes_per_step": nodes[0] / steps,
            "kernel_calls_per_step": calls[0] / steps}


def _measure_backward_depth(graph, eval_graph, steps, auc_samples):
    """``backward_depth`` at ``gcn_layers=2``: cost beside quality.

    Depth 1 keeps only the top GCN round on the tape.  The forward is
    the same, the backward shorter, and the model trained a different
    one, so each row reports its steps/s next to the final and tail
    loss and the next-day AUC of what it trained, and the exact tape
    nodes and kernel calls per step of the same run.
    """
    def run(backward_depth):
        model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                           seed=1, gcn_layers=2)
        config = TrainerConfig(steps=steps, batch_size=BATCH_SIZE, seed=1,
                               backward_depth=backward_depth)
        report = Trainer(model, config).train()
        return {
            "backward_depth": backward_depth,
            "steps": report.steps,
            "wall_seconds": report.wall_seconds,
            "steps_per_sec": report.steps / report.wall_seconds,
            **_count_work(graph, backward_depth, steps),
            "final_loss": report.final_loss,
            "mean_tail_loss": report.mean_tail_loss,
            "next_auc": next_auc(model.similarity, eval_graph,
                                 num_samples=auc_samples, seed=1),
        }

    return {
        "gcn_layers": 2,
        "batch_size": BATCH_SIZE,
        "auc_samples": auc_samples,
        "rows": [run(depth) for depth in (0, 1)],
    }


def main(argv=None) -> int:
    parser = bench_parser(
        "training_throughput",
        "Sampling and training throughput, absolute figures")
    args = parser.parse_args(argv)

    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=3))
    logs = simulator.simulate_days(2)
    graph = build_graph(simulator.universe, logs[:1])
    eval_graph = build_graph(simulator.universe, logs[1:])
    walker = MetaPathWalker(graph)
    sampler = NegativeSampler(graph)

    num_walks = max(60, int(WALKS * args.scale))
    steps = max(10, int(TRAIN_STEPS * args.scale))

    pairs_info, blocks = _measure_pairs(walker, num_walks)
    negatives_info = _measure_negatives(sampler, blocks)
    training_info = _measure_training(graph, steps)
    depth_info = _measure_backward_depth(
        graph, eval_graph, steps, max(300, int(AUC_SAMPLES * args.scale)))

    payload = {
        "scale": args.scale,
        "graph": graph.stats(),
        "pairs": pairs_info,
        "negatives": negatives_info,
        "training": training_info,
        "backward_depth": depth_info,
    }
    write_json_out(args.out, payload)

    print("pairs/sec      %9.0f" % pairs_info["pairs_per_sec"])
    print("negatives/sec  %9.0f" % negatives_info["negatives_per_sec"])
    print("train steps/s  %9.2f   (gcn_layers=0)"
          % training_info["steps_per_sec"])
    for row in depth_info["rows"]:
        print("train L=2 backward_depth=%d %8.2f steps/s  %.1f tape nodes "
              "%.1f kernel calls/step  final loss %.3f  tail loss %.3f  "
              "next-day AUC %.2f"
              % (row["backward_depth"], row["steps_per_sec"],
                 row["tape_nodes_per_step"], row["kernel_calls_per_step"],
                 row["final_loss"], row["mean_tail_loss"], row["next_auc"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
