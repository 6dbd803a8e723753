"""Context-encoder throughput at ``gcn_layers=2``, in absolute units.

The encoder dedups the GCN receptive field per level and encodes each
unique node once (paper §IV-C's two-level-parallelism idea applied to
training).  This bench records what that costs, stage by stage:

- **nodes/sec encode** — repeated ``model.encode`` over query batches;
- **tape nodes** — ``Tensor.graph_size()`` of one batch loss;
- **steps/sec train** — end-to-end ``Trainer.train`` on the same
  config.

Run directly (``PYTHONPATH=src python
benchmarks/bench_encode_throughput.py [--scale X] [--out PATH]``);
results land in ``BENCH_encode_throughput.json`` at the repo root with
the host fingerprint attached.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import MetaPathWalker, NegativeSampler, build_graph
from repro.graph.schema import NodeType
from repro.models import make_model
from repro.training import Trainer, TrainerConfig

GCN_LAYERS = 2
BATCH_SIZE = 64
ENCODE_ROUNDS = 8
TRAIN_STEPS = 20


def _build_model(graph):
    return make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                      seed=1, gcn_layers=GCN_LAYERS)


def _measure_encode(graph, rounds):
    n_queries = graph.num_nodes[NodeType.QUERY]
    model = _build_model(graph)
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, n_queries, size=BATCH_SIZE)
               for _ in range(rounds)]
    start = time.perf_counter()
    for indices in batches:
        model.encode(NodeType.QUERY, indices, rng)
    seconds = time.perf_counter() - start
    return {
        "rounds": rounds,
        "batch_size": BATCH_SIZE,
        "seconds": seconds,
        "nodes_per_sec": rounds * BATCH_SIZE / seconds,
    }


def _measure_tape(graph):
    """Tape-node count of one batch loss."""
    walker = MetaPathWalker(graph)
    sampler = NegativeSampler(graph)
    blocks = walker.sample_pair_blocks(np.random.default_rng(1), 400)
    block = max(blocks, key=len)
    batch = sampler.sample_arrays(np.random.default_rng(2), block.relation,
                                  block.src_idx[:BATCH_SIZE],
                                  block.dst_idx[:BATCH_SIZE])
    loss = _build_model(graph).loss(batch, rng=np.random.default_rng(9))
    return {"relation": batch.relation.value, "batch": len(batch),
            "tape_nodes": loss.graph_size(), "loss": loss.item()}


def _measure_training(graph, steps):
    config = TrainerConfig(steps=steps, batch_size=BATCH_SIZE, seed=1)
    report = Trainer(_build_model(graph), config).train()
    return {
        "steps": report.steps,
        "wall_seconds": report.wall_seconds,
        "steps_per_sec": report.steps / report.wall_seconds,
        "final_loss": report.final_loss,
        "mean_tail_loss": report.mean_tail_loss,
    }


def main(argv=None) -> int:
    parser = bench_parser(
        "encode_throughput",
        "Context-encoder throughput, absolute figures")
    args = parser.parse_args(argv)

    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=3))
    graph = build_graph(simulator.universe, simulator.simulate_days(1))

    rounds = max(2, int(ENCODE_ROUNDS * args.scale))
    steps = max(3, int(TRAIN_STEPS * args.scale))

    encode_info = _measure_encode(graph, rounds)
    tape_info = _measure_tape(graph)
    training_info = _measure_training(graph, steps)

    payload = {
        "scale": args.scale,
        "gcn_layers": GCN_LAYERS,
        "graph": graph.stats(),
        "encode": encode_info,
        "tape": tape_info,
        "training": training_info,
    }
    write_json_out(args.out, payload)

    print("encode nodes/s %8.0f" % encode_info["nodes_per_sec"])
    print("tape nodes     %8d" % tape_info["tape_nodes"])
    print("train steps/s  %8.2f" % training_info["steps_per_sec"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
