"""Context-encoder throughput at ``gcn_layers=2``, in absolute units.

The encoder dedups the GCN receptive field per level and encodes each
unique node once (paper §IV-C's two-level-parallelism idea applied to
training).  This bench records what that costs, stage by stage:

- **nodes/sec encode** — repeated ``model.encode`` over query batches;
- **tape nodes** — ``Tensor.graph_size()`` of one batch loss;
- **steps/sec train** — end-to-end ``Trainer.train`` on the same
  config;
- **kernels column** — the same encode/train measurements with
  ``model.kernels`` forced to ``"numpy"`` vs ``"compiled"`` (the latter
  only when numba is importable).  Timings are steady-state: every
  compiled kernel is first-called once via ``kernels.warmup()`` and the
  JIT compile seconds are reported separately.  Loss and encode-output
  parity between the two modes is gated at any scale; the ≥1.5x encode
  / ≥1.3x train speedups are gated at full scale.

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
from repro.geometry import kernels as geometry_kernels
from repro.graph import MetaPathWalker, NegativeSampler, build_graph
from repro.graph.schema import NodeType
from repro.models import make_model
from repro.training import Trainer, TrainerConfig

GCN_LAYERS = 2
BATCH_SIZE = 64
ENCODE_ROUNDS = 8
TRAIN_STEPS = 20


def _build_model(graph, kernels="auto"):
    return make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                      seed=1, gcn_layers=GCN_LAYERS, kernels=kernels)


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


def _measure_kernels(graph, rounds, steps):
    """Encode/train throughput per kernel mode.

    One warm-up encode per mode precedes the timed rounds; for the
    compiled mode the JIT compile cost is paid inside
    ``kernels.warmup()`` and reported as ``jit_seconds``, so the
    steady-state numbers measure kernel execution only.
    """
    out = {
        "have_numba": geometry_kernels.HAVE_NUMBA,
        "numba_version": geometry_kernels.NUMBA_VERSION,
    }
    modes = ["numpy"]
    if geometry_kernels.HAVE_NUMBA:
        modes.append("compiled")
    n_queries = graph.num_nodes[NodeType.QUERY]
    for mode in modes:
        info = {}
        model = _build_model(graph, kernels=mode)
        if mode == "compiled":
            info["jit_seconds"] = geometry_kernels.warmup()
        rng = np.random.default_rng(0)
        batches = [rng.integers(0, n_queries, size=BATCH_SIZE)
                   for _ in range(rounds)]
        # warm-up call: first-touch caches (and any remaining lazy JIT
        # signatures) stay out of the steady-state timing
        model.encode(NodeType.QUERY, batches[0],
                     np.random.default_rng(99))
        probe = [p.data.copy() for p in model.encode(
            NodeType.QUERY, np.arange(min(BATCH_SIZE, n_queries)),
            np.random.default_rng(42))]
        start = time.perf_counter()
        for indices in batches:
            model.encode(NodeType.QUERY, indices, rng)
        seconds = time.perf_counter() - start
        info["encode_seconds"] = seconds
        info["encode_nodes_per_sec"] = rounds * BATCH_SIZE / seconds
        model = _build_model(graph, kernels=mode)
        config = TrainerConfig(steps=steps, batch_size=BATCH_SIZE, seed=1)
        report = Trainer(model, config).train()
        info["train_steps_per_sec"] = report.steps / report.wall_seconds
        info["final_loss"] = report.final_loss
        out[mode] = info
        out.setdefault("_probe", {})[mode] = probe
    probes = out.pop("_probe")
    if "compiled" in out:
        out["encode_speedup"] = (out["compiled"]["encode_nodes_per_sec"]
                                 / out["numpy"]["encode_nodes_per_sec"])
        out["train_speedup"] = (out["compiled"]["train_steps_per_sec"]
                                / out["numpy"]["train_steps_per_sec"])
        out["loss_abs_diff"] = abs(out["compiled"]["final_loss"]
                                   - out["numpy"]["final_loss"])
        out["encode_max_abs_diff"] = max(
            float(np.max(np.abs(a - b))) if a.size else 0.0
            for a, b in zip(probes["numpy"], probes["compiled"]))
    geometry_kernels.set_mode("auto")
    return out


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
    kernels_info = _measure_kernels(graph, rounds, steps)

    payload = {
        "scale": args.scale,
        "gcn_layers": GCN_LAYERS,
        "graph": graph.stats(),
        "encode": encode_info,
        "tape": tape_info,
        "training": training_info,
        "kernels": kernels_info,
    }
    write_json_out(args.out, payload)

    print("encode nodes/s %8.0f" % encode_info["nodes_per_sec"])
    print("tape nodes     %8d" % tape_info["tape_nodes"])
    print("train steps/s  %8.2f" % training_info["steps_per_sec"])
    if "compiled" in kernels_info:
        print("kernels encode nodes/s numpy %8.0f   compiled %8.0f   "
              "(%.2fx, jit %.2fs)"
              % (kernels_info["numpy"]["encode_nodes_per_sec"],
                 kernels_info["compiled"]["encode_nodes_per_sec"],
                 kernels_info["encode_speedup"],
                 kernels_info["compiled"]["jit_seconds"]))
        print("kernels train steps/s  numpy %8.2f   compiled %8.2f   "
              "(%.2fx)"
              % (kernels_info["numpy"]["train_steps_per_sec"],
                 kernels_info["compiled"]["train_steps_per_sec"],
                 kernels_info["train_speedup"]))
        # parity is the contract at every scale; speedups gate at full
        # scale below
        if kernels_info["loss_abs_diff"] > 1e-8:
            print("FAIL: compiled-vs-numpy final-loss parity above 1e-8 "
                  "(%.3e)" % kernels_info["loss_abs_diff"])
            return 1
        if kernels_info["encode_max_abs_diff"] > 1e-6:
            print("FAIL: compiled-vs-numpy encode parity above 1e-6 "
                  "(%.3e)" % kernels_info["encode_max_abs_diff"])
            return 1
    else:
        print("kernels: numba not installed — numpy column only (%8.0f "
              "nodes/s)" % kernels_info["numpy"]["encode_nodes_per_sec"])

    if args.scale >= 1.0 and "compiled" in kernels_info:
        if kernels_info["encode_speedup"] < 1.5:
            print("FAIL: compiled kernels below 1.5x encode "
                  "throughput (%.2fx)" % kernels_info["encode_speedup"])
            return 1
        if kernels_info["train_speedup"] < 1.3:
            print("FAIL: compiled kernels below 1.3x train "
                  "throughput (%.2fx)" % kernels_info["train_speedup"])
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
