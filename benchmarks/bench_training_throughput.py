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
  (sampling-bound) and, in the prefetch section, at ``gcn_layers=2``.

Run directly (``PYTHONPATH=src python
benchmarks/bench_training_throughput.py [--scale X] [--out PATH]``);
results land in ``BENCH_training_throughput.json`` at the repo root
with the host fingerprint attached.  At the default scale the
overlapped plane (workers=2, backward_depth=1) must clear 1.3× the
synchronous loop.
"""

from __future__ import annotations

import sys
import time

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import bench_parser, write_json_out  # noqa: E402

from repro.data import SimulatorConfig, SponsoredSearchSimulator
from repro.graph import MetaPathWalker, NegativeSampler, build_graph
from repro.models import make_model
from repro.training import Trainer, TrainerConfig

WALKS = 6000
TRAIN_STEPS = 120
BATCH_SIZE = 64


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


def _measure_prefetch(graph, steps):
    """The overlapped training plane at ``gcn_layers=2``.

    Unlike ``_measure_training`` (gcn_layers=0, isolating the sampling
    phase), this section measures the regime the prefetch plane is
    *for*: deep enough that forward/backward dominates and the sampling
    phase can hide behind it.  Five rows:

    - workers ∈ {0, 2, 4} at full semantics (``backward_depth=0``) —
      the honest like-for-like comparison; sampling is only ~7% of a
      gcn_layers=2 step, so the pure-prefetch ceiling is ~1.07x and
      these rows report the achieved overlap fraction instead;
    - ``backward_depth=1`` alone, then combined with ``workers=2`` —
      the *overlapped plane*: truncated backward shrinks the tape work
      and prefetch hides the sampling behind what remains.  The
      combined row is the gate (≥ 1.3x the synchronous baseline).
    """
    def run(workers, backward_depth):
        model = make_model("amcad", graph, num_subspaces=2, subspace_dim=4,
                           seed=1, gcn_layers=2)
        config = TrainerConfig(steps=steps, batch_size=BATCH_SIZE, seed=1,
                               prefetch_workers=workers,
                               backward_depth=backward_depth)
        report = Trainer(model, config).train()
        return {
            "prefetch_workers": workers,
            "backward_depth": backward_depth,
            "steps": report.steps,
            "wall_seconds": report.wall_seconds,
            "steps_per_sec": report.steps / report.wall_seconds,
            "final_loss": report.final_loss,
            "mean_tail_loss": report.mean_tail_loss,
            "prefetch_wait_seconds": report.prefetch_wait_seconds,
            "overlap_fraction": report.overlap_fraction,
        }

    rows = [run(workers, 0) for workers in (0, 2, 4)]
    rows.append(run(0, 1))
    rows.append(run(2, 1))
    base = rows[0]["steps_per_sec"]
    for row in rows:
        row["speedup_vs_sync"] = row["steps_per_sec"] / base
    return {
        "gcn_layers": 2,
        "batch_size": BATCH_SIZE,
        # producer processes only overlap the consumer when there are
        # cores for them; on a 1-core host the workers time-slice with
        # the forward/backward and pure-prefetch rows show overhead,
        # not speedup — the payload's host fingerprint records the
        # cpu_count the numbers were taken under
        "rows": rows,
        "overlapped_plane_speedup": rows[-1]["speedup_vs_sync"],
    }


def main(argv=None) -> int:
    parser = bench_parser(
        "training_throughput",
        "Sampling and training throughput, absolute figures")
    args = parser.parse_args(argv)

    simulator = SponsoredSearchSimulator(SimulatorConfig(seed=3))
    graph = build_graph(simulator.universe, simulator.simulate_days(1))
    walker = MetaPathWalker(graph)
    sampler = NegativeSampler(graph)

    num_walks = max(60, int(WALKS * args.scale))
    steps = max(10, int(TRAIN_STEPS * args.scale))

    pairs_info, blocks = _measure_pairs(walker, num_walks)
    negatives_info = _measure_negatives(sampler, blocks)
    training_info = _measure_training(graph, steps)
    prefetch_info = _measure_prefetch(graph, steps)

    payload = {
        "scale": args.scale,
        "graph": graph.stats(),
        "pairs": pairs_info,
        "negatives": negatives_info,
        "training": training_info,
        "prefetch": prefetch_info,
    }
    write_json_out(args.out, payload)

    print("pairs/sec      %9.0f" % pairs_info["pairs_per_sec"])
    print("negatives/sec  %9.0f" % negatives_info["negatives_per_sec"])
    print("train steps/s  %9.2f   (gcn_layers=0)"
          % training_info["steps_per_sec"])
    for row in prefetch_info["rows"]:
        print("prefetch L=2   workers=%d bd=%d %8.2f steps/s  "
              "(%.2fx vs sync, overlap %3.0f%%)"
              % (row["prefetch_workers"], row["backward_depth"],
                 row["steps_per_sec"], row["speedup_vs_sync"],
                 100.0 * row["overlap_fraction"]))

    if args.scale >= 1.0:
        if prefetch_info["overlapped_plane_speedup"] < 1.3:
            print("FAIL: overlapped plane (workers=2, backward_depth=1) "
                  "below 1.3x the synchronous gcn_layers=2 path (%.2fx)"
                  % prefetch_info["overlapped_plane_speedup"])
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
