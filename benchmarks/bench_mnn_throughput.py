"""MNN index-construction throughput (paper §IV-C-1).

The paper reports that with two-level parallelism (workers × SIMD) the
six inverted indices for ~100M nodes build in under two hours.  This
bench measures index-build throughput (key-result pairs per second) on
this machine — the laptop-scale analogue of that claim.  It runs on
one thread: the vectorised (SIMD) level only, since the worker level
would be processes.
"""

import time

import numpy as np
import pytest

from repro.bench import scaled_steps, write_report
from repro.graph.schema import Relation
from repro.models import make_model
from repro.retrieval import ExactBackend, IndexSet
from repro.retrieval.mnn import RelationSpace
from repro.training import Trainer, TrainerConfig


def test_mnn_index_build_throughput(benchmark, bench_data):
    def run():
        model = make_model("amcad", bench_data.train_graph, num_subspaces=2,
                           subspace_dim=4, seed=1)
        Trainer(model, TrainerConfig(steps=scaled_steps(40),
                                     batch_size=64, seed=1)).train()

        lines = []
        index_set = IndexSet(model, top_k=50).build()
        total_keys = sum(ix.num_keys for ix in index_set.indices.values())
        seconds = index_set.total_build_seconds
        lines.append("six indices, %d keys total: %.2fs (%.0f keys/s)"
                     % (total_keys, seconds, total_keys / seconds))

        # the largest single index (Q2I), searched in full
        space = RelationSpace.from_model(model, Relation.Q2I)
        src = np.arange(space.num_sources)
        searcher = ExactBackend(block_size=256).build(space)
        start = time.perf_counter()
        searcher.search(src, k=50)
        search_seconds = time.perf_counter() - start
        lines.append("Q2I full search: %.2fs" % search_seconds)

        assert seconds < 600, "index build must stay tractable"
        lines.append("")
        lines.append("paper: all six indices for 100M nodes in < 2h on a "
                     "GPU worker fleet with OpenMP+SIMD parallelism")
        write_report("mnn_throughput.txt",
                     "MNN - inverted-index build throughput", lines)
        return search_seconds

    benchmark.pedantic(run, rounds=1, iterations=1)
