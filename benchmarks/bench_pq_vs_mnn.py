"""PQ vs MNN — why AMCAD needs exact mixed-curvature search (§IV-C-1).

The paper argues product quantisation cannot serve its attention-
weighted mixed-curvature similarity and therefore builds MNN (exact
brute force with two-level parallelism).  This bench quantifies that:

- ground truth = the ``ExactBackend`` (MNN) top-k under the learned
  metric;
- PQ baseline  = ``tests/reference/pq.py``'s ``PQIndex`` — classic
  PQ/ADC over the *concatenated Euclidean* embedding (the best a
  traditional pipeline can do: it can neither apply per-subspace
  geodesics nor per-pair attention weights);
- report recall@k of PQ against the true metric, plus PQ's recall on
  plain Euclidean search as a control (showing PQ itself is fine when
  the metric matches its assumptions).

PQ is no search backend, so it is fitted on the relation's target rows
directly.  Both ground truths come from the shared
:func:`common.exact_ground_truth` / :func:`common.euclidean_view`
helpers — one streamed exact pass per ranking, no materialised
``(Q, N)`` distance matrix.
"""

import pathlib
import sys

import numpy as np
import pytest

from repro.bench import scaled_steps, write_report
from repro.graph.schema import Relation
from repro.models import make_model
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.quantization import recall_at_k
from repro.training import Trainer, TrainerConfig

_HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "tests"))
from common import euclidean_view, exact_ground_truth  # noqa: E402
from reference.pq import PQIndex  # noqa: E402


def test_pq_cannot_serve_mixed_metric(benchmark, bench_data):
    def run():
        model = make_model("amcad", bench_data.train_graph, num_subspaces=2,
                           subspace_dim=4, seed=1)
        Trainer(model, TrainerConfig(steps=scaled_steps(150), batch_size=64,
                                     learning_rate=0.05, seed=1)).train()
        space = RelationSpace.from_model(model, Relation.Q2A)

        rng = np.random.default_rng(0)
        queries = rng.choice(space.num_sources, size=80, replace=False)
        k = 10

        # ground truth under the learned mixed-curvature metric —
        # the one shared exact computation for this run
        exact_ids, __ = exact_ground_truth(space, queries, k)

        # PQ over concatenated embeddings (all a traditional ANN sees)
        pq = PQIndex(num_blocks=4, codebook_size=32, seed=0).fit(
            np.concatenate(space.dst_embeddings, axis=1))
        pq_ids, __ = pq.search(
            np.concatenate(space.src_embeddings, axis=1)[queries], k=k)
        pq_recall = recall_at_k(pq_ids, exact_ids, k)

        # decomposition: how much is lost to the metric mismatch alone
        # (exact Euclidean search vs the true metric), and how much PQ
        # tracks its own Euclidean objective (its home turf).  The
        # Euclidean control ranking reuses the same streamed exact
        # backend over a flat κ=0 view instead of a dense (Q, N)
        # distance matrix.
        flat_ids, __ = exact_ground_truth(euclidean_view(space), queries, k)
        mismatch_recall = recall_at_k(flat_ids, exact_ids, k)
        control_recall = recall_at_k(pq_ids, flat_ids, k)

        lines = [
            "recall@%d, exact-Euclidean search vs true mixed metric: %.3f"
            "   <- loss from the metric mismatch alone" % (k, mismatch_recall),
            "recall@%d, PQ vs true mixed metric: %.3f" % (k, pq_recall),
            "recall@%d, PQ vs exact Euclidean (control): %.3f"
            % (k, control_recall),
            "PQ compression: %.0fx" % pq.compression_ratio(),
            "",
            "paper (§IV-C-1): the attention-weighted metric is 'hard to "
            "directly use' with product quantisation, motivating MNN; "
            "MNN recall vs the true metric is 1.0 by construction",
        ]
        # the true metric is not the Euclidean metric: even *exact*
        # Euclidean search misses part of the true top-k, and PQ can
        # only do worse than that ceiling
        assert mismatch_recall < 0.95, (
            "the mixed metric should differ measurably from Euclidean")
        assert pq_recall <= mismatch_recall + 0.05
        write_report("pq_vs_mnn.txt", "PQ vs MNN - metric mismatch", lines)
        return pq_recall, mismatch_recall, control_recall

    benchmark.pedantic(run, rounds=1, iterations=1)
