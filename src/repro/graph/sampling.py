"""Negative sampling with hard/easy stratification (paper §IV-A-2).

Given a positive pair, negatives are nodes of the *target* type:

- **hard** negatives share the positive target's category — they force
  the representation to discriminate at fine granularity;
- **easy** negatives come from other categories.

The paper uses K = 6 negatives per positive at an easy:hard ratio of
2:1, sampled by the alias method for O(1) draws (§V-A).
:meth:`NegativeSampler.sample_arrays` draws a whole relation-homogeneous
batch at once — oversample-and-mask rejection for easy negatives, one
indexed gather into per-category pools for hard ones — and returns a
:class:`SampleBatch`.  The per-pair reference it is tested against
lives in ``tests/reference/sampling.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.graph.alias import AliasSampler
from repro.graph.hetgraph import HetGraph
from repro.graph.schema import NodeType, Relation


@dataclasses.dataclass
class SampleBatch:
    """A relation-homogeneous training batch as aligned index arrays.

    The data contract between the samplers and ``AMCAD.loss``:
    ``src_idx``/``pos_idx`` are ``(B,)`` node indices, ``neg_idx`` is
    ``(B, K)``, and every node is typed by ``relation``.
    """

    relation: Relation
    src_idx: np.ndarray
    pos_idx: np.ndarray
    neg_idx: np.ndarray

    def __post_init__(self):
        self.src_idx = np.asarray(self.src_idx, dtype=np.int64)
        self.pos_idx = np.asarray(self.pos_idx, dtype=np.int64)
        self.neg_idx = np.asarray(self.neg_idx, dtype=np.int64)
        if self.src_idx.shape != self.pos_idx.shape or self.src_idx.ndim != 1:
            raise ValueError("src_idx/pos_idx must be aligned 1-D arrays")
        if self.neg_idx.ndim != 2 or self.neg_idx.shape[0] != self.src_idx.size:
            raise ValueError("neg_idx must be (batch, K), got %r"
                             % (self.neg_idx.shape,))

    def __len__(self) -> int:
        return int(self.src_idx.size)

    @property
    def num_negatives(self) -> int:
        return int(self.neg_idx.shape[1])


class NegativeSampler:
    """Samples hard and easy negatives for positive pairs.

    Parameters
    ----------
    graph:
        Graph supplying categories and degree-based node weights.
    num_negatives:
        K, total negatives per positive (paper: 6).
    easy_ratio:
        Fraction of easy negatives in [0, 1] (paper: 2:1 easy:hard →
        2/3).
    degree_smoothing:
        Finite exponent on node degree for the global (easy)
        distribution — 0.75 mirrors the word2vec/DeepWalk convention.
    """

    #: rejection-round cap for easy draws landing in the positive's
    #: category (a single-category graph keeps its last draws)
    MAX_REJECTION_ROUNDS = 50

    def __init__(self, graph: HetGraph, num_negatives: int = 6,
                 easy_ratio: float = 2.0 / 3.0,
                 degree_smoothing: float = 0.75):
        if num_negatives < 1:
            raise ValueError("need at least one negative sample")
        easy_ratio = float(easy_ratio)
        if not 0.0 <= easy_ratio <= 1.0:
            raise ValueError("easy_ratio must be in [0, 1], got %r"
                             % easy_ratio)
        degree_smoothing = float(degree_smoothing)
        if not np.isfinite(degree_smoothing):
            raise ValueError("degree_smoothing must be finite, got %r"
                             % degree_smoothing)
        self.graph = graph
        self.num_negatives = int(num_negatives)
        self.easy_ratio = easy_ratio
        self._global_samplers: Dict[NodeType, AliasSampler] = {}
        for node_type in NodeType:
            n = graph.num_nodes[node_type]
            if n == 0:
                continue
            weights = graph.degree(node_type).astype(np.float64) ** degree_smoothing
            if weights.sum() == 0:
                weights = np.ones(n)
            else:
                weights = weights + 1e-3  # keep cold nodes reachable
            self._global_samplers[node_type] = AliasSampler(weights)

    @property
    def _split(self):
        n_easy = int(round(self.num_negatives * self.easy_ratio))
        return n_easy, self.num_negatives - n_easy

    def sample_arrays(self, rng: np.random.Generator, relation: Relation,
                      src_idx: np.ndarray,
                      pos_idx: np.ndarray) -> SampleBatch:
        """Attach K negatives to a whole relation-homogeneous batch.

        Easy negatives: draw from the degree-smoothed alias table, then
        redraw only the entries that landed in their positive's
        category (oversample-and-mask rejection; degenerate graphs keep
        the last draws).  Hard negatives: one
        ``rng.random`` block indexed into the per-category pools, with
        the positive excluded by rank shifting.
        """
        src_idx = np.asarray(src_idx, dtype=np.int64)
        pos_idx = np.asarray(pos_idx, dtype=np.int64)
        target_type = relation.target_type
        cats = self.graph.categories[target_type]
        pos_cat = cats[pos_idx]
        batch = pos_idx.size
        n_easy, n_hard = self._split
        neg_idx = np.empty((batch, self.num_negatives), dtype=np.int64)

        sampler = self._global_samplers[target_type]
        if n_easy:
            easy = np.asarray(sampler.sample(rng, size=(batch, n_easy)),
                              dtype=np.int64)
            collide = cats[easy] == pos_cat[:, None]
            rounds = 0
            while collide.any() and rounds < self.MAX_REJECTION_ROUNDS:
                easy[collide] = sampler.sample(rng, size=int(collide.sum()))
                collide = cats[easy] == pos_cat[:, None]
                rounds += 1
            neg_idx[:, :n_easy] = easy

        if n_hard:
            pools = self.graph.category_pools(target_type)
            available = pools.count[pos_cat] - 1  # pool minus the positive
            has_pool = available > 0
            span = np.maximum(available, 1)
            draw = (rng.random((batch, n_hard)) * span[:, None]).astype(np.int64)
            draw = np.minimum(draw, (span - 1)[:, None])
            # uniform over the pool minus the positive: skip its rank
            draw += draw >= pools.rank[pos_idx][:, None]
            # singleton pools would shift past their (1-element) pool;
            # keep their gather in bounds — they are overwritten below
            draw[~has_pool] = 0
            hard = pools.order[pools.start[pos_cat][:, None] + draw]
            if not has_pool.all():  # singleton categories: global fallback
                orphan = np.flatnonzero(~has_pool)
                hard[orphan] = sampler.sample(rng, size=(orphan.size, n_hard))
            neg_idx[:, n_easy:] = hard

        return SampleBatch(relation=relation, src_idx=src_idx,
                           pos_idx=pos_idx, neg_idx=neg_idx)
