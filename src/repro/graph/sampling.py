"""Negative sampling with hard/easy stratification (paper §IV-A-2).

Given a positive pair, negatives are nodes of the *target* type:

- **hard** negatives share the positive target's category — they force
  the representation to discriminate at fine granularity;
- **easy** negatives come from other categories.

The paper uses K = 6 negatives per positive at an easy:hard ratio of
2:1, sampled by the alias method for O(1) draws (§V-A).  Two
implementations live here: the looped reference (``sample`` /
``sample_batch``, one pair at a time) and the array-native plane
(``sample_arrays``), which draws a whole relation-homogeneous batch
with oversample-and-mask rejection for easy negatives and one indexed
gather into per-category pools for hard ones, producing a
:class:`SampleBatch` instead of a list of dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.graph.alias import AliasSampler
from repro.graph.hetgraph import HetGraph
from repro.graph.metapath import PositivePair
from repro.graph.schema import NodeRef, NodeType, Relation


@dataclasses.dataclass
class TrainingSample:
    """``<x_src, x_pos, {x_neg_i}>`` with the relation label (paper §IV-B-3)."""

    source: NodeRef
    positive: NodeRef
    negatives: List[NodeRef]
    relation: Relation


@dataclasses.dataclass
class SampleBatch:
    """A relation-homogeneous training batch as aligned index arrays.

    The struct-of-arrays twin of ``List[TrainingSample]`` and the data
    contract between the sampling plane and ``AMCAD.loss``:
    ``src_idx``/``pos_idx`` are ``(B,)`` node indices, ``neg_idx`` is
    ``(B, K)``, and every node is typed by ``relation``.  Iterating a
    batch yields :class:`TrainingSample` views, so reference-path
    consumers keep working.
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

    def __iter__(self) -> Iterator[TrainingSample]:
        src_type = self.relation.source_type
        tgt_type = self.relation.target_type
        for s, p, negs in zip(self.src_idx, self.pos_idx, self.neg_idx):
            yield TrainingSample(
                source=NodeRef(src_type, int(s)),
                positive=NodeRef(tgt_type, int(p)),
                negatives=[NodeRef(tgt_type, int(n)) for n in negs],
                relation=self.relation)


def as_sample_batches(
        samples: Union["SampleBatch", Sequence[TrainingSample]]
) -> List[SampleBatch]:
    """Normalise a loss input to relation-homogeneous batches.

    A :class:`SampleBatch` passes through; a sequence of
    :class:`TrainingSample` is grouped per relation in first-seen
    order, exactly as the looped loss did.
    """
    if isinstance(samples, SampleBatch):
        return [samples]
    by_relation: Dict[Relation, List[TrainingSample]] = {}
    for sample in samples:
        by_relation.setdefault(sample.relation, []).append(sample)
    batches = []
    for relation, group in by_relation.items():
        batches.append(SampleBatch(
            relation=relation,
            src_idx=np.array([s.source.index for s in group]),
            pos_idx=np.array([s.positive.index for s in group]),
            neg_idx=np.array([[n.index for n in s.negatives]
                              for s in group])))
    return batches


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
    #: category (matches the looped path's ``50 * count`` attempt cap)
    MAX_REJECTION_ROUNDS = 50

    def __init__(self, graph: HetGraph, num_negatives: int = 6,
                 easy_ratio: float = 2.0 / 3.0,
                 degree_smoothing: float = 0.75,
                 seed: Optional[int] = None):
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

    # -- looped reference ---------------------------------------------------

    def _sample_easy(self, rng: np.random.Generator, node_type: NodeType,
                     category: int, count: int) -> List[int]:
        """Degree-weighted draws outside the positive's category."""
        sampler = self._global_samplers[node_type]
        cats = self.graph.categories[node_type]
        out: List[int] = []
        attempts = 0
        while len(out) < count and attempts < 50 * count:
            idx = int(sampler.sample(rng))
            attempts += 1
            if int(cats[idx]) != category:
                out.append(idx)
        while len(out) < count:  # degenerate single-category graphs
            out.append(int(sampler.sample(rng)))
        return out

    def _sample_hard(self, rng: np.random.Generator, node_type: NodeType,
                     category: int, exclude: int, count: int) -> List[int]:
        """Uniform draws inside the positive's category, excluding it."""
        pool = self.graph.nodes_in_category(node_type, category)
        pool = pool[pool != exclude]
        if pool.size == 0:
            return self._sample_easy(rng, node_type, -1, count)
        picks = rng.integers(pool.size, size=count)
        return [int(pool[p]) for p in picks]

    def sample(self, rng: np.random.Generator,
               pair: PositivePair) -> TrainingSample:
        """Attach K negatives to a positive pair."""
        target_type = pair.target.node_type
        category = int(self.graph.categories[target_type][pair.target.index])
        n_easy, n_hard = self._split
        negatives = [NodeRef(target_type, idx) for idx in
                     self._sample_easy(rng, target_type, category, n_easy)]
        negatives += [NodeRef(target_type, idx) for idx in
                      self._sample_hard(rng, target_type, category,
                                        pair.target.index, n_hard)]
        return TrainingSample(source=pair.source, positive=pair.target,
                              negatives=negatives, relation=pair.relation)

    def sample_batch(self, rng: np.random.Generator,
                     pairs: Sequence[PositivePair]) -> List[TrainingSample]:
        return [self.sample(rng, pair) for pair in pairs]

    # -- array-native plane -------------------------------------------------

    def sample_arrays(self, rng: np.random.Generator, relation: Relation,
                      src_idx: np.ndarray,
                      pos_idx: np.ndarray) -> SampleBatch:
        """Attach K negatives to a whole relation-homogeneous batch.

        Easy negatives: draw from the degree-smoothed alias table, then
        redraw only the entries that landed in their positive's
        category (oversample-and-mask rejection; degenerate graphs keep
        the last draws, as the looped path does).  Hard negatives: one
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
