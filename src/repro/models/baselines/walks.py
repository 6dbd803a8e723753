"""Training-pair generators for the skip-gram baselines.

All generators speak *global* node ids: the heterogeneous graph is
flattened into one id space (queries, then items, then ads) because
DeepWalk/LINE/Node2Vec are homogeneous models — precisely the
limitation the paper calls out when explaining why AMCAD_E beats them.

The walkers run on the same batched alias machinery as the meta-path
training plane (:class:`~repro.graph.alias.CSRAliasTables`): every
active walk advances one level per vectorised draw, and window pairs
fall out of array shifts.  Node2vec's second-order bias is applied by
rejection — propose a first-order step, accept with ``bias/max_bias``
— so the biased walk stays batched without materialising per-edge
alias tables.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.graph.alias import AliasSampler, CSRAliasTables
from repro.graph.hetgraph import HetGraph
from repro.graph.metapath import MAX_EMPTY_ROUNDS, MetaPathWalker
from repro.graph.schema import NodeType


class GlobalIdSpace:
    """Bijection between typed node refs and one flat id space."""

    def __init__(self, graph: HetGraph):
        self.offsets: Dict[NodeType, int] = {}
        offset = 0
        for node_type in NodeType:
            self.offsets[node_type] = offset
            offset += graph.num_nodes[node_type]
        self.total = offset

    def to_global(self, node_type: NodeType, index) -> np.ndarray:
        return np.asarray(index) + self.offsets[node_type]


def _flat_adjacency(graph: HetGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR over global ids merging every edge type/direction.

    Neighbour lists are sorted within each row so membership tests
    (node2vec's "is the candidate a neighbour of the previous node")
    reduce to one searchsorted over ``row * N + neighbour`` keys.
    """
    ids = GlobalIdSpace(graph)
    srcs, dsts, weights = [], [], []
    for (s_type, _edge, d_type), csr in graph._adj.items():
        n_src = graph.num_nodes[s_type]
        src_local = np.repeat(np.arange(n_src), np.diff(csr.indptr))
        srcs.append(src_local + ids.offsets[s_type])
        dsts.append(csr.indices + ids.offsets[d_type])
        weights.append(csr.weights)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    weight = np.concatenate(weights)
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], weight[order]
    counts = np.bincount(src, minlength=ids.total)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, dst.astype(np.int64), weight


class DeepWalkGenerator:
    """Uniform truncated random walks + window co-occurrence pairs.

    Walks advance in blocks of :attr:`BLOCK_WALKS`: each level is one
    batched draw from per-row alias tables (uniform weights — DeepWalk
    ignores edge weights), and window pairs are extracted with array
    shifts over the trail matrix.
    """

    BLOCK_WALKS = 128

    def __init__(self, graph: HetGraph, walk_length: int = 8, window: int = 3,
                 seed: int = 0):
        self.ids = GlobalIdSpace(graph)
        self.indptr, self.indices, self.weights = _flat_adjacency(graph)
        self.walk_length = int(walk_length)
        self.window = int(window)
        self.rng = np.random.default_rng(seed)
        self._starts = np.flatnonzero(np.diff(self.indptr) > 0)
        self._tables = CSRAliasTables(self.indptr, self.indices,
                                      np.ones(self.indices.size))

    def _neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def _step_block(self, trails: np.ndarray, step: int,
                    current: np.ndarray) -> np.ndarray:
        """Next node per active walk (``-1`` dead-ends a walk)."""
        return self._tables.draw(self.rng, current)

    def _walk_block(self, size: int) -> np.ndarray:
        """``(size, walk_length)`` trails, ``-1``-padded after dead ends."""
        trails = np.full((size, self.walk_length), -1, dtype=np.int64)
        current = self._starts[self.rng.integers(self._starts.size, size=size)]
        trails[:, 0] = current
        alive = np.ones(size, dtype=bool)
        for step in range(1, self.walk_length):
            nxt = self._step_block(trails, step, current)
            alive &= nxt >= 0
            if not alive.any():
                break
            trails[alive, step] = nxt[alive]
            current = np.where(alive, nxt, current)
        return trails

    def _window_pairs(self, trails: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """All (center, context) pairs within the window, both directions."""
        centers, contexts = [], []
        for offset in range(1, self.window + 1):
            if offset >= trails.shape[1]:
                break
            left = trails[:, :-offset].ravel()
            right = trails[:, offset:].ravel()
            valid = (left >= 0) & (right >= 0)
            centers.append(left[valid])
            contexts.append(right[valid])
            centers.append(right[valid])
            contexts.append(left[valid])
        if not centers:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(centers), np.concatenate(contexts)

    def pairs(self, num_pairs: int) -> Iterator[Tuple[int, int]]:
        produced = 0
        while produced < num_pairs:
            trails = self._walk_block(self.BLOCK_WALKS)
            centers, contexts = self._window_pairs(trails)
            for center, context in zip(centers.tolist(), contexts.tolist()):
                yield (center, context)
                produced += 1
                if produced >= num_pairs:
                    return


class Node2VecGenerator(DeepWalkGenerator):
    """Second-order biased walks (return parameter p, in-out parameter q).

    The bias over a candidate ``c`` from current ``v`` given previous
    ``u`` is ``1/p`` (``c == u``), ``1`` (``c ∈ N(u)``) or ``1/q``.
    Rather than normalising it per step, each walk proposes a
    first-order step through the shared alias tables and accepts with
    probability ``bias / max_bias`` — the accepted marginal equals the
    normalised bias exactly, and rejected walks simply redraw in the
    next vectorised round.
    """

    MAX_REJECTION_ROUNDS = 64

    def __init__(self, graph: HetGraph, walk_length: int = 8, window: int = 3,
                 p: float = 1.0, q: float = 0.5, seed: int = 0):
        super().__init__(graph, walk_length, window, seed)
        if p <= 0 or q <= 0:
            raise ValueError("node2vec p and q must be positive")
        self.p = float(p)
        self.q = float(q)
        rows = np.repeat(np.arange(self.ids.total), np.diff(self.indptr))
        # rows are sorted and neighbours sorted within rows, so these
        # keys are globally sorted — one searchsorted tests membership
        self._edge_keys = rows * self.ids.total + self.indices

    def _has_edge(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        if self._edge_keys.size == 0:
            return np.zeros(src.shape, dtype=bool)
        keys = src * self.ids.total + dst
        pos = np.minimum(np.searchsorted(self._edge_keys, keys),
                         self._edge_keys.size - 1)
        return self._edge_keys[pos] == keys

    def _step_block(self, trails: np.ndarray, step: int,
                    current: np.ndarray) -> np.ndarray:
        proposal = self._tables.draw(self.rng, current)
        if step < 2:
            return proposal
        previous = trails[:, step - 2]
        inv_p, inv_q = 1.0 / self.p, 1.0 / self.q
        max_bias = max(inv_p, 1.0, inv_q)
        accepted = proposal.copy()
        pending = (accepted >= 0) & (previous >= 0)
        for _ in range(self.MAX_REJECTION_ROUNDS):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            candidate = accepted[idx]
            bias = np.where(candidate == previous[idx], inv_p,
                            np.where(self._has_edge(previous[idx], candidate),
                                     1.0, inv_q))
            keep = self.rng.random(idx.size) * max_bias < bias
            pending[idx[keep]] = False
            redo = idx[~keep]
            if redo.size:
                accepted[redo] = self._tables.draw(self.rng, current[redo])
        return accepted


class LineEdgeGenerator:
    """Direct edge sampling (LINE first/second order proximity)."""

    def __init__(self, graph: HetGraph, seed: int = 0):
        self.ids = GlobalIdSpace(graph)
        indptr, indices, weights = _flat_adjacency(graph)
        src = np.repeat(np.arange(self.ids.total), np.diff(indptr))
        self.src = src
        self.dst = indices
        self._sampler = AliasSampler(weights)
        self.rng = np.random.default_rng(seed)

    def pairs(self, num_pairs: int) -> Iterator[Tuple[int, int]]:
        picks = self._sampler.sample(self.rng, size=num_pairs)
        for edge in picks:
            yield (int(self.src[edge]), int(self.dst[edge]))


class MetapathPairGenerator:
    """Positive pairs from the Table III meta-path walker (Metapath2Vec).

    Runs on the walker's batched plane: blocks of walks advance with
    vectorised alias draws and the typed pairs are mapped into the
    global id space array-wise.  ``MAX_EMPTY_ROUNDS`` blocks in a row
    without a pair raise ``RuntimeError``, as in the trainer.
    """

    BLOCK_WALKS = 120

    def __init__(self, graph: HetGraph, seed: int = 0):
        self.ids = GlobalIdSpace(graph)
        self.walker = MetaPathWalker(graph)
        self.rng = np.random.default_rng(seed)

    def pairs(self, num_pairs: int) -> Iterator[Tuple[int, int]]:
        produced = 0
        empty_rounds = 0
        while produced < num_pairs:
            blocks = self.walker.sample_pair_blocks(self.rng, self.BLOCK_WALKS)
            empty_rounds = 0 if blocks else empty_rounds + 1
            if empty_rounds == MAX_EMPTY_ROUNDS:
                raise RuntimeError("meta-path walker produced no pairs in "
                                   "%d walk rounds" % MAX_EMPTY_ROUNDS)
            for block in blocks:
                src = self.ids.to_global(block.relation.source_type,
                                         block.src_idx)
                dst = self.ids.to_global(block.relation.target_type,
                                         block.dst_idx)
                for s, d in zip(src.tolist(), dst.tolist()):
                    yield (s, d)
                    produced += 1
                    if produced >= num_pairs:
                        return
