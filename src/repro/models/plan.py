"""Frontier-based encode planning — the sampling phase of the encoder.

The recursive context encoder (paper §IV-B-2) re-encodes every sampled
neighbour from scratch, so one batch costs ``(k·|types|)^L`` encoder
evaluations and the same node is pushed through the tape many times.
This module separates the *stochastic* part of that computation — which
neighbours each node aggregates at each GCN round — from the
*differentiable* part, as a pure-numpy planning pass:

- :func:`build_encode_plan` walks the receptive field top-down and
  produces an :class:`EncodePlan`: per-level frontiers of **unique**
  ``(node_type, index)`` sets, per-frontier neighbour draws with masks,
  and precomputed gather maps (positions into the level below);
- the encoder's compute phase then encodes each unique frontier exactly
  once, bottom-up, routing representations through ``ops.gather``
  (``take`` forward, ``np.add.at`` scatter-add backward);
- because the plan *captures* the neighbour draws, the recursive
  oracle (``tests/reference/encoder.py``) can replay the exact same
  draws (:meth:`EncodePlan.lookup`), which is what makes loss/gradient
  parity with it testable to machine precision.

``EncodePlan`` is deliberately dumb data — arrays only, no tensors — so
a caller can build plans ahead and hand them to ``AMCAD.loss``.  Every
plan samples its draws afresh, as the paper's stochastic aggregation
does on every step.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.hetgraph import HetGraph
from repro.graph.schema import NodeType


def _positions(frontier: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions of ``values`` inside the sorted-unique ``frontier``."""
    values = np.asarray(values, dtype=np.int64).ravel()
    pos = np.searchsorted(frontier, values)
    if values.size:
        clipped = np.minimum(pos, frontier.size - 1)
        if frontier.size == 0 or np.any(frontier[clipped] != values):
            raise ValueError("requested node ids are not covered by the "
                             "plan's frontier")
    return pos.astype(np.int64)


@dataclasses.dataclass
class NeighborBlock:
    """Captured neighbour draws of one ``(src_type → dst_type)`` edge set.

    ``neigh_ids``/``mask`` are ``(U, k)`` over the level's unique
    frontier; ``gather`` holds the flattened positions of ``neigh_ids``
    inside the *level-below* frontier of ``dst_type`` (``None`` when the
    mask is entirely empty and the block is skipped, mirroring the
    recursive oracle's behaviour).
    """

    src_type: NodeType
    dst_type: NodeType
    neigh_ids: np.ndarray
    mask: np.ndarray
    gather: Optional[np.ndarray] = None


@dataclasses.dataclass
class PlanLevel:
    """One GCN round's worth of frontiers, draws and gather maps.

    Level ``l`` holds, per node type, the unique nodes whose
    representation *after* ``l`` GCN rounds is needed; ``self_maps``
    locate those nodes inside the level-``l-1`` frontier of the same
    type (absent at level 0, which is inductive-only).
    """

    frontiers: Dict[NodeType, np.ndarray] = dataclasses.field(
        default_factory=dict)
    self_maps: Dict[NodeType, np.ndarray] = dataclasses.field(
        default_factory=dict)
    blocks: Dict[NodeType, List[NeighborBlock]] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass
class EncodePlan:
    """A fully-sampled GCN receptive field, ready for one-pass encoding."""

    node_type: NodeType
    indices: np.ndarray
    layers: int
    neighbor_samples: int
    levels: List[PlanLevel]

    def output_map(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Top-frontier positions of ``indices`` (default: the request)."""
        if indices is None:
            indices = self.indices
        return _positions(self.levels[self.layers].frontiers[self.node_type],
                          indices)

    def lookup(self, layer: int, src_type: NodeType, indices: np.ndarray,
               dst_type: NodeType) -> Tuple[np.ndarray, np.ndarray]:
        """Replay the captured draws for arbitrary (possibly duplicated)
        ``indices`` — the recursive oracle's parity hook.

        ``layer`` is the 0-based GCN round, matching the ``layer``
        argument of the encoder's aggregation step.
        """
        level = self.levels[layer + 1]
        for block in level.blocks.get(src_type, ()):
            if block.dst_type == dst_type:
                pos = _positions(level.frontiers[src_type], indices)
                return block.neigh_ids[pos], block.mask[pos]
        raise KeyError("plan holds no draws for round %d %s -> %s"
                       % (layer, src_type.value, dst_type.value))

    def num_encoded(self) -> int:
        """Total unique encoder evaluations the plan schedules."""
        return int(sum(frontier.size for level in self.levels
                       for frontier in level.frontiers.values()))


def build_full_graph_plan(graph: HetGraph, node_type: NodeType,
                          layers: int, neighbor_samples: int,
                          rng: np.random.Generator) -> EncodePlan:
    """One :class:`EncodePlan` covering *every* node of ``node_type``.

    The offline half of the system (``encode_all``, index builds) needs
    representations for the whole vocabulary, not a mini-batch; walking
    it in per-batch plans re-samples and re-encodes the shared
    receptive field thousands of times.  A full-graph plan is built
    once — its per-level frontiers are bounded by the total node counts,
    so each GCN round becomes a handful of full-frontier passes
    (GraphSAGE-style cached supports) instead of ``N / batch`` recursive
    mini-batches.

    The top frontier is ``arange(N)``, so
    :meth:`EncodePlan.output_map` is the identity and callers can use
    the per-level representations as vocabulary-ordered tables.
    """
    n = int(graph.num_nodes[node_type])
    return build_encode_plan(graph, node_type, np.arange(n, dtype=np.int64),
                             layers, neighbor_samples, rng)


def build_encode_plan(graph: HetGraph, node_type: NodeType,
                      indices: np.ndarray, layers: int, neighbor_samples: int,
                      rng: np.random.Generator) -> EncodePlan:
    """Sample the GCN receptive field of ``indices`` into an :class:`EncodePlan`.

    Pure numpy: walks the frontier top-down (level ``layers`` … 1),
    draws ``neighbor_samples`` typed neighbours per unique frontier node
    per round, then resolves every gather map against the deduplicated
    level-below frontiers.  Neighbour-type iteration follows the
    :class:`NodeType` declaration order, matching the recursive oracle.
    """
    indices = np.asarray(indices, dtype=np.int64)
    layers = int(layers)
    k = int(neighbor_samples)
    levels = [PlanLevel() for _ in range(layers + 1)]
    levels[layers].frontiers[node_type] = np.unique(indices)

    for l in range(layers, 0, -1):
        level = levels[l]
        below: Dict[NodeType, List[np.ndarray]] = {}
        for src_type in NodeType:
            uniq = level.frontiers.get(src_type)
            if uniq is None:
                continue
            # the self path always needs the previous-round representation
            below.setdefault(src_type, []).append(uniq)
            blocks: List[NeighborBlock] = []
            for dst_type in NodeType:
                if graph.num_nodes[dst_type] == 0:
                    continue
                neigh, mask = graph.sample_neighbors(
                    rng, src_type, uniq, dst_type, k)
                blocks.append(NeighborBlock(src_type, dst_type, neigh, mask))
                if mask.sum() > 0:
                    below.setdefault(dst_type, []).append(np.unique(neigh))
            level.blocks[src_type] = blocks
        prev = levels[l - 1]
        for t, parts in below.items():
            prev.frontiers[t] = np.unique(np.concatenate(parts))
        for src_type in level.frontiers:
            level.self_maps[src_type] = _positions(
                prev.frontiers[src_type], level.frontiers[src_type])
            for block in level.blocks[src_type]:
                if block.mask.sum() > 0:
                    block.gather = _positions(prev.frontiers[block.dst_type],
                                              block.neigh_ids)
    return EncodePlan(node_type=node_type, indices=indices, layers=layers,
                      neighbor_samples=k, levels=levels)
