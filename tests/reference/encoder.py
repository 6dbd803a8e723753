"""The per-layer recursive context encoder (paper §IV-B-2, as written).

Re-encodes every sampled neighbour from scratch, depth-first, with no
deduplication: ``(1 + k·|types|)^L`` encoder evaluations per node.  The
product encoder (``NodeEncoder.encode``) must compute exactly the same
function when both replay the neighbour draws captured in an
:class:`~repro.models.plan.EncodePlan` — identical loss, gradients
equal on every parameter — on a strictly smaller tape.
"""

from typing import Optional

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.graph.schema import NodeType
from repro.models.amcad import AMCAD
from repro.models.encoder import NodeEncoder
from repro.models.plan import EncodePlan


def _aggregate(encoder: NodeEncoder, node_type: NodeType,
               indices: np.ndarray, layer: int, rng: np.random.Generator,
               plan: Optional[EncodePlan]) -> Tensor:
    """One recursive GCN round; with ``plan``, replays captured draws."""
    self_points = _encode_layer(encoder, node_type, indices, layer, rng, plan)
    batch = len(indices)

    # tangent aggregation, summed over neighbour types
    neighbor_sum: Optional[Tensor] = None
    for other_type in NodeType:
        if encoder.graph.num_nodes[other_type] == 0:
            continue
        if plan is not None:
            neigh_ids, mask = plan.lookup(layer, node_type, indices,
                                          other_type)
        else:
            neigh_ids, mask = encoder.graph.sample_neighbors(
                rng, node_type, indices, other_type,
                encoder.neighbor_samples)
        if mask.sum() == 0:
            continue
        neigh_points = _encode_layer(encoder, other_type, neigh_ids.ravel(),
                                     layer, rng, plan)
        # log-map every gathered point (the product encoder maps each
        # unique frontier once and gathers the tangents instead)
        tangents = encoder.tangents(other_type, neigh_points)
        pooled = encoder.pool(
            tangents.reshape((encoder.num_subspaces,) + mask.shape + (-1,)),
            mask)
        neighbor_sum = (pooled if neighbor_sum is None
                        else neighbor_sum + pooled)
    return encoder.gcn_update(node_type, layer,
                              encoder.tangents(node_type, self_points),
                              neighbor_sum, batch)


def _encode_layer(encoder: NodeEncoder, node_type: NodeType,
                  indices: np.ndarray, layer: int, rng: np.random.Generator,
                  plan: Optional[EncodePlan]) -> Tensor:
    if layer == 0:
        return encoder.inductive(node_type, indices)
    return _aggregate(encoder, node_type, indices, layer - 1, rng, plan)


def encode_recursive(encoder: NodeEncoder, node_type: NodeType,
                     indices: np.ndarray, rng: np.random.Generator,
                     plan: Optional[EncodePlan] = None) -> Tensor:
    """``encoder.encode`` by recursion; a ``plan`` replays its draws."""
    indices = np.asarray(indices, dtype=np.int64)
    points = _encode_layer(encoder, node_type, indices, encoder.gcn_layers,
                           rng, plan)
    if encoder.use_fusion:
        points = encoder.fuse(node_type, points)
    return points


class RecursiveAMCAD(AMCAD):
    """:class:`AMCAD` whose encodes recurse instead of planning.

    Same parameters for the same ``(graph, config)``; the loss keeps
    the original two-encode structure — the source set and the
    ``pos ∪ neg`` target set, neither deduplicated.
    """

    def encode(self, node_type, indices, rng=None, plan=None):
        return encode_recursive(self.encoder, node_type, indices,
                                rng or self.rng, plan)

    def _encode_group(self, group, rng, plans):
        relation = group.relation
        batch = group.src_idx.size
        plan = self._resolve_plan(plans, "source", relation.source_type)
        src_points = self.encode(relation.source_type, group.src_idx, rng,
                                 plan=plan)
        # positives and negatives share a type: one batched encode
        tgt_idx = np.concatenate([group.pos_idx, group.neg_idx.ravel()])
        plan = self._resolve_plan(plans, "target", relation.target_type)
        tgt_points = self.encode(relation.target_type, tgt_idx, rng,
                                 plan=plan)
        pos_points = tgt_points[:, :batch]
        neg_points = tgt_points[:, batch:]
        return src_points, pos_points, neg_points
