"""The per-layer recursive context encoder (paper §IV-B-2, as written),
and the two-pass loss.

Re-encodes every sampled neighbour from scratch, depth-first, with no
deduplication: ``(1 + k·|types|)^L`` encoder evaluations per node.  The
product encoder (``NodeEncoder.encode``) must compute exactly the same
function when both replay the neighbour draws captured in an
:class:`~repro.models.plan.EncodePlan` — identical loss, gradients
equal on every parameter — on a strictly smaller tape.

:class:`TwoPassAMCAD` keeps the loss and scoring the model had before
both endpoint roles shared one encoder pass: one ``encode`` per role,
then one scorer pass for the positive pairs and one for the negative
pairs, each projecting the gathered (not unique) rows.
"""

from typing import Optional

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.geometry import kernels as geo
from repro.graph.sampling import SampleBatch
from repro.graph.schema import NodeType
from repro.models.amcad import AMCAD, fermi_dirac
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
        pooled = ops.masked_mean(
            tangents.reshape((encoder.num_subspaces,) + mask.shape + (-1,)),
            mask)
        neighbor_sum = (pooled if neighbor_sum is None
                        else neighbor_sum + pooled)
    if neighbor_sum is None:
        neighbor_sum = Tensor(np.zeros((encoder.num_subspaces, batch,
                                        encoder.subspace_dim)))
    combined = ops.concatenate(
        [neighbor_sum, encoder.tangents(node_type, self_points)],
        axis=-1)                                                  # Eq. 5
    return encoder.gcn_round(node_type, layer, combined)


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


class TwoPassAMCAD(AMCAD):
    """:class:`AMCAD` with one encode per endpoint role and one scorer
    pass per pair kind — the oracle of the one-pass loss.

    Same parameters, draws and forward values for the same
    ``(graph, config)``; gradients agree up to summation order.
    """

    def pair_distance(self, relation, src_indices, dst_indices, rng=None):
        src_points = self.encode(relation.source_type, src_indices, rng)
        dst_points = self.encode(relation.target_type, dst_indices, rng)
        return self.scorer.distance(relation, src_points, relation.source_type,
                                    dst_points, relation.target_type)

    def _encode_group(self, group, rng, plans):
        """One deduplicated encode per endpoint role, rows gathered."""
        relation = group.relation
        batch = group.src_idx.size
        uniq_src, inv_src = np.unique(group.src_idx, return_inverse=True)
        plan = self._resolve_plan(plans, "source", relation.source_type)
        points = self.encode(relation.source_type, uniq_src, rng, plan=plan)
        src_points = ops.gather(points, inv_src)
        merged = np.concatenate([group.pos_idx, group.neg_idx.ravel()])
        uniq_tgt, inv_tgt = np.unique(merged, return_inverse=True)
        plan = self._resolve_plan(plans, "target", relation.target_type)
        points = self.encode(relation.target_type, uniq_tgt, rng, plan=plan)
        pos_points = ops.gather(points, inv_tgt[:batch])
        neg_points = ops.gather(points, inv_tgt[batch:])
        return src_points, pos_points, neg_points

    def loss(self, samples, rng=None, plans=None):
        rng = rng or self.rng
        cfg = self.config
        total = None
        count = 0

        groups = [samples] if isinstance(samples, SampleBatch) else samples
        for group in groups:
            relation = group.relation
            batch, k = group.neg_idx.shape
            src_points, pos_points, neg_points = self._encode_group(
                group, rng, plans)

            # repeat source points K times to align with flattened negatives
            rep = np.repeat(np.arange(batch), k)
            src_rep = ops.gather(src_points, rep)

            pos_dist = self.scorer.distance(
                relation, src_points, relation.source_type,
                pos_points, relation.target_type)
            neg_dist = self.scorer.distance(
                relation, src_rep, relation.source_type,
                neg_points, relation.target_type)

            pos_sim = fermi_dirac(pos_dist, cfg.fermi_radius,
                                  cfg.fermi_temperature)
            neg_sim = fermi_dirac(neg_dist, cfg.fermi_radius,
                                  cfg.fermi_temperature)
            hinge = ops.relu(cfg.margin + neg_sim - pos_sim[rep])
            group_loss = ops.sum(hinge)

            if cfg.regularization > 0:
                reg = None
                for points, node_type in ((src_points, relation.source_type),
                                          (pos_points, relation.target_type),
                                          (neg_points, relation.target_type)):
                    term = ops.sum(geo.dist(points,
                                            Tensor(np.zeros(points.shape)),
                                            self.node_kappas[node_type]))
                    reg = term if reg is None else reg + term
                group_loss = group_loss + cfg.regularization * reg

            total = group_loss if total is None else total + group_loss
            count += batch * k
        if total is None:
            return Tensor(np.asarray(0.0))
        return total / max(count, 1)


class RecursiveAMCAD(TwoPassAMCAD):
    """:class:`TwoPassAMCAD` whose encodes recurse instead of planning.

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
