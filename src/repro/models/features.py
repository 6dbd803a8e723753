"""Sparse feature embedding with per-subspace tables (paper Eq. 4).

Every node type ``t`` has the feature fields of paper Table IV (id,
category, terms, …).  For each mixed-curvature subspace ``m`` the
encoder keeps a *separate* embedding table per field — the paper's
``e^{m,t}_j`` — so each subspace can learn geometry-specific feature
representations.  The M tables of one field are stacked as one
``(M, vocab, dim)`` parameter, so a lookup is one gather for all
subspaces.  Field embeddings are concatenated and linearly projected
to the subspace dimension in tangent space (one ``(M, F·dim, d)``
projection); the exponential map into the subspaces happens in the
encoder.

Multi-slot fields (title terms, bid words) are mean-pooled over their
non-PAD slots.

:class:`LRUFeatureRegistry` implements the paper's §V-C feature-exit
mechanism: features unseen for a configurable horizon are evicted
(their embedding rows re-initialised) to stop the model growing without
bound during incremental training.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor
from repro.common import PAD
from repro.graph.schema import NodeType


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class FeatureEmbedding:
    """Per-(subspace, field) embedding tables for one node type.

    Parameters
    ----------
    node_type:
        Which entity this embeds.
    vocab_sizes:
        ``field -> vocabulary size``.
    feature_dim:
        Embedding width per field.
    num_subspaces:
        M, the number of mixed-curvature subspaces.
    subspace_dim:
        Output width per subspace (tangent vectors).
    rng:
        Initialisation source.
    """

    def __init__(self, node_type: NodeType, vocab_sizes: Dict[str, int],
                 feature_dim: int, num_subspaces: int, subspace_dim: int,
                 rng: np.random.Generator):
        self.node_type = node_type
        self.fields = sorted(vocab_sizes)
        self.feature_dim = int(feature_dim)
        self.num_subspaces = int(num_subspaces)
        self.subspace_dim = int(subspace_dim)
        # drawn in the per-subspace order (subspace-major, then field)
        # so a model's initial values do not depend on the stacking
        draws: Dict[str, List[np.ndarray]] = {f: [] for f in self.fields}
        for _ in range(num_subspaces):
            for field in self.fields:
                draws[field].append(rng.normal(
                    scale=0.1, size=(vocab_sizes[field], feature_dim)))
        #: ``field -> (M, vocab, feature_dim)`` table
        self.tables: Dict[str, Parameter] = {
            field: Parameter(np.stack(draws[field])) for field in self.fields}
        concat_dim = feature_dim * len(self.fields)
        #: ``(M, F·feature_dim, subspace_dim)``
        self.projection = Parameter(np.stack([
            glorot(rng, concat_dim, subspace_dim)
            for _ in range(num_subspaces)]))

    def _embed_field(self, field: str, values: np.ndarray) -> Tensor:
        """Look up one field; multi-slot fields are masked-mean pooled."""
        table = self.tables[field]
        values = np.asarray(values)
        if values.ndim == 1:
            return ops.gather(table, values)
        mask = (values != PAD).astype(np.float64)
        safe = np.where(values == PAD, 0, values)
        embedded = ops.gather(table, safe)         # (M, batch, slots, dim)
        return ops.masked_mean(embedded, mask)

    def forward(self, features: Dict[str, np.ndarray],
                indices: np.ndarray) -> Tensor:
        """Tangent-space embeddings, ``(M, batch, subspace_dim)``."""
        indices = np.asarray(indices, dtype=np.int64)
        pieces = [self._embed_field(field, features[field][indices])
                  for field in self.fields]
        return ops.matmul(ops.concatenate(pieces, axis=-1), self.projection)

    def checkpoint_layout(self) -> List[Tuple[Parameter, tuple]]:
        """``(parameter, index)`` per stored per-subspace array."""
        return ([(self.tables[field], (m,)) for m in range(self.num_subspaces)
                 for field in self.fields]
                + [(self.projection, (m,)) for m in range(self.num_subspaces)])

    def parameters(self) -> Iterable[Parameter]:
        yield from self.tables.values()
        yield self.projection


class LRUFeatureRegistry:
    """Least-recently-used feature exit (paper §V-C).

    Tracks the last step each feature id of each table was seen and
    evicts stale rows — re-initialising their embeddings — so the model
    does not grow unboundedly across incremental training days.  A row
    is a slot of the second-to-last axis: a stacked ``(M, vocab, dim)``
    table evicts a feature id from all M subspaces at once.
    """

    def __init__(self, horizon_steps: int, reinit_scale: float = 0.1,
                 seed: int = 0):
        if horizon_steps < 1:
            raise ValueError("horizon must be positive")
        self.horizon = int(horizon_steps)
        self.reinit_scale = float(reinit_scale)
        self.rng = np.random.default_rng(seed)
        self.step = 0
        self._last_seen: Dict[int, np.ndarray] = {}
        self._tables: Dict[int, Parameter] = {}
        self.evicted_total = 0

    @staticmethod
    def _slices(table: Parameter) -> int:
        """Rows per feature id: the size of the leading (subspace) axes."""
        return int(np.prod(table.shape[:-2], dtype=np.int64))

    def register(self, table: Parameter) -> None:
        """Track a feature table."""
        key = id(table)
        if key not in self._tables:
            self._tables[key] = table
            self._last_seen[key] = np.full(table.shape[-2], -1, dtype=np.int64)

    def touch(self, table: Parameter, indices: np.ndarray) -> None:
        """Record feature ids observed at the current step."""
        key = id(table)
        if key not in self._tables:
            self.register(table)
        flat = np.asarray(indices).ravel()
        flat = flat[flat != PAD]
        self._last_seen[key][flat] = self.step
        # sync in case the table was resized (not supported — guard)
        if self._last_seen[key].shape[0] != table.shape[-2]:
            raise RuntimeError("feature table resized after registration")

    def advance(self, steps: int = 1) -> None:
        self.step += int(steps)

    def evict_stale(self) -> int:
        """Re-initialise rows unseen within the horizon; return count.

        Rows never seen (``-1``) are left alone — they are still at
        their initialisation and carry no stale signal.
        """
        evicted = 0
        threshold = self.step - self.horizon
        for key, table in self._tables.items():
            last = self._last_seen[key]
            stale = (last >= 0) & (last < threshold)
            count = int(stale.sum())
            if count:
                table.data[..., stale, :] = self.rng.normal(
                    scale=self.reinit_scale,
                    size=table.shape[:-2] + (count, table.shape[-1]))
                last[stale] = -1
                evicted += count * self._slices(table)
        self.evicted_total += evicted
        return evicted

    @property
    def active_rows(self) -> int:
        """Rows currently holding learned (recently seen) embeddings."""
        return int(np.sum([int((last >= 0).sum())
                           * self._slices(self._tables[key])
                           for key, last in self._last_seen.items()]))
