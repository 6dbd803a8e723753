"""Offline inverted-index construction (paper §IV-C-1, Fig. 6).

An :class:`InvertedIndex` maps each key node to its K nearest result
nodes under the mixed-curvature metric.  :class:`IndexSet` builds the
six indices the two-layer retrieval framework needs — Q2Q, Q2I, I2Q,
I2I (layer one: key expansion) and Q2A, I2A (layer two: ad retrieval) —
from one trained model.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common import drop_retired_planes
from repro.graph.schema import Relation
from repro.retrieval.backend import (
    BackendSpec,
    SearchBackend,
    resolve_backend_factory,
)
from repro.retrieval.mnn import RelationSpace

#: Layer-one (key expansion) and layer-two (ad retrieval) relations.
LAYER_ONE = (Relation.Q2Q, Relation.Q2I, Relation.I2Q, Relation.I2I)
LAYER_TWO = (Relation.Q2A, Relation.I2A)


def _json_clean(value):
    """Recursively keep only the JSON-serialisable parts of ``value``.

    Backend kwargs may contain non-serialisable entries (e.g. a class
    or factory passed as ``inner_backend``); those are dropped rather
    than failing the whole save.
    """
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            cleaned = _json_clean(item)
            if cleaned is not _DROP:
                out[str(key)] = cleaned
        return out
    if isinstance(value, (list, tuple)):
        return [item for item in (_json_clean(v) for v in value)
                if item is not _DROP]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return _DROP


_DROP = object()


@dataclasses.dataclass
class InvertedIndex:
    """key node id -> (top-K result ids, distances)."""

    relation: Relation
    ids: np.ndarray        # (N, K) result node ids
    distances: np.ndarray  # (N, K) ascending distances
    build_seconds: float

    def lookup(self, key: int, k: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Results for one key, optionally truncated to ``k``."""
        k = k if k is not None else self.ids.shape[1]
        return self.ids[key, :k], self.distances[key, :k]

    def lookup_batch(self, keys: np.ndarray, k: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows for many keys; whole rows (one contiguous ``take`` per
        array) when ``k`` is ``None``."""
        keys = np.asarray(keys, dtype=np.int64)
        if k is None:
            return self.ids.take(keys, 0), self.distances.take(keys, 0)
        return self.ids[keys, :k], self.distances[keys, :k]

    @property
    def num_keys(self) -> int:
        return self.ids.shape[0]


class IndexSet:
    """Builds and holds the six inverted indices for one model.

    Every index is constructed through a pluggable
    :class:`~repro.retrieval.backend.SearchBackend`, so the exact MNN
    search and approximate strategies (PQ, future ANN variants) share
    one build path.  A built set can be persisted with :meth:`save` and
    reloaded with :meth:`load` into a model-free serving artefact.

    Parameters
    ----------
    model:
        A trained :class:`~repro.models.amcad.AMCAD` (or any object
        exposing ``encode_all``/``scorer``/``graph``).  ``None`` only for
        sets restored via :meth:`load`, which serve lookups but cannot
        :meth:`build`.
    top_k:
        Results stored per key.
    num_workers:
        Retired (the exact backend's thread pool); any number is
        accepted and ignored.  Every build runs on the calling thread.
    backend:
        Backend spec — a registry name (``"exact"``, ``"pq"``), a
        :class:`SearchBackend` subclass, or a zero-argument factory.
    backend_kwargs:
        Constructor arguments forwarded when ``backend`` is a name or a
        class.
    """

    def __init__(self, model, top_k: int = 50,
                 num_workers: Optional[int] = None,
                 batch_size: int = 256, backend: BackendSpec = "exact",
                 backend_kwargs: Optional[dict] = None):
        if num_workers is not None:
            drop_retired_planes("index", {"num_workers": num_workers})
        if int(batch_size) < 1:
            raise ValueError("batch_size must be >= 1, got %d"
                             % int(batch_size))
        self.model = model
        self.top_k = int(top_k)
        self.batch_size = int(batch_size)
        kwargs = dict(backend_kwargs or {})
        self.backend_factory = resolve_backend_factory(backend, **kwargs)
        #: registry name the set was built through (``None`` for
        #: class/factory specs) — persisted by :meth:`save`
        self.backend_name: Optional[str] = (backend
                                            if isinstance(backend, str)
                                            else None)
        #: JSON-serialisable constructor arguments of the backend (ANN
        #: dials like ``nprobe``/``rerank_k``, shard layout, inner
        #: backend spec) — persisted by :meth:`save` so a reloaded set
        #: knows the dial it was built at
        self.backend_params: Dict[str, object] = _json_clean(kwargs)
        self.indices: Dict[Relation, InvertedIndex] = {}
        self.spaces: Dict[Relation, RelationSpace] = {}
        self.backends: Dict[Relation, SearchBackend] = {}
        #: per-relation target-shard ``[start, stop)`` bounds (sharded
        #: backends only); restored by :meth:`load`
        self.shard_bounds: Dict[Relation, list] = {}

    def build(self, relations: Optional[Sequence[Relation]] = None
              ) -> "IndexSet":
        """Construct indices for the given relations (default: all six).

        The relation-independent full-vocabulary encode is shared
        across the relations through one per-build cache — each node
        type is encoded once, not once per relation endpoint.
        """
        relations = list(relations or (LAYER_ONE + LAYER_TWO))
        encode_cache: dict = {}
        for relation in relations:
            self.build_one(relation, encode_cache=encode_cache)
        return self

    def build_one(self, relation: Relation,
                  encode_cache: Optional[dict] = None) -> InvertedIndex:
        """Build a single inverted index through the configured backend."""
        if self.model is None:
            raise RuntimeError("this IndexSet was loaded from disk and has "
                               "no model to build from")
        start = time.perf_counter()
        space = RelationSpace.from_model(self.model, relation,
                                         encode_cache=encode_cache)
        backend = self.backend_factory().build(space)
        same_type = relation.source_type == relation.target_type
        n_src = space.num_sources
        k = min(self.top_k, space.num_targets - (1 if same_type else 0))
        all_ids = np.zeros((n_src, k), dtype=np.int64)
        all_dists = np.zeros((n_src, k))
        for chunk_start in range(0, n_src, self.batch_size):
            chunk = np.arange(chunk_start,
                              min(chunk_start + self.batch_size, n_src))
            ids, dists = backend.search(chunk, k, exclude_self=same_type)
            all_ids[chunk] = ids
            all_dists[chunk] = dists
        elapsed = time.perf_counter() - start
        index = InvertedIndex(relation=relation, ids=all_ids,
                              distances=all_dists, build_seconds=elapsed)
        self.indices[relation] = index
        self.spaces[relation] = space
        self.backends[relation] = backend
        bounds = getattr(backend, "shard_bounds", None)
        if bounds:
            self.shard_bounds[relation] = [(int(a), int(b))
                                           for a, b in bounds]
        return index

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> pathlib.Path:
        """Write the built indices to one ``.npz`` (via :mod:`repro.io`)."""
        from repro.io import save_index_set  # local: io imports this module
        return save_index_set(self, path)

    @classmethod
    def load(cls, path) -> "IndexSet":
        """Reload indices written by :meth:`save`.

        The result serves lookups (and therefore the two-layer
        retriever) without any model object in scope; only
        :meth:`build` is unavailable.  Shard-aware: the backend name
        and per-relation shard bounds recorded by :meth:`save` are
        restored, so a serving process knows the shard layout its
        indices were built over.
        """
        from repro.io import load_index_set  # local: io imports this module
        stored = load_index_set(path)
        index_set = cls(model=None, backend=stored.backend or "exact",
                        backend_kwargs=stored.backend_params)
        index_set.backend_name = stored.backend
        index_set.backend_params = dict(stored.backend_params)
        index_set.indices = dict(stored.indices)
        index_set.shard_bounds = dict(stored.shard_bounds)
        if index_set.indices:
            index_set.top_k = max(ix.ids.shape[1]
                                  for ix in index_set.indices.values())
        return index_set

    def __getitem__(self, relation: Relation) -> InvertedIndex:
        return self.indices[relation]

    def __contains__(self, relation: Relation) -> bool:
        return relation in self.indices

    @property
    def total_build_seconds(self) -> float:
        return float(np.sum([ix.build_seconds for ix in self.indices.values()]))
