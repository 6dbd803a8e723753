"""Persistence for trained models and built indices.

The deployed system trains offline, ships embeddings to index builders
and serves from stored indices (paper Fig. 3); this module provides the
laptop equivalent: ``.npz``-based save/load with a JSON config header.

Model checkpoints store the configuration plus one array per subspace
of every parameter (:meth:`~repro.models.amcad.AMCAD.checkpoint_arrays`)
in deterministic construction order, so loading requires only the same
graph (the entity universe defines the table shapes):

    save_model(model, "amcad.npz")
    model = load_model("amcad.npz", graph)

Index sets serialise each relation's key→results arrays and reload
into a lightweight read-only object that serves the two-layer
retriever without the model.  Ids go to disk in the narrowest unsigned
dtype that holds them and are widened back to ``int64`` on load; every
archive is stored, not deflated (:func:`repro.common.atomic_savez`
says why).  Files published before either change (deflated, ``int64``
ids) load through the same ``np.load``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, Union

import numpy as np

from repro.common import atomic_savez, current_backend, drop_retired_planes
from repro.graph.hetgraph import HetGraph
from repro.graph.schema import Relation
from repro.models.amcad import AMCAD, AMCADConfig
from repro.retrieval.index import IndexSet, InvertedIndex

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def save_model(model: AMCAD, path: PathLike) -> pathlib.Path:
    """Write an AMCAD checkpoint (config JSON + parameter arrays)."""
    path = pathlib.Path(path)
    stored = model.checkpoint_arrays()
    arrays = {"param_%06d" % i: a for i, a in enumerate(stored)}
    header = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "num_parameters": len(stored),
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    return atomic_savez(path, arrays)


def load_model(path: PathLike, graph: HetGraph) -> AMCAD:
    """Rebuild a model over ``graph`` and restore its parameters.

    The graph must come from the same entity universe the checkpoint
    was trained on (feature-table shapes are derived from it).
    """
    path = pathlib.Path(path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        if header["format_version"] != _FORMAT_VERSION:
            raise ValueError("unsupported checkpoint version %r"
                             % header["format_version"])
        # checkpoints published before the encoder planes were retired
        # carry the surviving plane by name
        config = AMCADConfig(**drop_retired_planes("model", header["config"]))
        model = AMCAD(graph, config)
        views = model.checkpoint_arrays()
        if len(views) != header["num_parameters"]:
            raise ValueError(
                "checkpoint has %d parameters but the rebuilt model has %d "
                "— was it saved for a different graph/universe?"
                % (header["num_parameters"], len(views)))
        for i, view in enumerate(views):
            stored = archive["param_%06d" % i]
            if stored.shape != view.shape:
                raise ValueError(
                    "parameter %d shape mismatch: checkpoint %r vs model %r"
                    % (i, stored.shape, view.shape))
            view[...] = stored
    return model


def _narrow_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` in the smallest unsigned dtype that holds every value."""
    if ids.size == 0 or int(ids.min()) < 0:
        return ids
    return ids.astype(np.min_scalar_type(int(ids.max())))


def save_index_set(index_set: IndexSet, path: PathLike) -> pathlib.Path:
    """Write all built inverted indices to one stored ``.npz`` file.

    Shard-aware: the backend registry name and per-relation target
    shard bounds (sharded backends) ride along in the JSON header, so a
    reloaded set knows the layout it was built over without the model
    or backend objects.
    """
    path = pathlib.Path(path)
    arrays: Dict[str, np.ndarray] = {}
    relations = []
    for relation, index in index_set.indices.items():
        key = relation.value
        relations.append(key)
        arrays["ids_%s" % key] = _narrow_ids(index.ids)
        arrays["dists_%s" % key] = index.distances
    header = {"format_version": _FORMAT_VERSION, "relations": relations}
    backend_name = getattr(index_set, "backend_name", None)
    if backend_name is not None:
        header["backend"] = backend_name
    backend_params = getattr(index_set, "backend_params", None)
    if backend_params:
        header["backend_params"] = backend_params
    shard_bounds = {
        relation.value: [[int(a), int(b)] for a, b in bounds]
        for relation, bounds in getattr(index_set, "shard_bounds",
                                        {}).items()}
    if shard_bounds:
        header["shard_bounds"] = shard_bounds
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    return atomic_savez(path, arrays)


class StoredIndexSet:
    """Read-only index set reloaded from disk.

    Provides the mapping interface the two-layer retriever uses
    (``__getitem__`` / ``__contains__``) without needing the model,
    plus the backend metadata recorded at save time (``backend``,
    ``backend_params`` — ANN dials, shard layout — and
    ``shard_bounds``).
    """

    def __init__(self, indices: Dict[Relation, InvertedIndex],
                 backend: str = None,
                 shard_bounds: Dict[Relation, list] = None,
                 backend_params: Dict[str, object] = None):
        self.indices = indices
        self.backend = backend
        self.shard_bounds = dict(shard_bounds or {})
        self.backend_params = dict(backend_params or {})

    def __getitem__(self, relation: Relation) -> InvertedIndex:
        return self.indices[relation]

    def __contains__(self, relation: Relation) -> bool:
        return relation in self.indices


def load_index_set(path: PathLike) -> StoredIndexSet:
    """Reload indices written by :func:`save_index_set`."""
    path = pathlib.Path(path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        if header["format_version"] != _FORMAT_VERSION:
            raise ValueError("unsupported index version %r"
                             % header["format_version"])
        indices = {}
        for key in header["relations"]:
            relation = Relation(key)
            indices[relation] = InvertedIndex(
                relation=relation,
                ids=archive["ids_%s" % key].astype(np.int64, copy=False),
                distances=archive["dists_%s" % key],
                build_seconds=0.0)
    shard_bounds = {Relation(key): [(int(a), int(b)) for a, b in bounds]
                    for key, bounds in header.get("shard_bounds",
                                                  {}).items()}
    return StoredIndexSet(indices,
                          backend=current_backend(header.get("backend")),
                          shard_bounds=shard_bounds,
                          backend_params=header.get("backend_params"))
