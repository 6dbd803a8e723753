"""Retrieval system: pluggable backends, inverted indices, two-layer serving.

Reproduces the deployment half of AMCAD (paper §IV-C, Fig. 6):

- :mod:`repro.retrieval.mnn` — the :class:`RelationSpace` every
  Mixed-curvature Nearest Neighbour search runs over: projected
  embeddings, precomputed node weights and edge curvatures per
  relation;
- :mod:`repro.retrieval.backend` — the :class:`SearchBackend` seam all
  search strategies plug into (:class:`ExactBackend`, the MNN search
  itself: the paper notes product quantisation cannot handle the
  attention-weighted metric, so MNN is exact brute force distributed
  over workers with data-level (OpenMP) and instruction-level (SIMD)
  parallelism; here that is blocked numpy (vector units) on one
  thread, with block results streamed into a bounded top-k merge;
  :class:`ShardedBackend` partitioning the target space over per-shard
  inner backends with an exact top-k merge);
- :mod:`repro.retrieval.ann` — the pruned ANN backend over the same
  metric (:class:`IVFBackend` inverted-file lists): coarse candidate
  generation in the flat ``logmap0`` tangent space, exact re-rank with
  the attention-weighted manifold metric — the recall/latency dial the
  exact search lacks;
- :mod:`repro.retrieval.quantization` — IVF's k-means coarse quantiser
  and ``recall_at_k`` (product quantisation is not a backend, only the
  recall baseline of ``benchmarks/bench_pq_vs_mnn.py``);
- :mod:`repro.retrieval.index` — the six inverted indices
  (Q2Q/Q2I/I2Q/I2I/Q2A/I2A) built offline through a backend factory,
  with ``save``/``load`` persistence for model-free serving;
- :mod:`repro.retrieval.two_layer` — the two-layer online retrieval
  framework: layer 1 expands the query and pre-click items into related
  keys, layer 2 retrieves ads through the key→ad indices; the hot path
  is the vectorised ``retrieve_batch``.

The online serving pieces (micro-batching engine, Erlang-C simulator)
live in :mod:`repro.serving`.
"""

from repro.retrieval.backend import (
    BACKENDS,
    ExactBackend,
    SearchBackend,
    ShardedBackend,
    make_backend,
    resolve_backend_factory,
)
from repro.retrieval.ann import IVFBackend
from repro.retrieval.mnn import RelationSpace
from repro.retrieval.index import IndexSet, InvertedIndex
from repro.retrieval.two_layer import (
    BatchExpansion,
    KeyExpansion,
    RetrievalResult,
    TwoLayerRetriever,
)
from repro.serving.simulator import ServingSimulator, ServingStats

__all__ = [
    "BACKENDS",
    "SearchBackend",
    "ExactBackend",
    "ShardedBackend",
    "IVFBackend",
    "make_backend",
    "resolve_backend_factory",
    "RelationSpace",
    "InvertedIndex",
    "IndexSet",
    "BatchExpansion",
    "KeyExpansion",
    "TwoLayerRetriever",
    "RetrievalResult",
    "ServingSimulator",
    "ServingStats",
]
