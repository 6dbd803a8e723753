"""Product quantisation (PQ) — the traditional ANN recall baseline.

Classic PQ (Jégou et al., the paper's ref. [31]): :class:`PQIndex`
quantises vectors into per-block codebooks and answers queries with
asymmetric distance computation (ADC) over Euclidean distance.  It is
exactly the tool that works well for flat dot-product/L2 retrieval and
structurally cannot express the per-pair attention-weighted sum of
geodesic subspace distances, which is why it is no search backend.
``benchmarks/bench_pq_vs_mnn.py`` fits it on the concatenated target
embeddings of one relation and measures its recall against the true
metric (paper §IV-C-1).  Its codebooks are trained with the IVF coarse
quantiser's own k-means.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.retrieval.quantization import _kmeans, assign_to_centroids


@dataclasses.dataclass
class PQIndex:
    """Product-quantisation index with asymmetric distance computation.

    Parameters
    ----------
    num_blocks:
        How many sub-vectors each vector is split into (M in PQ papers).
    codebook_size:
        Centroids per block (k*; 256 in the classic setup, smaller here).
    """

    num_blocks: int = 4
    codebook_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self._codebooks: Optional[np.ndarray] = None  # (blocks, k, block_dim)
        self._codes: Optional[np.ndarray] = None      # (n, blocks) uint8
        self._dim = 0
        self._block_dim = 0

    # -- build -------------------------------------------------------------

    def fit(self, vectors: np.ndarray) -> "PQIndex":
        """Train per-block codebooks and encode the database."""
        vectors = np.asarray(vectors, dtype=np.float64)
        n, dim = vectors.shape
        if dim % self.num_blocks != 0:
            raise ValueError("dim %d not divisible into %d blocks"
                             % (dim, self.num_blocks))
        self._dim = dim
        self._block_dim = dim // self.num_blocks
        rng = np.random.default_rng(self.seed)
        codebooks = []
        codes = np.zeros((n, self.num_blocks), dtype=np.int64)
        for b in range(self.num_blocks):
            block = vectors[:, b * self._block_dim:(b + 1) * self._block_dim]
            centroids = _kmeans(rng, block, self.codebook_size)
            codebooks.append(centroids)
            codes[:, b] = assign_to_centroids(block, centroids)
        # pad codebooks to a common size for stacking
        k_max = max(c.shape[0] for c in codebooks)
        stacked = np.full((self.num_blocks, k_max, self._block_dim), np.inf)
        for b, c in enumerate(codebooks):
            stacked[b, :c.shape[0]] = c
        self._codebooks = stacked
        self._codes = codes
        return self

    @property
    def is_fitted(self) -> bool:
        return self._codes is not None

    @property
    def num_vectors(self) -> int:
        return 0 if self._codes is None else self._codes.shape[0]

    def compression_ratio(self) -> float:
        """Stored bytes of raw float64 vectors vs PQ codes."""
        raw = self._dim * 8
        coded = self.num_blocks  # one byte per block at k<=256
        return raw / coded

    # -- query ---------------------------------------------------------------

    def _adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """Asymmetric distance lookup tables, ``(q, blocks, k)``."""
        q = queries.shape[0]
        tables = np.empty((q, self.num_blocks, self._codebooks.shape[1]))
        for b in range(self.num_blocks):
            block = queries[:, b * self._block_dim:(b + 1) * self._block_dim]
            diff = block[:, None, :] - self._codebooks[b][None, :, :]
            with np.errstate(invalid="ignore"):
                tables[:, b] = np.square(diff).sum(axis=-1)
        return tables

    def search(self, queries: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` by quantised Euclidean distance."""
        if not self.is_fitted:
            raise RuntimeError("call fit() before search()")
        queries = np.asarray(queries, dtype=np.float64)
        tables = self._adc_tables(queries)                  # (q, B, k*)
        # gather per-database-vector distances from the tables
        q = queries.shape[0]
        scores = np.zeros((q, self.num_vectors))
        for b in range(self.num_blocks):
            scores += tables[:, b, :][:, self._codes[:, b]]
        k = min(k, self.num_vectors)
        top = np.argpartition(scores, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(q)[:, None]
        order = np.argsort(scores[rows, top], axis=1)
        ids = top[rows, order]
        return ids, scores[rows, ids]
