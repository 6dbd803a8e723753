"""Product quantization (PQ) — the traditional ANN baseline.

Paper §IV-C-1: *"the similarity between two nodes in our approach is
calculated based on the attention mechanism, which is more complex and
hard to directly use traditional nearest neighbor search approach such
as product quantification"* — which is why AMCAD ships the exact MNN
search instead.

This module implements classic PQ (Jégou et al., the paper's ref. [31])
so that claim can be *measured*: a :class:`PQIndex` quantises vectors
into per-block codebooks and answers queries with asymmetric distance
computation (ADC) over Euclidean distance.  It is exactly the tool that
works well for flat dot-product/L2 retrieval and structurally cannot
express the per-pair attention-weighted sum of geodesic subspace
distances; ``benchmarks/bench_pq_vs_mnn.py`` quantifies the recall gap.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


#: float64 elements allowed in one ``(rows, k)`` distance block — bounds
#: the peak memory of :func:`assign_to_centroids` at ~32 MB
_ASSIGN_BLOCK_ELEMENTS = 2 ** 22


def assign_to_centroids(data: np.ndarray, centroids: np.ndarray,
                        block_rows: Optional[int] = None) -> np.ndarray:
    """Nearest-centroid assignment by squared Euclidean distance.

    ``argmin_j ‖x - c_j‖²`` is ``argmin_j (‖c_j‖² - 2 x·c_j)`` — the
    ``‖x‖²`` term is constant along a row — so one block of rows costs
    one BLAS matmul and its ``(rows, k)`` product is the only temporary:
    no ``(rows, k, dim)`` broadcast exists at any catalog size.  The
    product of a row does not depend on which block the row falls in,
    so every ``block_rows`` gives the same assignments; against the
    elementwise ``((x - c) ** 2).sum()`` they can differ only between
    centroids whose distances agree to rounding.
    """
    n = data.shape[0]
    k = centroids.shape[0]
    if block_rows is None:
        block_rows = max(1, _ASSIGN_BLOCK_ELEMENTS // max(k, 1))
    minus_2ct = -2.0 * centroids.T
    c_norm2 = np.sum(centroids * centroids, axis=1)
    assign = np.empty(n, dtype=np.int64)
    buffer = np.empty((min(block_rows, n), k))
    for start in range(0, n, block_rows):
        chunk = data[start:start + block_rows]
        scores = np.matmul(chunk, minus_2ct, out=buffer[:chunk.shape[0]])
        scores += c_norm2
        assign[start:start + block_rows] = np.argmin(scores, axis=1)
    return assign


def _kmeans(rng: np.random.Generator, data: np.ndarray, k: int,
            iterations: int = 12) -> np.ndarray:
    """Lightweight Lloyd's k-means returning ``(k, dim)`` centroids."""
    n, dim = data.shape
    k = min(k, n)
    picks = rng.choice(n, size=k, replace=False)
    centroids = data[picks].copy()
    for _ in range(iterations):
        assign = assign_to_centroids(data, centroids)
        counts = np.bincount(assign, minlength=k)
        # per-dimension weighted bincount: one pass over the rows per
        # dimension instead of one boolean mask over them per cluster
        sums = np.stack([np.bincount(assign, weights=data[:, d], minlength=k)
                         for d in range(dim)], axis=1)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        # re-seed empty clusters, drawing in cluster order so the build
        # stays a function of the rng state
        for j in np.nonzero(~filled)[0]:
            centroids[j] = data[int(rng.integers(n))]
    return centroids


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


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray,
                k: int) -> float:
    """Mean fraction of the exact top-k recovered by the approximate top-k."""
    hits = 0
    for approx_row, exact_row in zip(approx_ids, exact_ids):
        hits += len(set(approx_row[:k].tolist())
                    & set(exact_row[:k].tolist()))
    return hits / (approx_ids.shape[0] * k)
