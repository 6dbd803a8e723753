"""Euclidean k-means and the recall measure of the ANN search.

:func:`_kmeans` (Lloyd's iterations) and :func:`assign_to_centroids`
(blocked nearest-centroid assignment) are the coarse quantiser that
:class:`~repro.retrieval.ann.IVFBackend` partitions the flat
``logmap0`` tangent space with; :func:`recall_at_k` scores any
approximate top-k against the exact one.

Product quantisation (Jégou et al., the paper's ref. [31]) is not a
search backend.  Paper §IV-C-1: *"the similarity between two nodes in
our approach is calculated based on the attention mechanism, which is
more complex and hard to directly use traditional nearest neighbor
search approach such as product quantification"* — which is why AMCAD
ships the exact MNN search instead.  ``benchmarks/bench_pq_vs_mnn.py``
measures that recall gap against the PQ baseline in
``tests/reference/pq.py``.
"""

from __future__ import annotations

from typing import Optional

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


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray,
                k: int) -> float:
    """Mean fraction of the exact top-k recovered by the approximate top-k."""
    hits = 0
    for approx_row, exact_row in zip(approx_ids, exact_ids):
        hits += len(set(approx_row[:k].tolist())
                    & set(exact_row[:k].tolist()))
    return hits / (approx_ids.shape[0] * k)
