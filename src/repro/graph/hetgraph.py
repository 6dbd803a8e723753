"""In-memory heterogeneous graph with CSR adjacency.

Replaces the Euler distributed graph engine at laptop scale.  The graph
stores, per node type, a contiguous index range, a category id per node
and sparse feature fields (paper Table IV); and, per
``(source type, edge type, target type)`` triple, a CSR adjacency with
edge weights.  Merged per-target-type CSRs support the GCN context
encoder's typed neighbour aggregation (paper Eq. 5).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.alias import CSRAliasTables
from repro.graph.category import CategoryTree
from repro.graph.schema import EdgeType, NodeType

AdjKey = Tuple[NodeType, EdgeType, NodeType]


class CategoryPools(NamedTuple):
    """Array view of one node type grouped by category.

    ``order[start[c]:start[c] + count[c]]`` are the nodes of category
    ``c``; ``rank[v]`` is node ``v``'s position inside its own pool.
    The hard-negative sampler uses this to draw same-category nodes
    (excluding the positive) with one ``rng`` call per batch.
    """

    order: np.ndarray
    start: np.ndarray
    count: np.ndarray
    rank: np.ndarray


class _CSR:
    """Compressed sparse rows: ``indices[indptr[i]:indptr[i+1]]``."""

    __slots__ = ("indptr", "indices", "weights", "_weight_prefix")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._weight_prefix: Optional[np.ndarray] = None

    @property
    def weight_prefix(self) -> np.ndarray:
        """``[0, w0, w0+w1, …]`` — the inverse-CDF table for sampling."""
        if self._weight_prefix is None:
            self._weight_prefix = np.concatenate(
                [[0.0], np.cumsum(self.weights)])
        return self._weight_prefix

    @classmethod
    def from_edges(cls, num_rows: int, src: np.ndarray, dst: np.ndarray,
                   weights: np.ndarray) -> "_CSR":
        order = np.argsort(src, kind="stable")
        src, dst, weights = src[order], dst[order], weights[order]
        counts = np.bincount(src, minlength=num_rows)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(indptr, dst.astype(np.int64), weights.astype(np.float64))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


class HetGraph:
    """The query-item-ad interaction graph ``G = (V, E)``.

    Parameters
    ----------
    num_nodes:
        Node count per :class:`NodeType`.
    categories:
        Per-type array of category-tree leaf ids, one per node.
    features:
        Per-type mapping ``field name -> int array``; arrays are either
        ``(n,)`` single-valued ids or ``(n, k)`` multi-slot ids (e.g.
        title terms) padded with ``-1``.
    category_tree:
        The taxonomy used for positive filtering / negative mining.
    """

    def __init__(self, num_nodes: Dict[NodeType, int],
                 categories: Dict[NodeType, np.ndarray],
                 features: Dict[NodeType, Dict[str, np.ndarray]],
                 category_tree: CategoryTree):
        self.num_nodes = {t: int(num_nodes.get(t, 0)) for t in NodeType}
        self.categories = {t: np.asarray(categories[t], dtype=np.int64)
                           for t in categories}
        self.features = features
        self.category_tree = category_tree
        self._adj: Dict[AdjKey, _CSR] = {}
        self._merged: Dict[Tuple[NodeType, NodeType], _CSR] = {}
        self._alias: Dict[AdjKey, CSRAliasTables] = {}
        self._pools: Dict[NodeType, CategoryPools] = {}
        for node_type, cats in self.categories.items():
            if cats.shape[0] != self.num_nodes[node_type]:
                raise ValueError("category array for %s has %d rows, expected %d"
                                 % (node_type, cats.shape[0], self.num_nodes[node_type]))

    # -- construction ------------------------------------------------------

    def add_edges(self, src_type: NodeType, edge_type: EdgeType,
                  dst_type: NodeType, src: np.ndarray, dst: np.ndarray,
                  weights: Optional[np.ndarray] = None,
                  symmetric: bool = False) -> None:
        """Register an edge list; ``symmetric`` also adds the reverse.

        Duplicate (src, dst) pairs are coalesced by summing weights,
        matching the behaviour-count semantics of the log builder.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if weights is None:
            weights = np.ones(src.size, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (src.size == dst.size == weights.size):
            raise ValueError("src/dst/weights size mismatch")
        self._insert(src_type, edge_type, dst_type, src, dst, weights)
        if symmetric:
            self._insert(dst_type, edge_type, src_type, dst, src, weights)
        self._merged.clear()
        self._alias.clear()

    def _insert(self, src_type: NodeType, edge_type: EdgeType,
                dst_type: NodeType, src: np.ndarray, dst: np.ndarray,
                weights: np.ndarray) -> None:
        key = (src_type, edge_type, dst_type)
        n_src = self.num_nodes[src_type]
        n_dst = self.num_nodes[dst_type]
        if src.size and (src.min() < 0 or src.max() >= n_src):
            raise ValueError("source index out of range for %s" % (key,))
        if dst.size and (dst.min() < 0 or dst.max() >= n_dst):
            raise ValueError("target index out of range for %s" % (key,))
        if key in self._adj:
            old = self._adj[key]
            old_src = np.repeat(np.arange(n_src), np.diff(old.indptr))
            src = np.concatenate([old_src, src])
            dst = np.concatenate([old.indices, dst])
            weights = np.concatenate([old.weights, weights])
        # coalesce duplicates
        pair_key = src * n_dst + dst
        unique, inverse = np.unique(pair_key, return_inverse=True)
        merged_w = np.zeros(unique.size, dtype=np.float64)
        np.add.at(merged_w, inverse, weights)
        merged_src = (unique // n_dst).astype(np.int64)
        merged_dst = (unique % n_dst).astype(np.int64)
        self._adj[key] = _CSR.from_edges(n_src, merged_src, merged_dst, merged_w)

    # -- inspection ---------------------------------------------------------

    @property
    def adjacency_keys(self) -> List[AdjKey]:
        return list(self._adj.keys())

    def num_edges(self, src_type: Optional[NodeType] = None,
                  edge_type: Optional[EdgeType] = None,
                  dst_type: Optional[NodeType] = None) -> int:
        """Total stored directed edges matching the optional filters."""
        total = 0
        for (s, e, d), csr in self._adj.items():
            if src_type is not None and s != src_type:
                continue
            if edge_type is not None and e != edge_type:
                continue
            if dst_type is not None and d != dst_type:
                continue
            total += csr.nnz
        return total

    def _merged_csr(self, src_type: NodeType, dst_type: NodeType) -> _CSR:
        """Union of all edge types between two node types (cached)."""
        key = (src_type, dst_type)
        if key not in self._merged:
            srcs, dsts, ws = [], [], []
            n_src = self.num_nodes[src_type]
            for (s, e, d), csr in self._adj.items():
                if s != src_type or d != dst_type:
                    continue
                srcs.append(np.repeat(np.arange(n_src), np.diff(csr.indptr)))
                dsts.append(csr.indices)
                ws.append(csr.weights)
            if srcs:
                src = np.concatenate(srcs)
                dst = np.concatenate(dsts)
                w = np.concatenate(ws)
            else:
                src = np.empty(0, dtype=np.int64)
                dst = np.empty(0, dtype=np.int64)
                w = np.empty(0)
            self._merged[key] = _CSR.from_edges(n_src, src, dst, w)
        return self._merged[key]

    def sample_neighbors(self, rng: np.random.Generator, src_type: NodeType,
                         indices: np.ndarray, dst_type: NodeType,
                         k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``k`` neighbours of type ``dst_type`` for each source.

        Returns ``(neighbour_ids, mask)`` of shape ``(len(indices), k)``;
        rows with no neighbours are padded with 0 and masked out.
        Sampling is with replacement, proportional to edge weight — the
        stochastic analogue of Eq. 5's mean aggregation.

        Vectorised over the whole batch: one uniform block scaled by
        each row's total weight, inverted through the CSR's cached
        cumulative-weight prefix with a single ``searchsorted`` — no
        per-row python work, which matters because the encode-plan
        sampling phase calls this for every frontier level.
        """
        indices = np.asarray(indices, dtype=np.int64)
        csr = self._merged_csr(src_type, dst_type)
        out = np.zeros((indices.size, k), dtype=np.int64)
        mask = np.zeros((indices.size, k), dtype=np.float64)
        if indices.size == 0 or csr.nnz == 0:
            return out, mask
        prefix = csr.weight_prefix
        lo = csr.indptr[indices]
        hi = csr.indptr[indices + 1]
        totals = prefix[hi] - prefix[lo]
        # a row whose weights sum to zero has no samplable neighbour:
        # treat it like degree 0 (all-masked) instead of emitting an
        # edge whose sampling probability is 0
        valid = (hi > lo) & (totals > 0)
        if not np.any(valid):
            return out, mask
        # inverse CDF: u ~ U[prefix[lo], prefix[hi]) per draw, located in
        # the global prefix and clipped back into the row's own range
        u = prefix[lo][:, None] + rng.random((indices.size, k)) * totals[:, None]
        picks = np.searchsorted(prefix, u, side="right") - 1
        picks = np.clip(picks, lo[:, None], (hi - 1)[:, None])
        out[valid] = csr.indices[picks[valid]]
        mask[valid] = 1.0
        return out, mask

    def alias_tables(self, src_type: NodeType, edge_type: EdgeType,
                     dst_type: NodeType) -> Optional[CSRAliasTables]:
        """Per-row alias tables of one adjacency, built once per graph.

        ``None`` when the graph has no such adjacency.  The cache is
        invalidated by :meth:`add_edges`.
        """
        key = (src_type, edge_type, dst_type)
        csr = self._adj.get(key)
        if csr is None:
            return None
        tables = self._alias.get(key)
        if tables is None:
            tables = CSRAliasTables(csr.indptr, csr.indices, csr.weights)
            self._alias[key] = tables
        return tables

    def category_pools(self, node_type: NodeType) -> CategoryPools:
        """Nodes of a type grouped by category as flat arrays (cached)."""
        pools = self._pools.get(node_type)
        if pools is None:
            cats = self.categories[node_type]
            order = np.argsort(cats, kind="stable").astype(np.int64)
            count = np.bincount(cats, minlength=len(self.category_tree)
                                ).astype(np.int64)
            start = (np.cumsum(count) - count).astype(np.int64)
            rank = np.empty(cats.size, dtype=np.int64)
            rank[order] = np.arange(cats.size) - start[cats[order]]
            pools = CategoryPools(order, start, count, rank)
            self._pools[node_type] = pools
        return pools

    def degree(self, node_type: NodeType, dst_type: Optional[NodeType] = None
               ) -> np.ndarray:
        """Out-degree per node, optionally restricted to a target type."""
        total = np.zeros(self.num_nodes[node_type], dtype=np.int64)
        for (s, e, d), csr in self._adj.items():
            if s != node_type:
                continue
            if dst_type is not None and d != dst_type:
                continue
            total += np.diff(csr.indptr)
        return total

    def stats(self) -> Dict[str, int]:
        """Node/edge counts in the shape of paper Table V."""
        return {
            "queries": self.num_nodes[NodeType.QUERY],
            "items": self.num_nodes[NodeType.ITEM],
            "ads": self.num_nodes[NodeType.AD],
            "edges": self.num_edges(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return ("HetGraph(queries=%(queries)d, items=%(items)d, "
                "ads=%(ads)d, edges=%(edges)d)" % s)
