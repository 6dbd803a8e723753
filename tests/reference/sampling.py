"""Meta-path walks and negative sampling one pair at a time.

The semantic baseline ``MetaPathWalker.sample_pair_blocks`` and
``NegativeSampler.sample_arrays`` are tested against: a walk is a loop
of weighted ``rng.choice`` steps, and a pair's negatives are scalar
alias draws with a retry loop, so what §IV-A-2 asks of a positive pair
and its negatives is readable off the code.  A pair is
``(relation, src index, dst index)``.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import HetGraph, MetaPath, NegativeSampler
from repro.graph.metapath import TABLE_III_META_PATHS
from repro.graph.schema import EdgeType, NodeType, Relation, relation_of

Pair = Tuple[Relation, int, int]


def neighbors(graph: HetGraph, node_type: NodeType, index: int,
              edge_type: Optional[EdgeType] = None,
              dst_type: Optional[NodeType] = None
              ) -> Tuple[np.ndarray, np.ndarray, List[NodeType]]:
    """Neighbour ids, edge weights and neighbour types of one node."""
    ids, weights, types = [], [], []
    for (s, e, d), csr in graph._adj.items():
        if s != node_type or edge_type not in (None, e) \
                or dst_type not in (None, d):
            continue
        lo, hi = csr.indptr[index], csr.indptr[index + 1]
        ids.append(csr.indices[lo:hi])
        weights.append(csr.weights[lo:hi])
        types.extend([d] * int(hi - lo))
    if not ids:
        return np.empty(0, dtype=np.int64), np.empty(0), []
    return np.concatenate(ids), np.concatenate(weights), types


def walk(graph: HetGraph, rng: np.random.Generator, path: MetaPath,
         start: Optional[int] = None) -> Optional[List[int]]:
    """One walk along ``path`` as node indices; None on a dead end.

    Without ``start`` it starts uniformly at a node with an edge of the
    first step (None when there is none).
    """
    if start is None:
        edge_type, dst_type = path.steps[0]
        csr = graph._adj.get((path.start, edge_type, dst_type))
        pool = (np.flatnonzero(np.diff(csr.indptr) > 0) if csr is not None
                else np.empty(0, dtype=np.int64))
        if pool.size == 0:
            return None
        start = int(pool[rng.integers(pool.size)])
    trail = [start]
    node_type = path.start
    for edge_type, dst_type in path.steps:
        ids, weights, _ = neighbors(graph, node_type, trail[-1],
                                    edge_type, dst_type)
        if ids.size == 0:
            return None
        trail.append(int(rng.choice(ids, p=weights / weights.sum())))
        node_type = dst_type
    return trail


def sample_pairs(graph: HetGraph, rng: np.random.Generator, num_walks: int,
                 meta_paths: Sequence[MetaPath] = TABLE_III_META_PATHS,
                 enforce_category: bool = True) -> List[Pair]:
    """``num_walks`` walks cycling the paths; each pairs its start with
    every later node of another node, a known relation and (with
    ``enforce_category``) a category on the start's root path."""
    tree = graph.category_tree
    pairs: List[Pair] = []
    for i in range(num_walks):
        path = meta_paths[i % len(meta_paths)]
        trail = walk(graph, rng, path)
        if trail is None:
            continue
        anchor = trail[0]
        anchor_cat = int(graph.categories[path.start][anchor])
        for node, (_edge, node_type) in zip(trail[1:], path.steps):
            if node_type == path.start and node == anchor:
                continue
            if enforce_category:
                cat = int(graph.categories[node_type][node])
                if tree.lowest_common_ancestor(anchor_cat, cat) not in (
                        anchor_cat, cat):
                    continue
            try:
                relation = relation_of(path.start, node_type)
            except (KeyError, ValueError):
                continue
            pairs.append((relation, anchor, node))
    return pairs


def _easy(rng: np.random.Generator, sampler, cats: np.ndarray,
          category: int, count: int) -> List[int]:
    """Degree-weighted draws outside ``category``, 50 tries a negative;
    a graph with too few such nodes keeps its last draws."""
    out: List[int] = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        idx = sampler.sample(rng)
        attempts += 1
        if int(cats[idx]) != category:
            out.append(idx)
    while len(out) < count:
        out.append(sampler.sample(rng))
    return out


def sample_negatives(negative_sampler: NegativeSampler,
                     rng: np.random.Generator,
                     pairs: Sequence[Pair]) -> np.ndarray:
    """``(len(pairs), K)`` negatives of the target type, easy ones first.

    Hard ones are uniform over the positive's category minus the
    positive, or easy draws when the positive is alone in it.
    """
    graph = negative_sampler.graph
    n_easy, n_hard = negative_sampler._split
    rows = []
    for relation, _src, dst in pairs:
        node_type = relation.target_type
        cats = graph.categories[node_type]
        sampler = negative_sampler._global_samplers[node_type]
        category = int(cats[dst])
        easy = _easy(rng, sampler, cats, category, n_easy)
        pools = graph.category_pools(node_type)
        first = pools.start[category]
        pool = pools.order[first:first + pools.count[category]]
        pool = pool[pool != dst]
        if pool.size == 0:
            hard = _easy(rng, sampler, cats, -1, n_hard)
        else:
            hard = [int(pool[p]) for p in rng.integers(pool.size, size=n_hard)]
        rows.append(easy + hard)
    return np.array(rows, dtype=np.int64).reshape(
        len(rows), negative_sampler.num_negatives)
