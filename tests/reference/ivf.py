"""IVF pruned search one query at a time, from the build's own lists.

The semantic baseline ``IVFBackend.search`` (list-major float32 scan
into a list-tagged pool, ids resolved for the survivors only, shared
re-rank tail) is asserted against: per query, rank the lists by
centroid distance, take the probed lists' members in list order, keep
the ``rerank_k`` nearest under the same float32 norm-trick tangent
distance and sort them by the true metric through
``RelationSpace.pair_distance``.
"""

from typing import Tuple

import numpy as np

from repro.retrieval.ann import IVFBackend


def ivf_search_looped(backend: IVFBackend, src_indices, k: int,
                      exclude_self: bool = False
                      ) -> Tuple[np.ndarray, np.ndarray]:
    space = backend.space
    k, same = backend._clamp_k(space, k, exclude_self)
    fetch = min(k + 1, space.num_targets) if same else k
    sizes = np.diff(backend._offsets)
    all_ids, all_dists = [], []
    for src in np.asarray(src_indices):
        q = backend._src_tangent[src]
        cdist = ((backend._centroids - q) ** 2).sum(axis=1)
        order = np.argsort(cdist, kind="stable")
        probes = backend.nprobe
        while sizes[order[:probes]].sum() < fetch:
            probes += 1
        pool = np.concatenate([
            backend._grouped_ids[backend._offsets[l]:backend._offsets[l + 1]]
            for l in sorted(order[:probes])])
        if backend.rerank_k > 0:
            # the scan's float32 norm-trick distance
            q32 = q.astype(np.float32)
            t32 = backend._dst_tangent[pool].astype(np.float32)
            d2 = t32 @ (-2.0 * q32) + (np.sum(q32 * q32)
                                       + np.sum(t32 * t32, axis=1))
            keep = max(backend.rerank_k, fetch)
            pool = pool[np.argsort(d2, kind="stable")[:keep]]
        if same:
            pool = pool[pool != src]
        dists = space.pair_distance(np.full(pool.size, src), pool)
        top = np.argsort(dists, kind="stable")[:k]
        all_ids.append(pool[top])
        all_dists.append(dists[top])
    return np.stack(all_ids), np.stack(all_dists)
