"""Meta-path guided random walks and positive-pair extraction.

Implements paper §IV-A-2 and Table III: six meta-paths over the
heterogeneous graph, each a short typed walk whose visited nodes give
positive pairs ``<start, later>`` via a sliding window.  Positive pairs
must share a category (paper: "we also require the sampled positive
node pairs to be in the same category"); for queries whose category is
an internal tree node, "same" means one category lies on the other's
root path.

Walks run in blocks: every walk of a meta-path advances one level per
batched alias draw, and the pairs come out as relation-homogeneous
:class:`PairBlock` index arrays.  The per-walk reference this plane is
tested against lives in ``tests/reference/sampling.py``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.hetgraph import HetGraph
from repro.graph.schema import EdgeType, NodeType, Relation, relation_of


@dataclasses.dataclass(frozen=True)
class MetaPath:
    """A typed walk template: start type + (edge type, node type) steps."""

    name: str
    start: NodeType
    steps: Tuple[Tuple[EdgeType, NodeType], ...]

    @property
    def length(self) -> int:
        return len(self.steps)


#: The six meta-paths of paper Table III.
TABLE_III_META_PATHS: Tuple[MetaPath, ...] = (
    MetaPath("q-coclick-q-semantic-q", NodeType.QUERY,
             ((EdgeType.CO_CLICK, NodeType.QUERY),
              (EdgeType.SEMANTIC, NodeType.QUERY))),
    MetaPath("q-click-i-coclick-i", NodeType.QUERY,
             ((EdgeType.CLICK, NodeType.ITEM),
              (EdgeType.CO_CLICK, NodeType.ITEM))),
    MetaPath("q-click-a-cobid-a", NodeType.QUERY,
             ((EdgeType.CLICK, NodeType.AD),
              (EdgeType.CO_BID, NodeType.AD))),
    MetaPath("i-click-q-semantic-q", NodeType.ITEM,
             ((EdgeType.CLICK, NodeType.QUERY),
              (EdgeType.SEMANTIC, NodeType.QUERY))),
    MetaPath("i-coclick-i-coclick-i", NodeType.ITEM,
             ((EdgeType.CO_CLICK, NodeType.ITEM),
              (EdgeType.CO_CLICK, NodeType.ITEM))),
    MetaPath("i-coclick-a-cobid-a", NodeType.ITEM,
             ((EdgeType.CO_CLICK, NodeType.AD),
              (EdgeType.CO_BID, NodeType.AD))),
)

#: consecutive walk rounds without a single pair before a consumer of
#: the walker gives up (a walker that cannot produce pairs would
#: otherwise spin forever)
MAX_EMPTY_ROUNDS = 64


@dataclasses.dataclass
class PairBlock:
    """Positive pairs ``<src, dst>`` of one relation as aligned arrays.

    The walker emits these; the negative sampler consumes them.
    """

    relation: Relation
    src_idx: np.ndarray
    dst_idx: np.ndarray

    def __len__(self) -> int:
        return int(self.src_idx.size)


class MetaPathWalker:
    """Samples positive pairs by meta-path guided random walk.

    Parameters
    ----------
    graph:
        The heterogeneous graph.
    meta_paths:
        Walk templates; defaults to paper Table III.
    enforce_category:
        Apply the same-category constraint of §IV-A-2.
    """

    def __init__(self, graph: HetGraph,
                 meta_paths: Optional[Sequence[MetaPath]] = None,
                 enforce_category: bool = True):
        self.graph = graph
        self.meta_paths = tuple(meta_paths or TABLE_III_META_PATHS)
        self.enforce_category = enforce_category

    def _tables_for(self, path: MetaPath):
        """Alias tables per step of a path.

        Looked up from the graph every time (an O(1) dict hit once
        built) so ``add_edges`` invalidation reaches the walker too.
        """
        tables = []
        current_type = path.start
        for edge_type, dst_type in path.steps:
            tables.append(self.graph.alias_tables(current_type, edge_type,
                                                  dst_type))
            current_type = dst_type
        return tables

    def walk_batch(self, rng: np.random.Generator, path: MetaPath,
                   size: int, starts: Optional[np.ndarray] = None
                   ) -> Tuple[List[np.ndarray], np.ndarray]:
        """``size`` walks advanced one level per batched alias draw.

        Returns ``(levels, alive)``: ``levels[l]`` holds the node index
        of every walk at level ``l`` and ``alive`` marks walks that
        completed all steps.  Dead-ended walks are discarded whole.
        Without ``starts``, walks start uniformly at the nodes that have
        an edge of the first step, read from the same alias tables the
        walk draws from, so edges added after construction count.
        """
        tables = self._tables_for(path)
        if starts is None:
            pool = (np.flatnonzero(tables[0].lens > 0) if tables[0] is not None
                    else np.empty(0, dtype=np.int64))
            if pool.size == 0:
                dead = np.full(size, -1, dtype=np.int64)
                return ([dead] * (path.length + 1),
                        np.zeros(size, dtype=bool))
            starts = pool[rng.integers(pool.size, size=size)]
        else:
            starts = np.asarray(starts, dtype=np.int64)
        levels = [starts]
        alive = np.ones(starts.size, dtype=bool)
        current = starts
        for table in tables:
            if table is None:
                nxt = np.full(current.size, -1, dtype=np.int64)
            else:
                nxt = table.draw(rng, np.where(current >= 0, current, 0))
                nxt[~alive] = -1
            alive &= nxt >= 0
            levels.append(nxt)
            current = nxt
        return levels, alive

    def extract_pair_blocks(self, path: MetaPath, levels: List[np.ndarray],
                            alive: np.ndarray) -> List[PairBlock]:
        """Sliding-window positives anchored at each walk's start.

        Level ``l`` pairs with the anchor unless the walk died, the
        level repeats the anchor, the two types have no relation, or
        (with ``enforce_category``) the two categories are not on one
        root path.
        """
        blocks: List[PairBlock] = []
        if not alive.any():
            return blocks
        anchors = levels[0]
        tree = self.graph.category_tree
        anchor_cats = None
        for level, (_edge, dst_type) in zip(levels[1:], path.steps):
            try:
                relation = relation_of(path.start, dst_type)
            except (KeyError, ValueError):
                continue
            keep = alive.copy()
            if dst_type == path.start:
                keep &= level != anchors
            kept = np.flatnonzero(keep)
            if kept.size == 0:
                continue
            if self.enforce_category:
                if anchor_cats is None:
                    anchor_cats = self.graph.categories[path.start][
                        np.where(alive, anchors, 0)]
                target_cats = self.graph.categories[dst_type][level[kept]]
                kept = kept[tree.same_branch(anchor_cats[kept], target_cats)]
                if kept.size == 0:
                    continue
            blocks.append(PairBlock(relation, anchors[kept].copy(),
                                    level[kept].copy()))
        return blocks

    def sample_pair_blocks(self, rng: np.random.Generator,
                           num_walks: int) -> List[PairBlock]:
        """``num_walks`` walks split across meta-paths, as pair blocks.

        Path ``i`` gets the share it would get from cycling the paths
        walk by walk, and all its walks advance together: one alias
        draw and one dead-end mask per level.
        """
        num_paths = len(self.meta_paths)
        blocks: List[PairBlock] = []
        for i, path in enumerate(self.meta_paths):
            share = num_walks // num_paths + (1 if i < num_walks % num_paths
                                              else 0)
            if share == 0:
                continue
            levels, alive = self.walk_batch(rng, path, share)
            blocks.extend(self.extract_pair_blocks(path, levels, alive))
        return blocks
