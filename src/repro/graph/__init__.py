"""Heterogeneous interaction-graph substrate (paper §IV-A).

This package replaces Alibaba's Euler distributed graph engine with an
in-memory heterogeneous graph tailored to the query-item-ad interaction
data of sponsored search:

- :mod:`repro.graph.schema` — node types (query/item/ad), edge types
  (click, co-click, semantic, co-bid) and relation identifiers;
- :mod:`repro.graph.hetgraph` — CSR adjacency per (src-type, edge-type)
  with batched neighbour sampling, alias tables and category pools;
- :mod:`repro.graph.category` — the e-commerce category tree the paper
  uses to constrain positives and stratify negatives;
- :mod:`repro.graph.builder` — behaviour-log → graph construction
  (paper Fig. 4);
- :mod:`repro.graph.alias` — Walker's alias method for O(1) sampling;
- :mod:`repro.graph.metapath` — meta-path guided random walks and
  positive-pair extraction (paper Table III), as :class:`PairBlock`
  arrays;
- :mod:`repro.graph.sampling` — hard/easy negative sampling into a
  :class:`SampleBatch`.

Sampling has one implementation, the array-native one; the per-pair
walker and negative sampler it is tested against are an oracle in
``tests/reference/sampling.py``.
"""

from repro.graph.schema import EdgeType, NodeRef, NodeType, Relation, relation_of
from repro.graph.alias import AliasSampler, CSRAliasTables, build_alias_tables
from repro.graph.category import CategoryTree
from repro.graph.hetgraph import CategoryPools, HetGraph
from repro.graph.builder import GraphBuilder, build_graph
from repro.graph.metapath import (
    MetaPath,
    MetaPathWalker,
    PairBlock,
    TABLE_III_META_PATHS,
)
from repro.graph.sampling import NegativeSampler, SampleBatch

__all__ = [
    "NodeType",
    "EdgeType",
    "Relation",
    "NodeRef",
    "relation_of",
    "AliasSampler",
    "CSRAliasTables",
    "build_alias_tables",
    "CategoryTree",
    "CategoryPools",
    "HetGraph",
    "GraphBuilder",
    "build_graph",
    "MetaPath",
    "MetaPathWalker",
    "PairBlock",
    "TABLE_III_META_PATHS",
    "NegativeSampler",
    "SampleBatch",
]
