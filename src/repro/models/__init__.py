"""Representation models: AMCAD and every baseline of paper Table VI.

The centrepiece is :class:`~repro.models.amcad.AMCAD`, the adaptive
mixed-curvature model of paper §IV-B.  Its configuration object
(:class:`~repro.models.amcad.AMCADConfig`) exposes every knob the paper
ablates, so the constant-curvature variants (AMCAD_E/H/S/U), the
ablations of Table VII and the geometric baselines (HyperML, HGCN, GIL,
M2GNN, product space) are all factory functions over the same
architecture — exactly how the paper describes its own comparisons.

The random-walk embedding baselines (DeepWalk, LINE, Node2Vec,
Metapath2Vec) are a separate skip-gram family in
:mod:`repro.models.baselines.skipgram`.
"""

from repro.models.features import FeatureEmbedding, LRUFeatureRegistry
from repro.models.encoder import NodeEncoder
from repro.models.plan import (
    EncodePlan,
    build_encode_plan,
    build_full_graph_plan,
)
from repro.models.scorer import EdgeScorer
from repro.models.amcad import (
    AMCAD,
    AMCADConfig,
    MODEL_VARIANTS,
    list_models,
    make_model,
)
from repro.models.baselines import (
    SKIPGRAM_BASELINES,
    SkipGramConfig,
    SkipGramModel,
    make_baseline,
)

__all__ = [
    "FeatureEmbedding",
    "LRUFeatureRegistry",
    "NodeEncoder",
    "EncodePlan",
    "build_encode_plan",
    "build_full_graph_plan",
    "EdgeScorer",
    "AMCAD",
    "AMCADConfig",
    "MODEL_VARIANTS",
    "list_models",
    "make_model",
    "SkipGramModel",
    "SkipGramConfig",
    "SKIPGRAM_BASELINES",
    "make_baseline",
]
