"""Constant-curvature and mixed-curvature geometry (paper §III, Table II).

Implements the unified κ-stereographic model ``U^n_κ`` whose curvature
smoothly interpolates hyperbolic (κ<0), Euclidean (κ=0) and spherical
(κ>0) geometry, plus the Cartesian-product *mixed-curvature* space of
paper §III-B.  All operations are differentiable through
:mod:`repro.autodiff`, including with respect to κ itself — this is what
makes the "adaptive" part of AMCAD possible.
"""

from repro.geometry.stereographic import (
    artan_k,
    conformal_factor,
    dist_k,
    expmap0,
    logmap0,
    mobius_add,
    mobius_matvec,
    project,
    tan_k,
)
from repro.geometry.fast import fused_dist, fused_expmap0, fused_logmap0
from repro.geometry.manifold import (
    Euclidean,
    Hyperbolic,
    Spherical,
    UnifiedManifold,
)
from repro.geometry.product import ProductManifold

__all__ = [
    "tan_k",
    "artan_k",
    "mobius_add",
    "mobius_matvec",
    "expmap0",
    "logmap0",
    "dist_k",
    "project",
    "conformal_factor",
    "fused_expmap0",
    "fused_logmap0",
    "fused_dist",
    "UnifiedManifold",
    "Euclidean",
    "Hyperbolic",
    "Spherical",
    "ProductManifold",
]
