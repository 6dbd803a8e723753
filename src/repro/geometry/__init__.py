"""Constant-curvature and mixed-curvature geometry (paper §III, Table II).

The unified κ-stereographic model ``U^n_κ`` smoothly interpolates
hyperbolic (κ<0), Euclidean (κ=0) and spherical (κ>0) geometry; the
mixed-curvature space of paper §III-B is a product of M such factors,
held as ``(M, n, d)`` point blocks with one ``(M,)`` curvature vector
(:class:`~repro.geometry.kernels.Curvature`).  Every operation in
:mod:`repro.geometry.kernels` runs once over all M factors and is
differentiable through :mod:`repro.autodiff`, including with respect to
each factor's κ — this is what makes the "adaptive" part of AMCAD
possible.
"""

from repro.geometry.kernels import (
    Curvature,
    activation,
    dist,
    expmap0,
    logmap0,
    matvec,
    mobius_add,
    project,
)

__all__ = [
    "Curvature",
    "activation",
    "dist",
    "expmap0",
    "logmap0",
    "matvec",
    "mobius_add",
    "project",
]
