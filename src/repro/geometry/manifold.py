"""Manifold objects wrapping the stereographic operations.

A :class:`UnifiedManifold` owns a (possibly trainable) curvature and
exposes the operation set of paper Table II bound to that curvature.
The constant-curvature spaces of paper Table I are thin factory
functions fixing κ:

- :func:`Euclidean`  — κ = 0, frozen,
- :func:`Hyperbolic` — κ = -1 (or given), frozen,
- :func:`Spherical`  — κ = +1 (or given), frozen.

The *adaptive* space of AMCAD is a trainable ``UnifiedManifold`` whose κ
is a scalar :class:`~repro.autodiff.tensor.Parameter` updated by the
same optimiser as the rest of the model and clamped to a stable range
after each step (:meth:`UnifiedManifold.constrain`).

Every operation — ``expmap0``, ``logmap0``, ``dist``, ``mobius_add`` and
``project`` (``matvec``/``activation`` compose them) — dispatches to the
fused single-tape-node kernels of :mod:`repro.geometry.fast`; the
composed micro-op chains in :mod:`repro.geometry.stereographic` remain
the gradcheck reference (same values and gradients, an order of
magnitude more tape nodes) and back nothing here.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Parameter, Tensor
from repro.geometry import fast
from repro.geometry import stereographic as st


class UnifiedManifold:
    """The unified κ-stereographic manifold ``U^dim_κ``.

    Parameters
    ----------
    dim:
        Dimensionality of the space.
    kappa:
        Initial sectional curvature.
    trainable:
        If true, κ is a :class:`Parameter` optimised with the model.
    kappa_bounds:
        Stability clamp applied by :meth:`constrain` after each
        optimiser step (paper §V-B numerical-stability measures).
    """

    def __init__(self, dim: int, kappa: float = 0.0, trainable: bool = True,
                 kappa_bounds: tuple = (-2.5, 2.5)):
        if dim < 1:
            raise ValueError("manifold dimension must be >= 1, got %d" % dim)
        self.dim = int(dim)
        self.trainable = bool(trainable)
        self.kappa_bounds = (float(kappa_bounds[0]), float(kappa_bounds[1]))
        if trainable:
            self.kappa: Tensor = Parameter(np.asarray(float(kappa)))
        else:
            self.kappa = Tensor(np.asarray(float(kappa)))

    # -- curvature handling ----------------------------------------------

    @property
    def kappa_value(self) -> float:
        """Current scalar curvature value."""
        return float(self.kappa.data)

    def constrain(self) -> None:
        """Clamp κ in-place to its stability bounds (no-op if frozen)."""
        lo, hi = self.kappa_bounds
        np.clip(self.kappa.data, lo, hi, out=self.kappa.data)

    @property
    def space_type(self) -> str:
        """Human-readable geometry class: hyperbolic/euclidean/spherical."""
        value = self.kappa_value
        if value < -st._KAPPA_ZERO_TOL:
            return "hyperbolic"
        if value > st._KAPPA_ZERO_TOL:
            return "spherical"
        return "euclidean"

    # -- operations (paper Table II) ---------------------------------------

    def expmap0(self, v) -> Tensor:
        return fast.fused_expmap0(v, self.kappa)

    def logmap0(self, x) -> Tensor:
        return fast.fused_logmap0(x, self.kappa)

    def mobius_add(self, x, y) -> Tensor:
        return fast.fused_mobius_add(x, y, self.kappa)

    def matvec(self, weight, x) -> Tensor:
        """Möbius matrix multiplication ``W ⊗κ x`` (fused exp/log maps)."""
        tangent = fast.fused_logmap0(x, self.kappa)
        return fast.fused_expmap0(ops.matmul(tangent, weight), self.kappa)

    def dist(self, x, y) -> Tensor:
        """Geodesic distance with the trailing axis squeezed to scalars."""
        return fast.fused_dist(x, y, self.kappa)

    def project(self, x) -> Tensor:
        return fast.fused_project(x, self.kappa)

    def activation(self, x, fn, target: "UnifiedManifold" = None) -> Tensor:
        """Curved activation ``σ_{κ1→κ2}(x) = exp^{κ2}_0(σ(log^{κ1}_0 x))``.

        ``fn`` is a tangent-space nonlinearity (e.g. ``ops.tanh``);
        ``target`` defaults to this manifold (κ2 = κ1).
        """
        target = target if target is not None else self
        return fast.fused_expmap0(fn(self.logmap0(x)), target.kappa)

    def origin(self, *leading) -> Tensor:
        """The origin point, broadcast to ``(*leading, dim)``."""
        return Tensor(np.zeros(tuple(leading) + (self.dim,)))

    def random_point(self, rng: np.random.Generator, *leading,
                     tangent_scale: float = 0.1) -> Tensor:
        """Sample a point by exponentiating a Gaussian tangent vector."""
        tangent = Tensor(rng.normal(scale=tangent_scale,
                                    size=tuple(leading) + (self.dim,)))
        return self.project(self.expmap0(tangent))

    def parameters(self):
        """Yield the trainable curvature (if any)."""
        if self.trainable:
            yield self.kappa

    def __repr__(self) -> str:
        return "UnifiedManifold(dim=%d, kappa=%.4f, %s%s)" % (
            self.dim, self.kappa_value, self.space_type,
            ", trainable" if self.trainable else "")


def Euclidean(dim: int) -> UnifiedManifold:
    """Flat space ``E^dim`` (κ = 0, frozen)."""
    return UnifiedManifold(dim, kappa=0.0, trainable=False)


def Hyperbolic(dim: int, kappa: float = -1.0) -> UnifiedManifold:
    """Hyperbolic space ``H^dim`` (κ < 0, frozen)."""
    if kappa >= 0:
        raise ValueError("hyperbolic curvature must be negative, got %g" % kappa)
    return UnifiedManifold(dim, kappa=kappa, trainable=False)


def Spherical(dim: int, kappa: float = 1.0) -> UnifiedManifold:
    """Spherical space ``S^dim`` (κ > 0, frozen)."""
    if kappa <= 0:
        raise ValueError("spherical curvature must be positive, got %g" % kappa)
    return UnifiedManifold(dim, kappa=kappa, trainable=False)
