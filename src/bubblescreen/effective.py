"""Effective surface model: dispersive screen solver and its scattered field.

The surface unknown U solves the retarded Lippmann-Schwinger equation

    omega_m_sq U''(x,t) + U(x,t)
        + int_Gamma floor(K(y)+1) c_bar/(4 pi |x-y|) U''(y, t - |x-y|/c0) dy
        = u_in(x,t),        Y := U'',

discretized by one-node-per-patch collocation.  The singular self-patch
integral is replaced by the equal-area-disk closed form r/2, r = sqrt(w/pi),
and merged into the instantaneous coefficient of U'' (an effective mass), so
the marching scheme stays explicit and identical in structure to the
point-scatterer solver.

The screen replaces the cluster through the transmission law: the field W is
continuous across Gamma while its normal derivative jumps by the sinusoidal
memory convolution of d2/dt2 W, equivalently by c_bar*floor(K+1)*U''.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationPointError, UsageError
from .geometry import KFunction, Patchwork
from .materials import PhysicalParams
from .sources import PointSource, incident_eval
from .stepping import RetardedNetwork, TimeGrid, Trace, retarded_superposition


# ---------------------------------------------------------------------------
# Quadrature rule
# ---------------------------------------------------------------------------
@dataclass
class QuadratureRule:
    """Nystrom rule: one node per patch, weight = patch area.

    ``self_terms`` holds the regularized diagonal integral of 1/(4 pi |x-y|)
    over an equal-area disk: r_i/2 with r_i = sqrt(w_i/pi).
    """

    nodes: np.ndarray      # (M, 3)
    weights: np.ndarray    # (M,)
    density: np.ndarray    # (M,) integer floor(K)+1
    self_terms: np.ndarray
    normals: np.ndarray
    spacing: float
    area: float

    @property
    def m(self) -> int:
        return len(self.nodes)

    @staticmethod
    def from_parts(nodes, weights, density, spacing, normals=None, area=None) -> "QuadratureRule":
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        weights = np.asarray(weights, dtype=float)
        density = np.asarray(density, dtype=int)
        if np.any(weights <= 0) or np.any(density < 1):
            raise UsageError("weights must be positive and densities >= 1")
        self_terms = np.sqrt(weights / np.pi) / 2.0
        if normals is None:
            normals = np.zeros_like(nodes)
            normals[:, 2] = 1.0
        return QuadratureRule(
            nodes=nodes, weights=weights, density=density, self_terms=self_terms,
            normals=np.asarray(normals, dtype=float), spacing=float(spacing),
            area=float(weights.sum()) if area is None else float(area),
        )


def build_rule(patchwork: Patchwork, cluster_or_k) -> QuadratureRule:
    """Quadrature rule over the patchwork with densities from a cluster or K."""
    if hasattr(cluster_or_k, "counts"):
        density = np.asarray(cluster_or_k.counts, dtype=int)
        if len(density) != patchwork.m:
            raise UsageError("cluster counts do not match the patchwork")
    elif isinstance(cluster_or_k, KFunction):
        density = cluster_or_k.counts_at(patchwork.centers)
    else:
        raise UsageError("expected a BubbleCluster or KFunction")
    normals = patchwork.surface.normal_at(patchwork.centers)
    rule = QuadratureRule.from_parts(
        patchwork.centers, patchwork.areas, density, patchwork.d, normals,
        area=patchwork.surface.total_area,
    )
    if abs(rule.weights.sum() - patchwork.surface.total_area) > 1e-10:
        raise UsageError("rule weights do not sum to the surface area")
    return rule


# ---------------------------------------------------------------------------
# Time-domain effective solver
# ---------------------------------------------------------------------------
class EffectiveSystem(RetardedNetwork):
    """Collocated screen equation as a delay network in U.

    The column weight is area * density * c_bar.  The instantaneous self term
    c_bar*density_i*self_i is absorbed into the mass multiplying U_i''; the
    off-diagonal retarded terms carry the true internodal delays.
    """

    def __init__(self, rule: QuadratureRule, params: PhysicalParams,
                 source: PointSource):
        masses = params.omega_m_sq + params.c_bar * rule.density * rule.self_terms
        super().__init__(rule.nodes, rule.weights * rule.density * params.c_bar,
                         masses, params, source, order=0)
        self.rule = rule


def effective_grid(rule: QuadratureRule, params: PhysicalParams, T: float,
                   h_max: float = 0.05) -> TimeGrid:
    """Grid of steps h <= h_max on [0, T], whatever the node spacing: the
    Foldy march's ``TimeGrid.fit(T, h_max)``, named as a stage of its own."""
    return TimeGrid.fit(T, h_max)


def effective_scattered(rule: QuadratureRule, trace: Trace, params: PhysicalParams,
                        x, t, min_dist_factor: float = 2.0):
    """Scattered part of the effective field at x (retarded quadrature sum)."""
    x = np.asarray(x, dtype=float).reshape(3)
    dist = np.linalg.norm(rule.nodes - x, axis=1)
    if np.any(dist < min_dist_factor * rule.spacing):
        raise EvaluationPointError(
            f"evaluation point within {min_dist_factor}*spacing of the surface"
        )
    coeffs = -(rule.weights * rule.density * params.c_bar)
    out = retarded_superposition(trace.accel_at, rule.nodes, coeffs, params.c0, x, t)
    return float(out[0]) if np.asarray(t).ndim == 0 else out


class EffectiveField:
    """Total effective field W = u_in + W_sc off the surface."""

    def __init__(self, rule: QuadratureRule, trace: Trace,
                 params: PhysicalParams, source: PointSource):
        self.rule = rule
        self.trace = trace
        self.params = params
        self.source = source

    def scattered(self, x, t, min_dist_factor: float = 2.0):
        return effective_scattered(self.rule, self.trace, self.params, x, t,
                                   min_dist_factor)

    def total(self, x, t, min_dist_factor: float = 2.0):
        return incident_eval(self.source, x, t, 0) + self.scattered(x, t, min_dist_factor)
