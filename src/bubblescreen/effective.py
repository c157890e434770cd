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
``EffectiveField`` evaluates W_sc or W at every probe point and time of one
call by one retarded quadrature sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import KFunction, Patchwork
from .materials import PhysicalParams
from .sources import PointSource, incident_eval
from .stepping import RetardedNetwork, TimeGrid, Trace, retarded_superposition


# ---------------------------------------------------------------------------
# Quadrature rule
# ---------------------------------------------------------------------------
@dataclass
class QuadratureRule:
    """Nystrom rule: one node per patch, weight = patch area, density the
    integer floor(K)+1 at the node.

    ``self_terms`` is the regularized diagonal integral of 1/(4 pi |x-y|)
    over an equal-area disk: r_i/2 with r_i = sqrt(w_i/pi).
    """

    nodes: np.ndarray      # (M, 3)
    weights: np.ndarray    # (M,)
    density: np.ndarray    # (M,) integer floor(K)+1 at the nodes
    spacing: float

    @property
    def m(self) -> int:
        return len(self.nodes)

    @property
    def self_terms(self) -> np.ndarray:
        return np.sqrt(self.weights / np.pi) / 2.0


def build_rule(patchwork: Patchwork, k_function: KFunction) -> QuadratureRule:
    """Quadrature rule over the patchwork, each node's density floor(K)+1 at
    the node itself, so it needs no bubbles: at the spacing of a placement
    it is that cluster's ``counts``."""
    return QuadratureRule(nodes=patchwork.centers, weights=patchwork.areas,
                          density=k_function.counts_at(patchwork.centers),
                          spacing=float(patchwork.d))


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
                         masses, params, source)


def effective_grid(rule: QuadratureRule, params: PhysicalParams, T: float,
                   h_max: float = 0.05) -> TimeGrid:
    """Grid of steps h <= h_max on [0, T], whatever the node spacing: the
    Foldy march's ``TimeGrid.fit(T, h_max)``, named as a stage of its own."""
    return TimeGrid.fit(T, h_max)


class EffectiveField:
    """Total effective field W = u_in + W_sc off the surface."""

    def __init__(self, rule: QuadratureRule, trace: Trace,
                 params: PhysicalParams, source: PointSource):
        self.rule = rule
        self.trace = trace
        self.params = params
        self.source = source

    def scattered(self, x, t, min_dist_factor: float = 2.0) -> np.ndarray:
        """Retarded quadrature sum W_sc at one point (3,) or (p, 3) points and
        the times ``t``, as (p, times); a point within ``min_dist_factor``
        node spacings of a node raises ``EvaluationPointError``."""
        rule, params = self.rule, self.params
        coeffs = -(rule.weights * rule.density * params.c_bar)
        return retarded_superposition(self.trace, rule.nodes, coeffs, params.c0,
                                      x, t, min_dist=min_dist_factor * rule.spacing)

    def total(self, x, t, min_dist_factor: float = 2.0) -> np.ndarray:
        """W = u_in + W_sc, shaped as ``scattered``."""
        u_in = incident_eval(self.source, np.atleast_2d(x), np.reshape(t, (-1, 1)))
        return u_in.T + self.scattered(x, t, min_dist_factor)
