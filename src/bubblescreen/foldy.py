"""Point-scatterer model: coupled bubble amplitudes and the scattered field.

Each bubble m carries an amplitude Y_m = U_m'', where U_m solves the neutral
delay system

    omega_m_sq * U_m'' + U_m + sum_{j != m} c_eps/(4 pi |z_m - z_j|)
        * U_j''(t - |z_m - z_j|/c0)  =  u_in(z_m, t)

with zero initial data: the screen's equation at the bubbles, forced by the
incident wave itself.  Differentiating it twice gives the amplitudes' own
system, forced by d2/dt2 u_in; the data are zero and the system linear, so
both have the same solution Y, and the march of U reads Y as its
acceleration.  The scattered field is the retarded monopole superposition
-sum_m c_eps/(4 pi |x - z_m|) Y_m(t - |x - z_m|/c0), which
``scattered_series`` evaluates at every probe point and time in one call.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import SolvabilityError
from .geometry import BubbleCluster
from .materials import PhysicalParams, validate_conditions
from .sources import PointSource
from .stepping import RetardedNetwork, Trace, retarded_superposition


class DelaySystem(RetardedNetwork):
    """Delay network in U specialized to the bubble cluster: column weight
    c_eps, mass omega_m_sq, forcing u_in."""

    def __init__(self, cluster: BubbleCluster, params: PhysicalParams,
                 source: PointSource):
        super().__init__(cluster.centers, params.c_eps,
                         np.full(cluster.n, params.omega_m_sq), params, source)


def assemble(cluster: BubbleCluster, params: PhysicalParams, source: PointSource,
             strict: bool = True) -> DelaySystem:
    """Build the delay system, checking the resonance solvability condition."""
    report = validate_conditions(params, cluster)
    if not report.pass_resonance:
        msg = (
            f"resonance condition violated: sqrt(k_max)*sum = "
            f"{np.sqrt(report.k_max) * report.cond_resonance_lhs:.4g} "
            f">= omega_m_sq = {params.omega_m_sq:.4g}"
        )
        if strict:
            raise SolvabilityError(msg)
        warnings.warn(msg, stacklevel=2)
    return DelaySystem(cluster, params, source)


def scattered_series(traces: Trace, cluster: BubbleCluster, params: PhysicalParams,
                     points: np.ndarray, t_out) -> np.ndarray:
    """Retarded scattered field at one probe point (3,) or (p, 3) points and
    the times ``t_out``, as (p, times); a point within 2*eps of a bubble
    raises ``EvaluationPointError``."""
    coeffs = -np.full(cluster.n, params.c_eps)
    return retarded_superposition(traces, cluster.centers, coeffs, params.c0,
                                  points, t_out, min_dist=2.0 * cluster.eps)
