"""Point-scatterer model: coupled bubble amplitudes and the scattered field.

Each bubble m carries an amplitude Y_m solving the neutral delay system

    omega_m_sq * Y_m'' + Y_m + sum_{j != m} c_eps/(4 pi |z_m - z_j|)
        * Y_j''(t - |z_m - z_j|/c0)  =  d2/dt2 u_in(z_m, t),

with zero initial data, and the scattered field is the retarded monopole
superposition  -sum_m c_eps/(4 pi |x - z_m|) Y_m(t - |x - z_m|/c0).
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .errors import EvaluationPointError, SolvabilityError, UsageError
from .geometry import BubbleCluster
from .materials import PhysicalParams, validate_conditions
from .sources import PointSource
from .stepping import RetardedNetwork, TimeGrid, Trace, retarded_superposition

_CACHE_VERSION = 2


class DelaySystem(RetardedNetwork):
    """Delay network specialized to the bubble cluster: column weight c_eps,
    mass omega_m_sq, forcing d2/dt2 u_in."""

    def __init__(self, cluster: BubbleCluster, params: PhysicalParams,
                 source: PointSource):
        super().__init__(cluster.centers, params.c_eps,
                         np.full(cluster.n, params.omega_m_sq), params, source,
                         order=2)
        self.cluster = cluster


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


def default_grid(system: DelaySystem, T: float, safety: float = 0.4,
                 h_max: float = 0.05) -> TimeGrid:
    """Grid respecting the step bound h <= 0.5 * minimum delay."""
    if not 0 < safety <= 0.5:
        raise UsageError("step safety factor must lie in (0, 0.5]")
    target = min(h_max, safety * system.min_delay) if np.isfinite(system.min_delay) else h_max
    return TimeGrid.fit(T, target)


def scattered_field(traces: Trace, cluster: BubbleCluster, params: PhysicalParams,
                    x, t):
    """Retarded scattered field at x; ``t`` may be scalar or an array."""
    x = np.asarray(x, dtype=float).reshape(3)
    dist = np.linalg.norm(cluster.centers - x, axis=1)
    if np.any(dist < 2.0 * cluster.eps):
        raise EvaluationPointError("evaluation point within 2*eps of a bubble")
    coeffs = -np.full(cluster.n, params.c_eps)
    out = retarded_superposition(traces.value_at, cluster.centers, coeffs,
                                 params.c0, x, t)
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def scattered_series(traces: Trace, cluster: BubbleCluster, params: PhysicalParams,
                     points: np.ndarray, t_out: np.ndarray) -> np.ndarray:
    """Scattered field sampled on a lattice of probe points x time grid."""
    pts = np.atleast_2d(points)
    return np.stack([scattered_field(traces, cluster, params, p, t_out) for p in pts])


def save_traces(path, traces: Trace) -> None:
    """Binary cache of the dense output with a versioned header."""
    meta = json.dumps({"format_version": _CACHE_VERSION, "kind": "bubble-traces"})
    np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
             times=traces.times, value=traces.value, rate=traces.rate,
             acc=traces.acc, acc_slope=traces.acc_slope, onset=traces.onset)


def load_traces(path) -> Trace:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format_version") != _CACHE_VERSION:
            raise UsageError(f"unsupported trace cache version {meta.get('format_version')}")
        return Trace(data["times"], data["value"], data["rate"],
                     data["acc"], data["acc_slope"], data["onset"])
