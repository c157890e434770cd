"""Effective surface model: dispersive screen solver and transmission checks.

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

import warnings
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

    def min_internode(self) -> float:
        if self.m < 2:
            return np.inf
        diff = self.nodes[:, None, :] - self.nodes[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        dist[np.eye(self.m, dtype=bool)] = np.inf
        return float(dist.min())


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


def solve_effective(rule: QuadratureRule, params: PhysicalParams,
                    source: PointSource, grid: TimeGrid) -> Trace:
    """Solve for the surface trace U (with Y = U'' stored as acceleration)."""
    return EffectiveSystem(rule, params, source).solve(grid)


def effective_grid(rule: QuadratureRule, params: PhysicalParams, T: float,
                   safety: float = 0.4, h_max: float = 0.05) -> TimeGrid:
    dmin = rule.min_internode()
    target = min(h_max, safety * dmin / params.c0) if np.isfinite(dmin) else h_max
    return TimeGrid.fit(T, target)


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


# ---------------------------------------------------------------------------
# Memory kernel
# ---------------------------------------------------------------------------
_D2_END = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0])
_D2_NEAR_END = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0])


def _second_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference f'' on a uniform grid.

    Five-point central stencil inside, six-point one-sided stencils at the two
    nodes next to each end; arrays of three to five samples fall back to the
    second-order three-point rule, and shorter ones raise ``UsageError``.
    """
    if len(f) < 3:
        raise UsageError("a second derivative needs at least 3 samples")
    d2 = np.empty_like(f)
    if len(f) >= 6:
        d2[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h**2)
        d2[0] = _D2_END @ f[:6] / (12 * h**2)
        d2[1] = _D2_NEAR_END @ f[:6] / (12 * h**2)
        d2[-1] = _D2_END @ f[:-7:-1] / (12 * h**2)
        d2[-2] = _D2_NEAR_END @ f[:-7:-1] / (12 * h**2)
        return d2
    d2[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    if len(f) >= 4:
        d2[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
        d2[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    else:
        d2[0] = d2[1]
        d2[-1] = d2[-2]
    return d2


def _end_slope(g: np.ndarray, h: float, at_start: bool) -> np.ndarray | float:
    """Third-order one-sided derivative of the integrand at an endpoint."""
    if g.shape[0] < 4:
        return 0.0
    if at_start:
        return (-11 * g[0] + 18 * g[1] - 9 * g[2] + 2 * g[3]) / (6 * h)
    return (11 * g[-1] - 18 * g[-2] + 9 * g[-3] - 2 * g[-4]) / (6 * h)


def _volterra_sine(kernel_scale: float, omega_m: float, f: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """kernel_scale * int_0^t sin((t - tau)/omega_m) f(tau) dtau on the grid.

    End-corrected trapezoid: the Euler-Maclaurin h^2/12 boundary term is
    removed with one-sided finite-difference endpoint derivatives, which lifts
    the plain second-order rule to ~fourth order for smooth integrands.
    """
    h = times[1] - times[0]
    n = len(times)
    out = np.zeros(n)
    s = np.sin(times / omega_m)
    c = np.cos(times / omega_m)
    fs, fc = f * s, f * c
    cs_s = np.concatenate([[0.0], np.cumsum((fs[1:] + fs[:-1]) * 0.5 * h)])
    cs_c = np.concatenate([[0.0], np.cumsum((fc[1:] + fc[:-1]) * 0.5 * h)])
    # trapezoid value of int sin((t-tau)/om) f dtau = sin(t/om) Ic - cos(t/om) Is
    out = s * cs_c - c * cs_s
    if n >= 5:
        # Euler-Maclaurin end correction -(h^2/12)[g'(t_k) - g'(0)] per output
        # time, with g(tau) = sin((t_k - tau)/om) f(tau):
        #   g'(0)   = -cos(t_k/om) f(0)/om + sin(t_k/om) f'(0)
        #   g'(t_k) = -f(t_k)/om
        f0, fp0 = f[0], _end_slope(f, h, True)
        g_prime_0 = -(1.0 / omega_m) * c * f0 + s * fp0
        g_prime_t = -(1.0 / omega_m) * f
        out = out - (h**2 / 12.0) * (g_prime_t - g_prime_0)
        out[0] = 0.0
    return kernel_scale * out


def memory_convolution(f_trace: np.ndarray, omega_m: float, grid: TimeGrid,
                       f_ddot: np.ndarray | None = None) -> np.ndarray:
    """omega_m^-1 * int_0^t sin((t-tau)/omega_m) f''(tau) dtau on the grid.

    ``f_ddot`` may be supplied (e.g. a stored acceleration trace); otherwise it
    is approximated by fourth-order finite differences of ``f_trace``.
    """
    f = np.asarray(f_trace, dtype=float)
    times = grid.times
    if f.shape != times.shape:
        raise UsageError("trace length does not match the grid")
    dd = _second_derivative(f, grid.h) if f_ddot is None else np.asarray(f_ddot, dtype=float)
    return _volterra_sine(1.0 / omega_m, omega_m, dd, times)


def kernel_identity_residual(f_trace: np.ndarray, omega_m: float, grid: TimeGrid,
                             f_ddot: np.ndarray | None = None) -> float:
    """sup-norm residual of the integration-by-parts identity

        om^-2 f - om^-3 int sin((t-tau)/om) f dtau
            = om^-1 int sin((t-tau)/om) f'' dtau,

    valid for f(0) = f'(0) = 0, with both sides sharing one quadrature.
    """
    f = np.asarray(f_trace, dtype=float)
    times = grid.times
    if f.shape != times.shape:
        raise UsageError("trace length does not match the grid")
    scale = float(np.max(np.abs(f)))
    if scale > 0.0:
        fp0 = abs(_end_slope(f, grid.h, True)) if len(f) >= 4 else 0.0
        if abs(f[0]) > 1e-12 * scale or fp0 * grid.h > 1e-6 * scale:
            raise UsageError("kernel identity requires f(0) = f'(0) = 0")
    lhs = f / omega_m**2 - _volterra_sine(1.0 / omega_m**3, omega_m, f, times)
    rhs = memory_convolution(f, omega_m, grid, f_ddot=f_ddot)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Transmission-condition diagnostics
# ---------------------------------------------------------------------------
@dataclass
class JumpDiagnostics:
    residual: float          # sup |[dW/dn] - memory term| / jump scale
    continuity: float        # sup |W(x+dn) - W(x-dn)| / field scale
    jump_scale: float


def jump_residual(rule: QuadratureRule, trace: Trace, params: PhysicalParams,
                  source: PointSource, probe_nodes, delta: float) -> JumpDiagnostics:
    """Check [dW/dn] against the sinusoidal memory convolution of W on Gamma.

    One-sided normal derivatives at the surface are estimated from each side
    with samples at delta, 1.5*delta, 2*delta (quadratic fit differentiated at
    the surface, so no sample comes closer than delta); the on-surface trace
    W = U + om^2 U'' is convolved with the sine kernel.  ``delta`` below 5
    patch spacings triggers a near-singular warning.  Evaluates on the solver
    grid.
    """
    if delta < 5.0 * rule.spacing:
        warnings.warn("jump offset delta below 5 node spacings: near-singular "
                      "normal derivatives", stacklevel=2)
    field = EffectiveField(rule, trace, params, source)
    grid = TimeGrid(T=trace.horizon, h=trace.h, steps=len(trace.times) - 1)
    times = grid.times
    worst = 0.0
    scale = 0.0
    cont = 0.0
    fscale = 0.0
    for node in np.atleast_1d(probe_nodes):
        xc = rule.nodes[node]
        nu = rule.normals[node]
        if np.linalg.norm(trace.acc[:, node]) == 0.0 and np.linalg.norm(trace.value[:, node]) == 0.0:
            continue
        w_vals = {
            (sgn, k): field.total(xc + sgn * k * delta * nu, times, min_dist_factor=0.0)
            for sgn in (1.0, -1.0) for k in (1.0, 1.5, 2.0)
        }
        # d/dn of the quadratic through (delta, 1.5 delta, 2 delta), at 0
        def one_sided(sgn):
            return sgn * (-7.0 * w_vals[(sgn, 1.0)] + 12.0 * w_vals[(sgn, 1.5)]
                          - 5.0 * w_vals[(sgn, 2.0)]) / delta
        jump = one_sided(1.0) - one_sided(-1.0)
        w_on = trace.value[:, node] + params.omega_m_sq * trace.acc[:, node]
        mem = params.c_bar * rule.density[node] * memory_convolution(
            w_on, params.omega_m, grid)
        worst = max(worst, float(np.max(np.abs(jump - mem))))
        scale = max(scale, float(np.max(np.abs(jump))))
        cont = max(cont, float(np.max(np.abs(w_vals[(1.0, 1.0)] - w_vals[(-1.0, 1.0)]))))
        fscale = max(fscale, float(np.max(np.abs(w_vals[(1.0, 1.0)]))))
    if scale == 0.0:
        return JumpDiagnostics(residual=0.0, continuity=0.0, jump_scale=0.0)
    return JumpDiagnostics(residual=worst / scale,
                           continuity=cont / max(fscale, 1e-300),
                           jump_scale=scale)
