"""Frequency-domain solver and convolution-quadrature cross-validator.

The screen equation for Y transforms, under the causal Laplace transform with
variable s (Re s = sigma > 0, the operational-calculus half-plane), into

    (hbar s^2 + 1) Yhat + s^2 Shat_s[Yhat] = s^2 uhat_in   on Gamma,

where hbar = omega_m_sq and Shat_s is the single-layer potential with kernel
density(y) * c_bar * exp(-s|x-y|) / (4 pi |x-y|).  The collocated matrix uses
the same equal-area-disk diagonal r/2 (with unit phase) as the time-domain
solver, which is what makes the two discretizations comparable.

The time-domain solution is reconstructed by Lubich convolution quadrature
with the BDF2 generating function gamma(z) = (1-z) + (1-z)^2/2: the solution
operator is sampled at the scaled unit circle s_l = gamma(rho e^{-2 pi i l/L})/h
and combined through a scaled FFT.

Solvability in the half-plane comes with the resolvent estimate
||Yhat|| <= (|s|/sigma) ||uhat_in|| in the quadrature-weighted surface norm;
``laplace_solve`` reports the bound margin on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError, UsageError
from .effective import QuadratureRule
from .geometry import pairwise_distances
from .materials import PhysicalParams
from .sources import PointSource, pulse_eval
from .stepping import TimeGrid


def assemble_operator(rule: QuadratureRule, params: PhysicalParams,
                      s: complex) -> np.ndarray:
    """(hbar s^2 + 1) I + s^2 Shat_s over the quadrature nodes."""
    if s.real <= 0:
        raise ParameterError("Laplace frequency must have positive real part")
    m = rule.m
    dist = pairwise_distances(rule.nodes)
    np.fill_diagonal(dist, 1.0)
    colfac = rule.weights * rule.density * params.c_bar
    smat = colfac[None, :] * np.exp(-s * dist / params.c0) / (4.0 * np.pi * dist)
    np.fill_diagonal(smat, rule.density * params.c_bar * rule.self_terms)
    a = (params.omega_m_sq * s * s + 1.0) * np.eye(m) + s * s * smat
    if not np.all(np.isfinite(a)):
        raise SolverError("non-finite operator entries")
    return a


def weighted_norm(rule: QuadratureRule, v: np.ndarray) -> float:
    """Discrete L2(Gamma) norm with quadrature weights."""
    return float(np.sqrt((rule.weights * np.abs(v) ** 2).sum()))


@dataclass
class LaplaceSolution:
    values: np.ndarray
    sol_norm: float
    bound: float           # (|s| / Re s) * weighted norm of rhs
    bound_ok: bool
    residual: float


def laplace_solve(rule: QuadratureRule, params: PhysicalParams, s: complex,
                  rhs: np.ndarray) -> LaplaceSolution:
    """Solve the transformed screen equation at frequency s.

    ``rhs`` holds the per-node transform of the incident trace; the s^2 factor
    on the right side is applied internally.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (rule.m,):
        raise UsageError("rhs must have one entry per quadrature node")
    a = assemble_operator(rule, params, s)
    b = s * s * rhs
    try:
        y = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # theory violation for Re s > 0
        raise SolverError(f"singular operator at s={s}: {exc}") from exc
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(a @ y - b) / bnorm) if bnorm > 0 else 0.0
    if res > 1e-8:
        raise SolverError(f"direct solve residual {res:.2e} exceeds 1e-8 at s={s}")
    sn = weighted_norm(rule, y)
    bound = abs(s) / s.real * weighted_norm(rule, rhs)
    return LaplaceSolution(values=y, sol_norm=sn, bound=bound,
                           bound_ok=bool(sn <= bound * (1 + 1e-12)), residual=res)


# ---------------------------------------------------------------------------
# Convolution quadrature
# ---------------------------------------------------------------------------
def cq_solve(rule: QuadratureRule, params: PhysicalParams, grid: TimeGrid,
             source: PointSource) -> np.ndarray:
    """Y trace (steps+1, M) on the march's grid by operational calculus on the
    incident samples.

    L = 2 (steps + 1) transform points lie on the circle of radius
    eps_machine^(1/(2L)), inside the unit disk for every L; BDF2 is A-stable,
    so each frequency gamma(zeta)/h has positive real part.  Exploits
    conjugate symmetry of the frequencies: only half the circle is solved,
    the rest mirrored.
    """
    times = grid.times
    r_src = np.linalg.norm(rule.nodes - source.x0, axis=1)
    u_in = (params.raw.rho_c / r_src)[None, :] * pulse_eval(
        source.pulse, times[:, None] - (r_src / params.c0)[None, :], 0)

    ll = 2 * (grid.steps + 1)
    rho = float(np.finfo(float).eps ** (1.0 / (2.0 * ll)))
    scal = rho ** np.arange(ll)
    upad = np.zeros((ll, rule.m))
    upad[: len(times)] = u_in
    uhat = np.fft.fft(upad * scal[:, None], axis=0)
    zeta = rho * np.exp(-2j * np.pi * np.arange(ll) / ll)
    freqs = ((1.0 - zeta) + 0.5 * (1.0 - zeta) ** 2) / grid.h

    yhat = np.empty_like(uhat)
    half = ll // 2
    for l in range(half + 1):
        sol = laplace_solve(rule, params, complex(freqs[l]), uhat[l])
        yhat[l] = sol.values
    for l in range(half + 1, ll):
        yhat[l] = np.conj(yhat[ll - l])
    y = np.fft.ifft(yhat, axis=0).real / scal[:, None]
    return y[: len(times)]


def resolvent_sweep(rule: QuadratureRule, params: PhysicalParams,
                    s_values, rhs_values) -> list[dict]:
    """Tabulate the norm bound margin over frequency/rhs samples (CSV rows)."""
    rows = []
    for s, rhs in zip(s_values, rhs_values):
        sol = laplace_solve(rule, params, complex(s), rhs)
        rows.append({
            "s_real": s.real, "s_imag": s.imag,
            "sol_norm": sol.sol_norm, "bound": sol.bound,
            "margin": sol.bound - sol.sol_norm, "bound_ok": int(sol.bound_ok),
        })
    return rows
