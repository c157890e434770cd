"""Laplace-domain solver and convolution-quadrature cross-validator for any
delay network.

A ``DelayNetwork`` m_i x_i'' + x_i + sum_j c_ij x_j''(t - tau_ij) = f_i(t),
with zero initial data, transforms under the causal Laplace transform with
variable s (Re s = sigma > 0, the operational-calculus half-plane) into

    A(s) Yhat = s^2 fhat,   A(s) = diag(m s^2 + 1) + s^2 C(s),
    C_ij(s) = c_ij exp(-s tau_ij),

for the accelerations Y = x'', with C the network's couplings times the
phases of its delays, both read as one ``block`` of all n rows; an uncoupled
entry's zero coupling zeroes its term, and its delay, finite and
non-negative, gives a phase of modulus at most 1, so no entry needs masking.
A ``RetardedNetwork`` computes that block from its nodes at every call, so a
caller that solves at many frequencies hands the solver a matrix
``DelayNetwork`` built once from it, as the cq stage does.
For the collocated screen (``EffectiveSystem``) this is the transformed screen
equation (hbar s^2 + 1) Yhat + s^2 Shat_s[Yhat] = s^2 uhat_in: the network's
masses hold the equal-area-disk self terms, its couplings the column weights
over 4 pi r and its delays r/c0.  The cross-check therefore solves the very
network the RK4 march steps, and the two can differ only in how they step in
time.

The time-domain solution is reconstructed by Lubich convolution quadrature
with the BDF2 generating function gamma(z) = (1-z) + (1-z)^2/2: the solution
operator is sampled at the scaled unit circle s_l = gamma(rho e^{-2 pi i l/L})/h
and combined through a scaled FFT of the network's ``forcing`` at the grid's
nodes.

Solvability in the half-plane comes with the resolvent estimate
||Yhat|| <= (|s|/sigma) ||fhat|| in a quadrature-weighted norm, which the
screen satisfies.  The ``weights`` of that norm (the screen's patch areas) are
the only input beyond the network; ``laplace_solve`` reports the bound margin
on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError, UsageError
from .stepping import DelayNetwork, TimeGrid, check_memory


def assemble_operator(network: DelayNetwork, s: complex) -> np.ndarray:
    """A(s) = diag(m s^2 + 1) + s^2 C(s), C_ij = c_ij exp(-s tau_ij) from the
    network's couplings and delays, one ``block`` of all its rows."""
    if s.real <= 0:
        raise ParameterError("Laplace frequency must have positive real part")
    s2 = s * s
    coupling, delay = network.block(0, network.n)
    a = s2 * coupling * np.exp(-s * delay)
    np.fill_diagonal(a, network.masses * s2 + 1.0)
    if not np.all(np.isfinite(a)):
        raise SolverError("non-finite operator entries")
    return a


def weighted_norm(weights: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 norm with quadrature weights."""
    return float(np.sqrt((weights * np.abs(v) ** 2).sum()))


@dataclass
class LaplaceSolution:
    values: np.ndarray
    sol_norm: float
    bound: float           # (|s| / Re s) * weighted norm of rhs
    bound_ok: bool
    residual: float


def laplace_solve(network: DelayNetwork, weights: np.ndarray, s: complex,
                  rhs: np.ndarray) -> LaplaceSolution:
    """Solve A(s) Yhat = s^2 rhs at frequency s.

    ``rhs`` holds the per-oscillator transform of the forcing; the s^2 factor
    on the right side is applied internally.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (network.n,):
        raise UsageError("rhs must have one entry per oscillator")
    a = assemble_operator(network, s)
    b = s * s * rhs
    try:
        y = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # theory violation for Re s > 0
        raise SolverError(f"singular operator at s={s}: {exc}") from exc
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(a @ y - b) / bnorm) if bnorm > 0 else 0.0
    if res > 1e-8:
        raise SolverError(f"direct solve residual {res:.2e} exceeds 1e-8 at s={s}")
    sn = weighted_norm(weights, y)
    bound = abs(s) / s.real * weighted_norm(weights, rhs)
    return LaplaceSolution(values=y, sol_norm=sn, bound=bound,
                           bound_ok=bool(sn <= bound * (1 + 1e-12)), residual=res)


# ---------------------------------------------------------------------------
# Convolution quadrature
# ---------------------------------------------------------------------------
def cq_memory(n: int, grid: TimeGrid) -> dict:
    """The peak bytes of ``cq_solve`` on a network of n oscillators over
    ``grid``, checked by ``check_memory`` before the network is built.

    The estimate counts the matrix network's coupling and delay (16 B per
    n x n entry), ``assemble_operator``'s three complex n x n arrays (48 B) and
    LAPACK's copy of the operator (16 B), and about 40 B per transform
    point and oscillator, at L = 2 (steps + 1) points.
    """
    ll = 2 * (grid.steps + 1)
    return check_memory(80 * n * n + 40 * ll * n,
                        f"a CQ solve of n = {n} oscillators over {grid.steps} steps")


def cq_solve(network: DelayNetwork, weights: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Acceleration trace (steps+1, n) on the march's grid by operational
    calculus on the forcing sampled at the grid's nodes.

    L = 2 (steps + 1) transform points lie on the circle of radius
    eps_machine^(1/(2L)), inside the unit disk for every L; BDF2 is A-stable,
    so each frequency gamma(zeta)/h has positive real part.  Exploits
    conjugate symmetry of the frequencies: only half the circle is solved,
    the rest mirrored.
    """
    times = grid.times
    ll = 2 * (grid.steps + 1)
    rho = float(np.finfo(float).eps ** (1.0 / (2.0 * ll)))
    scal = rho ** np.arange(ll)
    upad = np.zeros((ll, network.n))
    upad[: len(times)] = network.forcing(times[:, None])
    uhat = np.fft.fft(upad * scal[:, None], axis=0)
    zeta = rho * np.exp(-2j * np.pi * np.arange(ll) / ll)
    freqs = ((1.0 - zeta) + 0.5 * (1.0 - zeta) ** 2) / grid.h

    yhat = np.empty_like(uhat)
    half = ll // 2
    for l in range(half + 1):
        sol = laplace_solve(network, weights, complex(freqs[l]), uhat[l])
        yhat[l] = sol.values
    for l in range(half + 1, ll):
        yhat[l] = np.conj(yhat[ll - l])
    y = np.fft.ifft(yhat, axis=0).real / scal[:, None]
    return y[: len(times)]


def resolvent_sweep(network: DelayNetwork, weights: np.ndarray,
                    s_values, rhs_values) -> list[dict]:
    """Tabulate the norm bound margin over frequency/rhs samples (CSV rows)."""
    rows = []
    for s, rhs in zip(s_values, rhs_values):
        sol = laplace_solve(network, weights, complex(s), rhs)
        rows.append({
            "s_real": s.real, "s_imag": s.imag,
            "sol_norm": sol.sol_norm, "bound": sol.bound,
            "margin": sol.bound - sol.sol_norm, "bound_ok": int(sol.bound_ok),
        })
    return rows
