"""Causal modulated source signal and the incident spherical wave.

The pulse is amplitude * chi(t) * sin(omega0 * t) with a smooth causal ramp
chi: identically 0 for t <= 0, identically 1 for t >= t_rise, and C-infinity
across both junctions.  The ramp is the standard quotient bump

    chi(t) = f(s) / (f(s) + f(1 - s)),   s = t / t_rise,   f(x) = exp(-1/x),

whose derivatives of every order vanish at s = 0 and s = 1, so the pulse and
all retarded fields built from it are genuinely smooth.  The pipeline needs
lambda itself (the screen forcing and the CQ samples) and lambda'' (the Foldy
forcing), both evaluated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationPointError, UsageError


def _bump_derivs(x: np.ndarray):
    """f = exp(-1/x) on x > 0 (zero otherwise) and derivatives 1 and 2."""
    f = np.zeros_like(x)
    f1 = np.zeros_like(x)
    f2 = np.zeros_like(x)
    m = x > 0
    xm = x[m]
    e = np.exp(-1.0 / xm)
    f[m] = e
    f1[m] = e / xm**2
    f2[m] = e * (1.0 / xm**4 - 2.0 / xm**3)
    return f, f1, f2


def _ramp_derivs(t: np.ndarray, t_rise: float):
    """chi(t) and its first two t-derivatives."""
    s = t / t_rise
    c0 = np.zeros_like(t)
    c1 = np.zeros_like(t)
    c2 = np.zeros_like(t)
    c0[t >= t_rise] = 1.0
    m = (t > 0) & (t < t_rise)
    if m.any():
        a, a1, a2 = _bump_derivs(s[m])
        b, b1, b2 = _bump_derivs(1.0 - s[m])
        b1 = -b1  # chain rule through (1 - s)
        den = a + b
        d1 = a1 + b1
        num = a1 * b - a * b1
        num1 = a2 * b - a * b2
        c0[m] = a / den
        c1[m] = num / den**2 / t_rise
        c2[m] = (num1 / den**2 - 2 * num * d1 / den**3) / t_rise**2
    return c0, c1, c2


@dataclass(frozen=True)
class SourcePulse:
    """Modulated causal signal lambda(t) = amplitude * chi(t) * sin(omega0 t)."""

    omega0: float
    t_rise: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.omega0 <= 0 or self.t_rise <= 0:
            raise ConfigError("omega0 and t_rise must be positive")


def pulse_eval(pulse: SourcePulse, t: np.ndarray, order: int) -> np.ndarray:
    """lambda (``order`` 0) or lambda'' (``order`` 2) at the array of times ``t``."""
    if order not in (0, 2):
        raise UsageError(f"pulse order {order} is neither 0 nor 2")
    c0, c1, c2 = _ramp_derivs(t, pulse.t_rise)
    w = pulse.omega0
    s = np.sin(w * t)
    if order == 0:
        out = c0 * s
    else:
        out = c2 * s + 2 * c1 * w * np.cos(w * t) - c0 * w**2 * s
    out *= pulse.amplitude
    return out


@dataclass(frozen=True)
class PointSource:
    """Monopole point source: u_in(x, t) = rho_c * lambda(t - |x-x0|/c0) / |x-x0|."""

    x0: np.ndarray
    pulse: SourcePulse
    rho_c: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))


def incident_eval(source: PointSource, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Retarded incident field u_in at the points ``x`` (p, 3) and the times
    ``t`` (m,), as (p, m)."""
    r = np.linalg.norm(x - source.x0, axis=1)
    if np.any(r == 0.0):
        raise EvaluationPointError("incident field evaluated at the source point")
    retarded = t[None, :] - (r / source.c0)[:, None]
    return source.rho_c * pulse_eval(source.pulse, retarded, 0) / r[:, None]
