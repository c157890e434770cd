"""Causal modulated source signal and the incident spherical wave.

The pulse is amplitude * chi(t) * sin(omega0 * t) with a smooth causal ramp
chi: identically 0 for t <= 0, identically 1 for t >= t_rise, and C-infinity
across both junctions.  The ramp is the standard quotient bump

    chi(t) = f(s) / (f(s) + f(1 - s)),   s = t / t_rise,   f(x) = exp(-1/x),

whose derivatives of every order vanish at s = 0 and s = 1, so the pulse and
all retarded fields built from it are genuinely smooth; derivatives up to
third order are evaluated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationPointError, UsageError


def _bump_derivs(x: np.ndarray):
    """f = exp(-1/x) on x > 0 (zero otherwise) and derivatives 1..3."""
    f = np.zeros_like(x)
    f1 = np.zeros_like(x)
    f2 = np.zeros_like(x)
    f3 = np.zeros_like(x)
    m = x > 0
    xm = x[m]
    e = np.exp(-1.0 / xm)
    f[m] = e
    f1[m] = e / xm**2
    f2[m] = e * (1.0 / xm**4 - 2.0 / xm**3)
    f3[m] = e * (1.0 / xm**6 - 6.0 / xm**5 + 6.0 / xm**4)
    return f, f1, f2, f3


def _ramp_derivs(t: np.ndarray, t_rise: float):
    """chi(t) and its first three t-derivatives."""
    t = np.asarray(t, dtype=float)
    s = t / t_rise
    c0 = np.zeros_like(t)
    c1 = np.zeros_like(t)
    c2 = np.zeros_like(t)
    c3 = np.zeros_like(t)
    c0[t >= t_rise] = 1.0
    m = (t > 0) & (t < t_rise)
    if m.any():
        a, a1, a2, a3 = _bump_derivs(s[m])
        b, b1, b2, b3 = _bump_derivs(1.0 - s[m])
        b1, b3 = -b1, -b3  # chain rule through (1 - s)
        den = a + b
        d1 = a1 + b1
        d2 = a2 + b2
        num = a1 * b - a * b1
        num1 = a2 * b - a * b2
        num2 = a3 * b + a2 * b1 - a1 * b2 - a * b3
        c0[m] = a / den
        c1[m] = num / den**2 / t_rise
        c2[m] = (num1 / den**2 - 2 * num * d1 / den**3) / t_rise**2
        c3[m] = (
            num2 / den**2 - 4 * num1 * d1 / den**3
            - 2 * num * d2 / den**3 + 6 * num * d1**2 / den**4
        ) / t_rise**3
    return c0, c1, c2, c3


@dataclass(frozen=True)
class SourcePulse:
    """Modulated causal signal lambda(t) = amplitude * chi(t) * sin(omega0 t)."""

    omega0: float
    t_rise: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.omega0 <= 0 or self.t_rise <= 0:
            raise ConfigError("omega0 and t_rise must be positive")


def pulse_eval(pulse: SourcePulse, t, deriv_order: int = 0):
    """Evaluate lambda or one of its first three derivatives."""
    if deriv_order not in (0, 1, 2, 3):
        raise UsageError(f"deriv_order {deriv_order} not in 0..3")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    c0, c1, c2, c3 = _ramp_derivs(t_arr, pulse.t_rise)
    w = pulse.omega0
    s, c = np.sin(w * t_arr), np.cos(w * t_arr)
    if deriv_order == 0:
        out = c0 * s
    elif deriv_order == 1:
        out = c1 * s + c0 * w * c
    elif deriv_order == 2:
        out = c2 * s + 2 * c1 * w * c - c0 * w**2 * s
    else:
        out = c3 * s + 3 * c2 * w * c - 3 * c1 * w**2 * s - c0 * w**3 * c
    out *= pulse.amplitude
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PointSource:
    """Monopole point source: u_in(x, t) = rho_c * lambda(t - |x-x0|/c0) / |x-x0|."""

    x0: np.ndarray
    pulse: SourcePulse
    rho_c: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))


def incident_eval(source: PointSource, x, t, time_deriv: int = 0):
    """Retarded incident field or its second time derivative at (x, t).

    ``x`` may be (3,) or (p, 3); ``t`` may be scalar or (m,).  Result shape is
    scalar, (p,), (m,), or (p, m) accordingly.
    """
    if time_deriv not in (0, 2):
        raise UsageError("time_deriv must be 0 or 2")
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    single_x = np.asarray(x).ndim == 1
    r = np.linalg.norm(x_arr - source.x0, axis=1)
    if np.any(r == 0.0):
        raise EvaluationPointError("incident field evaluated at the source point")
    t_arr = np.asarray(t, dtype=float)
    scalar_t = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    retarded = t_arr[None, :] - (r / source.c0)[:, None]
    vals = pulse_eval(source.pulse, retarded.ravel(), time_deriv).reshape(retarded.shape)
    out = source.rho_c * vals / r[:, None]
    if single_x:
        out = out[0]
        return float(out[0]) if scalar_t else out
    return out[:, 0] if scalar_t else out
