"""Causal modulated source signal and the incident spherical wave.

The pulse is amplitude * chi(t) * sin(omega0 * t) with a smooth causal ramp
chi: identically 0 for t <= 0, identically 1 for t >= t_rise, and C-infinity
across both junctions.  The ramp is the standard quotient bump

    chi(t) = f(s) / (f(s) + f(1 - s)),   s = t / t_rise,   f(x) = exp(-1/x),

whose derivatives of every order vanish at s = 0 and s = 1, so the pulse and
all retarded fields built from it are genuinely smooth.  The pipeline reads
the pulse only through the incident wave ``incident_eval``: u_in, built on
lambda itself (the screen forcing, the CQ samples and the total field), and
d2/dt2 u_in, built on lambda'' (the Foldy forcing), both in closed form.  At
order 0 the ramp's derivatives are not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationPointError, UsageError


def _bump_derivs(x: np.ndarray, order: int):
    """f = exp(-1/x) on x > 0 (zero otherwise), and for ``order`` 2 its
    derivatives 1 and 2 as well."""
    out = [np.zeros_like(x) for _ in range(order + 1)]
    m = x > 0
    xm = x[m]
    e = np.exp(-1.0 / xm)
    out[0][m] = e
    if order:
        out[1][m] = e / xm**2
        out[2][m] = e * (1.0 / xm**4 - 2.0 / xm**3)
    return out


def _ramp_derivs(t: np.ndarray, t_rise: float, order: int):
    """chi(t), and for ``order`` 2 its first two t-derivatives as well."""
    s = t / t_rise
    out = [np.zeros_like(t) for _ in range(order + 1)]
    out[0][t >= t_rise] = 1.0
    m = (t > 0) & (t < t_rise)
    if not m.any():
        return out
    a, *da = _bump_derivs(s[m], order)
    b, *db = _bump_derivs(1.0 - s[m], order)
    den = a + b
    out[0][m] = a / den
    if order:
        (a1, a2), (b1, b2) = da, db
        b1 = -b1  # chain rule through (1 - s)
        d1 = a1 + b1
        num = a1 * b - a * b1
        num1 = a2 * b - a * b2
        out[1][m] = num / den**2 / t_rise
        out[2][m] = (num1 / den**2 - 2 * num * d1 / den**3) / t_rise**2
    return out


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
    w = pulse.omega0
    s = np.sin(w * t)
    if order == 0:
        out = _ramp_derivs(t, pulse.t_rise, 0)[0] * s
    else:
        c0, c1, c2 = _ramp_derivs(t, pulse.t_rise, 2)
        out = c2 * s + 2 * c1 * w * np.cos(w * t) - c0 * w**2 * s
    out *= pulse.amplitude
    return out


@dataclass(frozen=True)
class PointSource:
    """Monopole point source at ``x0`` emitting ``pulse`` into a medium of
    density ``rho_c`` and sound speed ``c0``; ``incident_eval`` is its wave."""

    x0: np.ndarray
    pulse: SourcePulse
    rho_c: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))


def incident_eval(source: PointSource, x: np.ndarray, t, order: int = 0) -> np.ndarray:
    """The incident wave at the points ``x`` (p, 3): u_in (``order`` 0) or
    d2/dt2 u_in (``order`` 2), (rho_c / r) * lambda^(order)(t - r / c0) at
    the distances r (p,) from the source.

    ``t`` broadcasts against the (p,) distances as numpy does: a scalar gives
    (p,), an (m, 1) column (m, p).  This is the one place u_in is written:
    both models' forcing calls it, and so do the convolution quadrature's
    samples and the total field.
    """
    r = np.linalg.norm(x - source.x0, axis=1)
    if np.any(r == 0.0):
        raise EvaluationPointError("incident field evaluated at the source point")
    return (source.rho_c / r) * pulse_eval(source.pulse, t - r / source.c0, order)
