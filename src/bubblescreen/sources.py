"""Causal modulated source signal and the incident spherical wave.

The pulse is amplitude * chi(t) * sin(omega0 * t) with a smooth causal ramp
chi: identically 0 for t <= 0, identically 1 for t >= t_rise, and C-infinity
across both junctions.  The ramp is the standard quotient bump

    chi(t) = f(s) / (f(s) + f(1 - s)),   s = t / t_rise,   f(x) = exp(-1/x),

whose derivatives of every order vanish at s = 0 and s = 1, so the pulse and
all retarded fields built from it are genuinely smooth.  The pipeline reads
the pulse only through the incident wave ``incident_eval``, u_in built on
lambda itself: it forces both models, and it gives the CQ samples and the
total field.  No derivative of the pulse is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationPointError


def _bump(x: np.ndarray) -> np.ndarray:
    """f = exp(-1/x) on x > 0, zero otherwise."""
    out = np.zeros_like(x)
    m = x > 0
    out[m] = np.exp(-1.0 / x[m])
    return out


def _ramp(t: np.ndarray, t_rise: float) -> np.ndarray:
    """chi(t), its quotient formed on the rise window only."""
    out = np.zeros_like(t)
    out[t >= t_rise] = 1.0
    m = (t > 0) & (t < t_rise)
    if m.any():
        s = t[m] / t_rise
        a = _bump(s)
        out[m] = a / (a + _bump(1.0 - s))
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


def pulse_eval(pulse: SourcePulse, t: np.ndarray) -> np.ndarray:
    """lambda at the array of times ``t``."""
    out = _ramp(t, pulse.t_rise) * np.sin(pulse.omega0 * t)
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


def incident_eval(source: PointSource, x: np.ndarray, t) -> np.ndarray:
    """The incident wave u_in = (rho_c / r) * lambda(t - r / c0) at the
    points ``x`` (p, 3), at the distances r (p,) from the source.

    ``t`` broadcasts against the (p,) distances as numpy does: a scalar gives
    (p,), an (m, 1) column (m, p).  This is the one place u_in is written:
    both models' forcing calls it, and so do the convolution quadrature's
    samples and the total field.
    """
    r = np.linalg.norm(x - source.x0, axis=1)
    if np.any(r == 0.0):
        raise EvaluationPointError("incident field evaluated at the source point")
    return (source.rho_c / r) * pulse_eval(source.pulse, t - r / source.c0)
