"""Physical constants, derived resonance quantities, and solvability checks.

The bubble contrast is encoded through the scalings kappa_b = eps^2 * kappa_b_bar
and rho_b = eps^2 * rho_b_bar, which keep the interior wave speed order one while
the monopole (Minnaert) resonance stays at a finite frequency as eps -> 0.  The
resonance is parametrized by

    omega_m_sq = rho_c * A / (2 * kappa_b_bar),

where A is a purely geometric constant of the reference bubble shape,

    A = (1/|dB|) * integral_{dB x dB}  (x - y).nu_x / |x - y|  dsigma_x dsigma_y.

For a ball of radius a the integrand reduces to |x - y| / (2a) and
A = 8 pi a^2 / 3, which is 2*vol(B) for the unit reference ball; there
omega_m_sq equals the coupling prefactor c_bar = vol(B)*rho_c/kappa_b_bar.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import GeometryError, ParameterError
from .geometry import max_anchor_sums

#: Classical magnetization-operator eigenvalue for a ball; used only inside the
#: point-scatterer inversion condition and overridable through the config.
DEFAULT_LAMBDA1_MAG = 1.0 / 3.0


@dataclass(frozen=True)
class ShapeDescriptor:
    """Reference bubble shape: the ball of ``radius`` (the unit ball by
    default), the one shape the closed-form constants below hold for."""

    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("reference shape radius must be positive")

    @property
    def volume(self) -> float:
        return 4.0 * np.pi * self.radius**3 / 3.0

    @property
    def surface_area(self) -> float:
        return 4.0 * np.pi * self.radius**2


@dataclass(frozen=True)
class RawMaterials:
    """Material constants of the background medium and the bubble gas.

    ``rho_b_bar`` and ``kappa_b_bar`` are the eps-independent prefactors of the
    contrast scalings; ``lambda1_mag`` is the magnetization eigenvalue entering
    the inversion condition (user supplied, defaults to the ball value 1/3).
    """

    rho_c: float = 1.0
    kappa_c: float = 1.0
    rho_b_bar: float = 1.0
    kappa_b_bar: float = 1.0
    eps: float = 1.0 / 64.0
    lambda1_mag: float = DEFAULT_LAMBDA1_MAG

    def __post_init__(self):
        for name in ("rho_c", "kappa_c", "rho_b_bar", "kappa_b_bar", "eps", "lambda1_mag"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be strictly positive")
        if self.eps >= 1.0:
            warnings.warn(
                f"eps = {self.eps} is not small; outside the asymptotic regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class PhysicalParams:
    """Derived quantities used by every solver.

    Attributes
    ----------
    c0 : background wave speed (paper convention sqrt(rho/kappa)).
    omega_m_sq : squared Minnaert resonance frequency.
    c_bar : coupling prefactor vol(B)*rho_c/kappa_b_bar.
    c_eps : per-bubble coupling constant c_bar * eps.
    """

    c0: float
    omega_m_sq: float
    c_bar: float
    c_eps: float
    vol_b: float
    raw: RawMaterials = field(repr=False)

    @property
    def omega_m(self) -> float:
        return float(np.sqrt(self.omega_m_sq))

    def with_scaled_resonance(self, factor: float) -> "PhysicalParams":
        """Return a copy with omega_m scaled by ``factor`` (regime sweeps)."""
        if factor <= 0:
            raise ParameterError("resonance scale factor must be positive")
        return replace(self, omega_m_sq=self.omega_m_sq * factor**2)

    def with_scaled_coupling(self, factor: float) -> "PhysicalParams":
        """Return a copy with c_bar (and c_eps) scaled by ``factor``."""
        if factor <= 0:
            raise ParameterError("coupling scale factor must be positive")
        return replace(self, c_bar=self.c_bar * factor, c_eps=self.c_eps * factor)


def geometric_constant(shape: ShapeDescriptor) -> float:
    """The shape constant A of the reference ball in closed form, 8 pi a^2 / 3.

    With the integrand |x - y| / (2a) and the mean chord 4a/3 between two
    points of the sphere, A = |dB| * (4a/3) / (2a) = (2/3) |dB|.
    """
    return 2.0 * shape.surface_area / 3.0


def derive_params(raw: RawMaterials, shape: ShapeDescriptor | None = None) -> PhysicalParams:
    """Derive wave speeds and resonance quantities from raw materials.

    Every derived quantity must be finite and positive: finite, positive
    inputs whose products leave the float range raise ``ParameterError``."""
    shape = shape or ShapeDescriptor()
    try:
        area, volume = geometric_constant(shape), shape.volume
    except OverflowError:   # radius**2 of a huge radius
        area = volume = np.inf
    c0 = float(np.sqrt(raw.rho_c / raw.kappa_c))
    omega_m_sq = raw.rho_c * area / (2.0 * raw.kappa_b_bar)
    c_bar = volume * raw.rho_c / raw.kappa_b_bar
    derived = {"c0": c0, "omega_m_sq": omega_m_sq, "c_bar": c_bar,
               "c_eps": c_bar * raw.eps, "vol_b": volume}
    if not all(0.0 < value < np.inf for value in derived.values()):
        raise ParameterError(f"the materials, bubble_shape.radius and eps give {derived}: "
                             f"each must be finite and positive")
    return PhysicalParams(**derived, raw=raw)


# ---------------------------------------------------------------------------
# Solvability conditions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationReport:
    """Result of the two solvability-condition checks.

    ``cond_resonance_lhs`` is the maximum over anchor bubbles of the sum of
    c_eps/(4*pi*|z_a - z_b|) over all other bubbles (conservative reading of
    the interaction condition); the pass flag compares
    sqrt(k_max) * cond_resonance_lhs against omega_m_sq.
    """

    cond_inversion_lhs: float
    cond_resonance_lhs: float
    omega_m_sq: float
    k_max: float
    pass_inversion: bool
    pass_resonance: bool

    def to_text(self) -> str:
        return "".join(f"{k}={v!r}\n" for k, v in asdict(self).items())


def validate_conditions(params: PhysicalParams, cluster) -> ValidationReport:
    """Evaluate the inversion and interaction solvability conditions.

    ``cluster`` must expose ``centers`` (n, 3) and per-patch ``counts``; see
    :class:`bubblescreen.geometry.BubbleCluster`.  Both conditions are read
    from one ``max_anchor_sums`` pass over the centers: the inversion
    condition from the least distance, the interaction condition from the
    largest anchor sum of 1/r.  Coincident centers raise ``GeometryError``.
    """
    centers = np.asarray(cluster.centers, dtype=float)
    if centers.ndim != 2 or len(centers) == 0:
        raise GeometryError("cluster must contain at least one bubble")
    raw = params.raw
    k_max = float(np.max(cluster.counts)) if len(cluster.counts) else 1.0

    d_min, (largest,) = max_anchor_sums(centers, [1.0])
    cond_res = float(params.c_eps / (4.0 * np.pi) * largest)
    # a single bubble has d_min = inf, so ratio 0
    ratio = raw.eps / d_min
    if not 0.0 < raw.lambda1_mag * raw.lambda1_mag < np.inf:
        raise ParameterError(f"materials.lambda1_mag = {raw.lambda1_mag!r} squares "
                             f"outside the float range")
    cond_inv = (raw.rho_c / (4.0 * np.pi)) * params.vol_b * ratio**6 / raw.lambda1_mag**2

    return ValidationReport(
        cond_inversion_lhs=float(cond_inv),
        cond_resonance_lhs=cond_res,
        omega_m_sq=params.omega_m_sq,
        k_max=k_max,
        pass_inversion=bool(cond_inv < 1.0),
        pass_resonance=bool(np.sqrt(k_max) * cond_res < params.omega_m_sq),
    )
