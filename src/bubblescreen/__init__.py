"""Time-domain scattering by surface-distributed resonant bubble clusters.

Point-scatterer (delay-coupled oscillator) and effective dispersive-screen
solvers, a Laplace-domain/convolution-quadrature cross-validator, and an
experiment harness for homogenization-rate, resonance-regime and counting
studies.
"""

__version__ = "0.1.0"

from .materials import (RawMaterials, ShapeDescriptor, derive_params,
                        geometric_constant, validate_conditions)
from .geometry import (BubbleCluster, KFunction, build_surface,
                       counting_scaling_check, partition, place_bubbles)
from .sources import PointSource, SourcePulse, incident_eval, pulse_eval
from .stepping import DelayNetwork, TimeGrid
from .foldy import assemble
from .effective import EffectiveField, QuadratureRule, build_rule, effective_grid
from .laplace_cq import cq_solve, laplace_solve
from .config import ExperimentConfig

__all__ = [
    "RawMaterials", "ShapeDescriptor", "derive_params", "geometric_constant",
    "validate_conditions",
    "BubbleCluster", "KFunction", "build_surface", "counting_scaling_check",
    "partition", "place_bubbles",
    "PointSource", "SourcePulse", "incident_eval", "pulse_eval",
    "DelayNetwork", "TimeGrid",
    "assemble",
    "EffectiveField", "QuadratureRule", "build_rule", "effective_grid",
    "cq_solve", "laplace_solve",
    "ExperimentConfig",
]
