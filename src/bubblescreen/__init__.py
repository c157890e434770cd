"""Time-domain scattering by surface-distributed resonant bubble clusters.

Point-scatterer (delay-coupled oscillator) and effective dispersive-screen
solvers, a Laplace-domain/convolution-quadrature cross-validator, and an
experiment harness for homogenization-rate, transmission-condition, and
resonance-regime studies.
"""

__version__ = "0.1.0"

from .materials import (RawMaterials, PhysicalParams, ShapeDescriptor,
                        ValidationReport, derive_params, geometric_constant,
                        validate_conditions)
from .geometry import (BubbleCluster, KFunction, Patchwork, SurfaceDescriptor,
                       build_surface, counting_scaling_check,
                       inverse_distance_sum, partition, place_bubbles)
from .sources import PointSource, SourcePulse, incident_eval, pulse_eval
from .stepping import DelayNetwork, TimeGrid, Trace
from .foldy import (DelaySystem, assemble, default_grid, scattered_field,
                    scattered_series)
from .effective import (EffectiveField, QuadratureRule, build_rule,
                        effective_grid, effective_scattered, jump_residual,
                        kernel_identity_residual, memory_convolution,
                        solve_effective)
from .laplace_cq import CQScheme, cq_solve, laplace_solve
from .config import ExperimentConfig
from .experiments import (compare_fields, convergence_sweep, regime_sweep,
                          run_compare, build_scene)

__all__ = [
    "RawMaterials", "PhysicalParams", "ShapeDescriptor", "ValidationReport",
    "derive_params", "geometric_constant", "validate_conditions",
    "BubbleCluster", "KFunction", "Patchwork", "SurfaceDescriptor",
    "build_surface", "counting_scaling_check", "inverse_distance_sum",
    "partition", "place_bubbles",
    "PointSource", "SourcePulse", "incident_eval", "pulse_eval",
    "DelayNetwork", "TimeGrid", "Trace",
    "DelaySystem", "assemble", "default_grid", "scattered_field",
    "scattered_series",
    "EffectiveField", "QuadratureRule", "build_rule", "effective_grid",
    "effective_scattered", "jump_residual", "kernel_identity_residual",
    "memory_convolution", "solve_effective",
    "CQScheme", "cq_solve", "laplace_solve",
    "ExperimentConfig", "compare_fields", "convergence_sweep", "regime_sweep",
    "run_compare", "build_scene",
]
