"""Pseudo-spectral laboratory for the complex modified KdV family on the torus.

Simulates the three renormalization stages of the equation, converts between
them through explicit gauge transformations, measures Fourier-Lebesgue
norms, and drives scripted experiments around conservation, ill-posedness,
and momentum divergence.
"""

from ._version import __version__
from .dynamics import (
    VARIANTS,
    EquationSpec,
    Trajectory,
    j1_multiplier_sum,
    nonlinearity,
    phase_schedule,
    phi_resonance,
    residual_check,
    solve,
    solve_many,
    stability_dt_limit,
)
from .errors import ConfigError, SolverAbort, StabilityWarning
from .experiments import (
    EXPERIMENTS,
    ExperimentReport,
    Series,
    VerdictRecord,
    run_experiment,
    write_report,
)
from .gauges import GAUGES, GaugeSpec, apply_gauge, invert_gauge
from .norms import (
    NormSpec,
    fl_norm,
    japanese_bracket,
    mass,
    momentum,
    raised_cosine,
)
from .presets import PRESET_NAMES, parse_preset, preset_state
from .spectral import (
    FourierState,
    conjugate_state,
    padded_grid_size,
    project_high,
    project_low,
    state_from_modes,
    synthesis,
    zero_state,
)

__all__ = [
    "__version__",
    "VARIANTS",
    "EquationSpec",
    "Trajectory",
    "j1_multiplier_sum",
    "nonlinearity",
    "phase_schedule",
    "phi_resonance",
    "residual_check",
    "solve",
    "solve_many",
    "stability_dt_limit",
    "ConfigError",
    "SolverAbort",
    "StabilityWarning",
    "EXPERIMENTS",
    "ExperimentReport",
    "Series",
    "VerdictRecord",
    "run_experiment",
    "write_report",
    "GAUGES",
    "GaugeSpec",
    "apply_gauge",
    "invert_gauge",
    "NormSpec",
    "fl_norm",
    "japanese_bracket",
    "mass",
    "momentum",
    "raised_cosine",
    "PRESET_NAMES",
    "parse_preset",
    "preset_state",
    "FourierState",
    "conjugate_state",
    "padded_grid_size",
    "project_high",
    "project_low",
    "state_from_modes",
    "synthesis",
    "zero_state",
]
