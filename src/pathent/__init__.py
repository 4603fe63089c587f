"""Photon correlations, CH74 Bell tests and path entanglement from two
independent single-photon emitters.

The package covers three consistent views of the same two-emitter setup:
the operator-algebra calculation of the coincidence signal, the analytic
correlation functions with their probability interpretation, and a reduced
four-mode quantum-path model in which detection-induced mode selection turns
a separable emission state into a path-entangled one. On top sit a CH74
Bell-inequality evaluator with the 1/sqrt(2) visibility threshold and a
seeded Monte Carlo coincidence experiment that reproduces the violation at
finite sample size.
"""

from .bell import (
    ChResult,
    ChSettings,
    VIOLATION_TOL,
    bell_angle_settings,
    ch_statistic,
    critical_visibility,
    star_probability,
)
from .correlations import (
    Efficiency,
    UNIT_EFFICIENCY,
    UNIT_VISIBILITY,
    Visibility,
    conditional_probability_at_phase,
    fringe,
    g1,
    g2_at_phase,
    joint_probability_at_phase,
    marginal_probability,
)
from .geometry import (
    DetectorSetting,
    EmitterPair,
    detector_for_phase,
    phase_at,
    phase_difference,
)
from .montecarlo import McConfig, McEstimate, estimate_ch, simulate_counts
from .pathmodel import (
    DetectorStage,
    FourModeState,
    apply_detector,
    final_amplitude,
    postselected_state,
    schmidt_coefficients,
    schmidt_rank,
)
from .quantum_core import (
    Atom,
    AtomicState,
    FieldParams,
    apply_field_negative,
    lowering,
    two_photon_amplitude,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomicState",
    "ChResult",
    "ChSettings",
    "DetectorSetting",
    "DetectorStage",
    "Efficiency",
    "EmitterPair",
    "FieldParams",
    "FourModeState",
    "McConfig",
    "McEstimate",
    "UNIT_EFFICIENCY",
    "UNIT_VISIBILITY",
    "VIOLATION_TOL",
    "Visibility",
    "apply_detector",
    "apply_field_negative",
    "bell_angle_settings",
    "ch_statistic",
    "conditional_probability_at_phase",
    "critical_visibility",
    "detector_for_phase",
    "estimate_ch",
    "final_amplitude",
    "fringe",
    "g1",
    "g2_at_phase",
    "joint_probability_at_phase",
    "lowering",
    "marginal_probability",
    "phase_at",
    "phase_difference",
    "postselected_state",
    "schmidt_coefficients",
    "schmidt_rank",
    "simulate_counts",
    "star_probability",
    "two_photon_amplitude",
]
