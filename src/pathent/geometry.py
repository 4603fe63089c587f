"""Far-field geometry of two emitters and the detectors observing them.

Two point emitters separated by a distance d are observed in the far field.
A detector at observation angle xi (measured from the perpendicular bisector
of the emitter axis, double-slit convention) sees the two emission paths with
a relative phase kd*sin(xi), where k is the transition wavenumber. Only the
dimensionless product kd matters.

Detector angles may be numpy arrays: the phase functions broadcast over them,
a scalar angle being the 0-d case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class EmitterPair:
    """Two emitters a distance d apart, reduced to the product kd = 2*pi*d/lambda."""

    kd: float

    def __post_init__(self) -> None:
        if not math.isfinite(2.0 * self.kd):  # 2*kd bounds every phase difference
            raise ValueError(f"kd must be finite with 2*kd finite, got {self.kd!r}")
        if self.kd <= 0:
            raise ValueError(f"kd must be positive, got {self.kd!r}")


@dataclass(frozen=True)
class DetectorSetting:
    """Far-field detectors at observation angles xi in [-pi/2, pi/2] radians.

    ``xi`` is a scalar or an array of angles, each of which is validated.
    """

    xi: float | np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi)
        valid = np.abs(xi) <= HALF_PI  # False for NaN
        if not valid.all():
            raise ValueError(f"xi must lie in [-pi/2, pi/2], got {xi[~valid][0]}")


def phase_at(geometry: EmitterPair, detector: DetectorSetting) -> float | np.ndarray:
    """Relative phase kd*sin(xi) between the two emission paths at the detector."""
    return geometry.kd * np.sin(detector.xi)


def phase_difference(
    geometry: EmitterPair, det_a: DetectorSetting, det_b: DetectorSetting
) -> float | np.ndarray:
    """Phase at det_b minus phase at det_a; the argument of the interference fringe."""
    return phase_at(geometry, det_b) - phase_at(geometry, det_a)


def detector_for_phase(geometry: EmitterPair, phase: float) -> DetectorSetting:
    """Place a detector so that its path phase equals ``phase``.

    Inverts phase_at via arcsin. Raises ValueError when |phase| > kd, i.e.
    when no observation angle can realize the requested phase.
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    ratio = phase / geometry.kd
    if abs(ratio) > 1.0:
        raise ValueError(
            f"phase {phase!r} is not realizable: |phase| exceeds kd = {geometry.kd!r}"
        )
    return DetectorSetting(xi=math.asin(ratio))
