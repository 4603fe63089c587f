"""Quantum-path picture of the coincidence signal in a four-mode sector.

Once post-selection demands exactly one photon at each of two far-field
detectors, only four photonic modes k1..k4 survive out of the full emission
mode space: k1/k2 propagate toward the first detector and k3/k4 toward the
second. The two photons then have exactly two indistinguishable routes,

    |path state> = |1 0 0 1> + |0 1 1 0>,

one photon in k1 and one in k4, or one in k2 and one in k3. This state is
path entangled even though the pre-selection emission state is separable:
the entanglement is created by detection-induced mode selection.

A detection event removes one photon and imprints the position-dependent
phase of the longer path:

    first detector:  |0001><1001| + e^{i phi1} |0010><0110|
    second detector: |0000><0010| + e^{i phi2} |0000><0001|

Chaining both detectors through the path state leaves a vacuum amplitude
e^{i phi2} + e^{i phi1} whose squared modulus, 2*(1 + cos(phi2 - phi1)),
reproduces the operator-algebra coincidence fringe up to a constant factor.

States live in the full 16-dimensional 0/1-occupation space, so the
Schmidt rank across the detector cut, (k1, k2) | (k3, k4), witnesses
entanglement for arbitrary states, not just the physically reachable ones.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping

import numpy as np

Pattern = tuple[int, int, int, int]


class DetectorStage(Enum):
    """Which of the two detection events an operator describes."""

    FIRST = "first"
    SECOND = "second"


class FourModeState:
    """Complex amplitudes over the 16 occupation patterns of modes k1..k4.

    Wraps an immutable (2, 2, 2, 2) complex array indexed by the occupation
    numbers (n1, n2, n3, n4), each 0 or 1.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: np.ndarray) -> None:
        amp = np.array(amplitudes, dtype=complex)
        if amp.shape != (2, 2, 2, 2):
            raise ValueError(f"amplitudes must have shape (2,2,2,2), got {amp.shape}")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        amp.setflags(write=False)
        self._amp = amp

    @classmethod
    def from_terms(cls, terms: Mapping[Pattern, complex]) -> "FourModeState":
        amp = np.zeros((2, 2, 2, 2), dtype=complex)
        for pattern, value in terms.items():
            amp[pattern] = value
        return cls(amp)

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude array."""
        return self._amp

    def amplitude(self, pattern: Pattern) -> complex:
        return complex(self._amp[pattern])

    def is_zero(self) -> bool:
        return not np.any(self._amp)


def postselected_state() -> FourModeState:
    """Two-photon state surviving one-photon-per-detector post-selection.

    The paper's unit-weight superposition |1001> + |0110> of the two quantum
    paths, left unnormalized as ``final_amplitude`` assumes; the Schmidt rank
    does not depend on the scale.
    """
    return FourModeState.from_terms({(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0})


def apply_detector(
    stage: DetectorStage, phase: float, state: FourModeState
) -> FourModeState:
    """Remove one photon at a detector, imprinting its path phase.

    The first detection takes |1001> -> |0001| and |0110> -> e^{i phase}|0010>;
    the second collapses what remains onto the vacuum, |0010> -> |0000> and
    |0001> -> e^{i phase}|0000>. Both maps are linear and intentionally
    non-unitary; amplitudes are squared only at the very end.
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    amp = np.zeros((2, 2, 2, 2), dtype=complex)
    if stage is DetectorStage.FIRST:
        amp[0, 0, 0, 1] = state.amplitude((1, 0, 0, 1))
        amp[0, 0, 1, 0] = np.exp(1j * phase) * state.amplitude((0, 1, 1, 0))
    elif stage is DetectorStage.SECOND:
        amp[0, 0, 0, 0] = state.amplitude((0, 0, 1, 0)) + np.exp(
            1j * phase
        ) * state.amplitude((0, 0, 0, 1))
    else:
        raise ValueError(f"unknown detector stage {stage!r}")
    return FourModeState(amp)


def final_amplitude(
    phi1: float | np.ndarray, phi2: float | np.ndarray
) -> complex | np.ndarray:
    """Vacuum amplitude e^{i phi2} + e^{i phi1} after both detections.

    Array phases broadcast; scalar phases give a numpy complex scalar.
    """
    return np.exp(1j * phi2) + np.exp(1j * phi1)


def schmidt_coefficients(state: FourModeState) -> np.ndarray:
    """Singular values across the detector cut (k1, k2) | (k3, k4), descending.

    The (n1, n2) occupations index the rows and (n3, n4) the columns.
    """
    if state.is_zero():
        raise ValueError("Schmidt decomposition of the zero state is undefined")
    return np.linalg.svd(state.amplitudes.reshape(4, 4), compute_uv=False)


#: Schmidt coefficients at or below this fraction of the largest count as zero.
_RANK_TOL = 1e-10


def schmidt_rank(state: FourModeState) -> int:
    """Number of Schmidt coefficients above 1e-10 times the largest.

    Rank 1 means the state factorizes into the first detector's modes and
    the second's; rank >= 2 witnesses path entanglement between them.
    """
    coeffs = schmidt_coefficients(state)
    return int(np.count_nonzero(coeffs > _RANK_TOL * coeffs[0]))
