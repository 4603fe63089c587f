"""Two-atom Hilbert-space algebra for a pair of two-level emitters.

The state space is spanned by {|ee>, |eg>, |ge>, |gg>} where the first letter
is the state of atom A and the second that of atom B. Spontaneous emission is
driven by the negative-frequency part of the far-field operator

    E^(-)(r) = (E0/sqrt(2)) * (S_A^- + exp(-i*phi(r)) * S_B^-),

with S_n^- = |g><e| the lowering operator of atom n and phi(r) the geometric
path phase at the detector. The gauge puts phase 0 on atom A and the full
relative phase on atom B; any common phase drops out of every modulus.

Amplitudes may be numpy arrays, one state per element, so the operators
broadcast over arrays of detector angles; a scalar state is the 0-d case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import DetectorSetting, EmitterPair, phase_at

_SQRT2 = math.sqrt(2.0)
#: Exclusive upper bound on e0: the G2 scale e0**4 overflows from here on.
_E0_LIMIT = sys.float_info.max ** 0.25
#: Operands that ``_product`` multiplies with numpy; others are Python numbers.
_NUMPY_TYPES = (np.ndarray, np.generic)


class Atom(Enum):
    A = "A"
    B = "B"


def _product(a: complex | np.ndarray, b: complex | np.ndarray) -> complex | np.ndarray:
    """Complex product a*b as CPython computes it for two complex numbers.

    The real part is ``ar*br - ai*bi`` and the imaginary part ``ar*bi +
    ai*br``, each product rounded on its own, so every element equals the
    Python product bit for bit, signed zeros included. numpy's vectorized
    complex multiply may fuse multiply-adds and differ in the last bit.
    Two Python numbers give a Python complex; numpy scalars and 0-d arrays
    a numpy complex. The parts of an array product are written straight
    into its result.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if not isinstance(a, _NUMPY_TYPES) and not isinstance(b, _NUMPY_TYPES):
        return complex(ar * br - ai * bi, ar * bi + ai * br)
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), complex)
    np.subtract(np.multiply(ar, br, out=out.real), ai * bi, out=out.real)
    np.add(np.multiply(ar, bi, out=out.imag), ai * br, out=out.imag)
    return out if out.ndim else out[()]


def _is_finite(value: complex | np.ndarray) -> bool:
    """Whether a scalar, or every element of an array, is finite.

    A Python complex or float is checked by ``math.isfinite`` on its parts:
    ``np.isfinite(...).all()`` costs microseconds on a scalar, and the
    operators check many scalar ``0j`` amplitudes.
    """
    if type(value) in (complex, float):  # not their numpy subclasses
        return math.isfinite(value.real) and math.isfinite(value.imag)
    return bool(np.isfinite(value).all())


@dataclass(frozen=True)
class FieldParams:
    """Field amplitude E0 (arbitrary units) of a single emitted photon."""

    e0: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.e0 < _E0_LIMIT:  # False for NaN
            raise ValueError(
                f"e0 must lie in (0, {_E0_LIMIT!r}) so that e0**4 is finite, got {self.e0!r}"
            )


@dataclass(frozen=True)
class AtomicState:
    """Complex amplitudes over the two-atom basis {ee, eg, ge, gg}.

    States are value objects; operators return new instances. Intermediate
    states produced by operator application are generally unnormalized.
    Each amplitude is a complex scalar or an array; arrays of one state
    broadcast against each other element-wise.
    """

    amp_ee: complex | np.ndarray = 0j
    amp_eg: complex | np.ndarray = 0j
    amp_ge: complex | np.ndarray = 0j
    amp_gg: complex | np.ndarray = 0j

    def __post_init__(self) -> None:
        for name in ("amp_ee", "amp_eg", "amp_ge", "amp_gg"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def excited(cls) -> "AtomicState":
        """Both atoms excited, |ee>."""
        return cls(amp_ee=1.0 + 0j)

    @classmethod
    def ground(cls) -> "AtomicState":
        """Both atoms in the ground state, |gg>."""
        return cls(amp_gg=1.0 + 0j)

    @property
    def norm_squared(self) -> float:
        return (
            abs(self.amp_ee) ** 2
            + abs(self.amp_eg) ** 2
            + abs(self.amp_ge) ** 2
            + abs(self.amp_gg) ** 2
        )

    def __add__(self, other: "AtomicState") -> "AtomicState":
        return AtomicState(
            amp_ee=self.amp_ee + other.amp_ee,
            amp_eg=self.amp_eg + other.amp_eg,
            amp_ge=self.amp_ge + other.amp_ge,
            amp_gg=self.amp_gg + other.amp_gg,
        )

    def scaled(self, factor: complex | np.ndarray) -> "AtomicState":
        """The state times a finite scalar or array ``factor``.

        An amplitude that is the Python scalar ``0j``, as those ``lowering``
        annihilates are, stays that scalar: its product would be a signed
        zero of the factor's shape, equal to it in every modulus.
        """
        if not _is_finite(factor):
            raise ValueError("factor must be finite")
        return AtomicState(*(
            amp if type(amp) is complex and not amp else _product(factor, amp)
            for amp in (self.amp_ee, self.amp_eg, self.amp_ge, self.amp_gg)
        ))


def lowering(atom: Atom, state: AtomicState) -> AtomicState:
    """Apply the lowering operator |g><e| of the chosen atom.

    De-excites that atom where it is excited and annihilates the rest; the
    result is generally unnormalized.
    """
    if atom is Atom.A:
        return AtomicState(amp_ge=state.amp_ee, amp_gg=state.amp_eg)
    return AtomicState(amp_eg=state.amp_ee, amp_gg=state.amp_ge)


def apply_field_negative(
    geometry: EmitterPair,
    detector: DetectorSetting,
    params: FieldParams,
    state: AtomicState,
) -> AtomicState:
    """Apply E^(-)(r) = (E0/sqrt(2)) (S_A^- + e^{-i phi(r)} S_B^-) to the state.

    The operator is linear, so a common phase on the input state carries
    through unchanged and leaves every squared modulus as it is.
    """
    phi = phase_at(geometry, detector)
    branch_a = lowering(Atom.A, state)
    branch_b = lowering(Atom.B, state).scaled(np.exp(-1j * phi))
    return (branch_a + branch_b).scaled(params.e0 / _SQRT2)


def two_photon_amplitude(
    geometry: EmitterPair,
    det1: DetectorSetting,
    det2: DetectorSetting,
    params: FieldParams,
) -> complex | np.ndarray:
    """Amplitude on |gg> after both detectors have absorbed a photon.

    Equals (E0^2/2) * (e^{-i phi(r2)} + e^{-i phi(r1)}); its squared modulus
    is the ideal-contrast coincidence signal. Array angles of the two
    detectors broadcast against each other, e.g. a column against a row
    gives the amplitude on every pair of the grid.
    """
    once = apply_field_negative(geometry, det1, params, AtomicState.excited())
    twice = apply_field_negative(geometry, det2, params, once)
    return twice.amp_gg
