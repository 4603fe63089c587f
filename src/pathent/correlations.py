"""Analytic first- and second-order correlation functions of the emitted light.

For two initially excited emitters and coincident far-field detection the
first-order function is flat, G1 = E0^2, while the second-order function
carries the two-path interference fringe

    G2(r1, r2) = (E0^4 / 2) * (1 + V * cos(phi(r2) - phi(r1))),

with V in [0, 1] the fringe visibility. Detection probabilities follow by
scaling with a single efficiency eta: P(r1) = eta, P12 = (eta^2/E0^4) * G2,
and the conditional probability P(r2|r1) = P12 / P(r1).

The position-dependent quantities take the phase difference
phi(r2) - phi(r1), through which alone they depend on the detectors; for a
detector pair, pass ``phase_difference(geometry, det1, det2)`` from the
``geometry`` module. ``g1`` and ``marginal_probability`` are position-free
and take no detector. ``fringe`` and the ``*_at_phase`` functions broadcast
over numpy arrays of phase differences and of visibilities, a scalar being
the 0-d case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum_core import FieldParams


@dataclass(frozen=True)
class Visibility:
    """Fringe contrast of the coincidence signal, v in [0, 1].

    ``v`` is a scalar or an array of contrasts, each of which is validated.
    """

    v: float | np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v)
        valid = (v >= 0.0) & (v <= 1.0)  # False for NaN
        if not valid.all():
            raise ValueError(f"visibility must lie in [0, 1], got {v[~valid][0]}")


@dataclass(frozen=True)
class Efficiency:
    """Overall per-photon detection efficiency, eta in (0, 1]."""

    eta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta) or not 0.0 < self.eta <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.eta!r}")


#: Ideal detection, used to express setting probabilities in units of eta^2.
UNIT_EFFICIENCY = Efficiency(eta=1.0)

#: Ideal fringe contrast.
UNIT_VISIBILITY = Visibility(v=1.0)


def fringe(delta_phi: float | np.ndarray, vis: Visibility) -> float | np.ndarray:
    """Dimensionless interference factor 1 + v*cos(delta_phi), in [0, 2]."""
    return 1.0 + vis.v * np.cos(delta_phi)


def g1(params: FieldParams) -> float:
    """First-order correlation function, E0^2 at every detector position."""
    return params.e0**2


def g2_at_phase(
    delta_phi: float | np.ndarray, params: FieldParams, vis: Visibility
) -> float | np.ndarray:
    """Second-order correlation function at a given phase difference."""
    return 0.5 * params.e0**4 * fringe(delta_phi, vis)


def marginal_probability(eff: Efficiency) -> float:
    """Probability of a single detection: (eta/E0^2)*G1 = eta, position-free."""
    return eff.eta


def conditional_probability_at_phase(
    delta_phi: float | np.ndarray, vis: Visibility, eff: Efficiency
) -> float | np.ndarray:
    """Probability of the second detection given the first, (eta/2)*(1 + v*cos)."""
    return eff.eta * (0.5 * fringe(delta_phi, vis))


def joint_probability_at_phase(
    delta_phi: float | np.ndarray, vis: Visibility, eff: Efficiency
) -> float | np.ndarray:
    """Coincidence probability (eta^2/2)*(1 + v*cos(delta_phi)), in [0, eta^2].

    Built as marginal * conditional so the chain rule holds bit-exactly.
    """
    return eff.eta * conditional_probability_at_phase(delta_phi, vis, eff)

