"""Clauser-Horne 1974 (CH74) Bell test with detector positions as settings.

The CH74 inequality bounds a signed sum of joint detection probabilities for
any local hidden-variable model:

    -P(*,*) <= P12(r1,r2) - P12(r1,r2') + P12(r1',r2) + P12(r1',r2')
               - P12(r1',*) - P12(*,r2) <= 0,

where starred terms are setting-independent reference probabilities, equal
to eta^2 when each emitter is tied to its own detector by a single-mode
fiber. With the interference law P12 = (eta^2/2)(1 + V cos(phi2 - phi1)) the
normalized upper-bound margin becomes V*sqrt(2) - 1 at the Bell phase
differences (pi/4, 3pi/4, pi/4, pi/4): the inequality is violated exactly
when the visibility exceeds 1/sqrt(2).

All statistics here are reported divided by eta^2, which makes them
independent of the detection efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import (
    Efficiency,
    UNIT_EFFICIENCY,
    Visibility,
    joint_probability_at_phase,
)

#: Margins below this are numerical noise, not violations; at the critical
#: visibility the true margin is exactly zero and rounding must not flip it.
VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class ChSettings:
    """Four detector phases plus visibility and efficiency for one CH74 run.

    phi1/phi1_prime are the two settings of the first detector, phi2/phi2_prime
    those of the second. Each phase is a scalar or an array of phases, each of
    which is validated.
    """

    phi1: float | np.ndarray
    phi1_prime: float | np.ndarray
    phi2: float | np.ndarray
    phi2_prime: float | np.ndarray
    v: Visibility
    eta: Efficiency

    def __post_init__(self) -> None:
        for name in ("phi1", "phi1_prime", "phi2", "phi2_prime"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    def phase_differences(self) -> tuple[float | np.ndarray, ...]:
        """Signed differences entering the four non-star terms."""
        return (
            self.phi2 - self.phi1,
            self.phi2_prime - self.phi1,
            self.phi2 - self.phi1_prime,
            self.phi2_prime - self.phi1_prime,
        )


@dataclass(frozen=True)
class ChResult:
    """Evaluated CH74 expression for one settings tuple.

    Built by ``ch_statistic``. ``terms`` holds the six probabilities in
    units of eta^2 (order: r1r2, r1r2', r1'r2, r1'r2', r1'*, *r2); storing
    them normalized keeps the statistic bit-identical across efficiencies,
    and their signed sum t1 - t2 + t3 + t4 - t5 - t6 is ``statistic``
    exactly. ``statistic`` is the normalized upper-bound margin (violation
    iff > 0) and ``lower_margin`` the normalized headroom above the -P(*,*)
    bound. For array phases or visibilities, the four setting-dependent
    terms, the two margins and ``violated`` are arrays over their broadcast
    shape.
    """

    statistic: float | np.ndarray
    lower_margin: float | np.ndarray
    terms: tuple[float | np.ndarray, ...]

    @property
    def violated(self) -> bool | np.ndarray:
        """True when the margin exceeds the numerical-noise tolerance."""
        return self.statistic > VIOLATION_TOL


def star_probability(eff: Efficiency) -> float:
    """Setting-independent coincidence probability eta^2 of the fiber reference."""
    return eff.eta * eff.eta


def ch_statistic(settings: ChSettings) -> ChResult:
    """Evaluate the CH74 expression at the given settings.

    The four setting-dependent terms follow the coincidence law at the
    settings' visibility; the two star terms are the exact constants of the
    single-mode-fiber reference, not simulated quantities. Terms are
    evaluated at unit efficiency so eta cancels identically. Array phases and
    an array visibility in the settings broadcast against each other, so a
    grid of settings and contrasts is evaluated in one pass; each element
    equals, bit for bit, the scalar call on that element.
    """
    u = [
        joint_probability_at_phase(delta, settings.v, UNIT_EFFICIENCY)
        for delta in settings.phase_differences()
    ]
    star = star_probability(UNIT_EFFICIENCY)
    terms = (u[0], u[1], u[2], u[3], star, star)
    statistic = terms[0] - terms[1] + terms[2] + terms[3] - terms[4] - terms[5]
    return ChResult(statistic=statistic, lower_margin=statistic + 1.0, terms=terms)


def bell_angle_settings(
    vis: Visibility, eff: Efficiency = UNIT_EFFICIENCY
) -> ChSettings:
    """Detector phases realizing the Bell angles (pi/4, 3pi/4, pi/4, pi/4).

    The phases (0, pi/2, pi/4, 3pi/4) give signed differences
    (pi/4, 3pi/4, -pi/4, pi/4); the cosine parity makes the third sign
    immaterial, and the resulting margin is V*sqrt(2) - 1.
    """
    return ChSettings(
        phi1=0.0,
        phi1_prime=math.pi / 2,
        phi2=math.pi / 4,
        phi2_prime=3 * math.pi / 4,
        v=vis,
        eta=eff,
    )


def critical_visibility() -> float:
    """Visibility 1/sqrt(2) at which the upper-bound margin crosses zero."""
    return 1.0 / math.sqrt(2.0)

