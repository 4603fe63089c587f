"""Seeded Monte Carlo coincidence counting for the CH74 test.

Each trial is one excitation-emission cycle that yields a coincidence with
the analytic joint probability of its setting pair; inefficiency and failed
post-selection are already absorbed into eta. The count of ``n`` such
independent trials is exactly one Binomial(n, p) variate, so each setting
pair's count is a single binomial draw rather than ``n`` Bernoulli samples:
time and memory per pair do not grow with ``n``. The four setting pairs draw
from independent, deterministically derived random substreams (the term
index is mixed into the seed), so counts depend only on (seed, trials,
settings) and never on evaluation order.

The plug-in estimator of the normalized CH74 margin is

    statistic_hat = (p1 - p2 + p3 + p4 - 2*eta^2) / eta^2,

with p_i the empirical coincidence frequencies; the star terms are exact
constants and contribute no variance. The standard error propagates the
four independent binomial variances in quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import ChSettings, star_probability
from .correlations import joint_probability_at_phase

_MAX_SEED = 2**64
#: Largest sample size numpy's binomial sampler takes (a signed 64-bit integer).
_MAX_TRIALS = 2**63 - 1


@dataclass(frozen=True)
class McConfig:
    """One reproducible coincidence experiment: seed, sample size, settings."""

    seed: int
    trials_per_setting: int
    settings: ChSettings

    def __post_init__(self) -> None:
        for name in ("seed", "trials_per_setting"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 1 <= self.trials_per_setting <= _MAX_TRIALS:
            raise ValueError(
                f"trials_per_setting must lie in [1, 2**63 - 1], "
                f"got {self.trials_per_setting!r}"
            )
        s = self.settings
        try:  # five scalars make a 1-d array; ragged shapes raise ValueError
            scalar = np.asarray((s.phi1, s.phi1_prime, s.phi2, s.phi2_prime, s.v.v)).ndim == 1
        except ValueError:
            scalar = False
        if not scalar:
            raise ValueError("settings must hold scalar phases and a scalar visibility")
        if star_probability(s.eta) == 0.0:  # the estimator divides by it
            raise ValueError(f"eta^2 must not underflow to 0, got eta = {s.eta.eta!r}")


@dataclass(frozen=True)
class McEstimate:
    """Estimated CH74 margin with its binomial standard error and raw counts."""

    statistic_hat: float
    std_error: float
    counts: tuple[int, int, int, int]
    trials: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")
        if any(not 0 <= count <= self.trials for count in self.counts):
            raise ValueError(f"counts must lie in [0, {self.trials}], got {self.counts!r}")

    @property
    def sigma_violation(self) -> float:
        """How many standard errors the estimate sits above zero."""
        if self.std_error > 0.0:
            return self.statistic_hat / self.std_error
        if self.statistic_hat > 0.0:
            return math.inf
        if self.statistic_hat < 0.0:
            return -math.inf
        return 0.0


def _term_rng(seed: int, term_index: int) -> np.random.Generator:
    # One substream per setting pair; scheduling cannot reorder draws.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(term_index,))
    )


def simulate_counts(cfg: McConfig) -> tuple[int, int, int, int]:
    """Coincidence counts for the four setting pairs.

    Per pair, draws one Binomial(``trials_per_setting``, p) variate from the
    pair's own substream, with p the analytic joint probability at that phase
    difference; time and memory are constant in ``trials_per_setting``.
    """
    settings = cfg.settings
    counts = []
    for term_index, delta in enumerate(settings.phase_differences()):
        p = joint_probability_at_phase(delta, settings.v, settings.eta)
        rng = _term_rng(cfg.seed, term_index)
        counts.append(int(rng.binomial(cfg.trials_per_setting, p)))
    return tuple(counts)


def estimate_ch(cfg: McConfig) -> McEstimate:
    """Plug-in estimate of the normalized CH74 margin from simulated counts."""
    counts = simulate_counts(cfg)
    n = cfg.trials_per_setting
    eta2 = star_probability(cfg.settings.eta)
    p_hat = [count / n for count in counts]
    statistic_hat = (p_hat[0] - p_hat[1] + p_hat[2] + p_hat[3] - 2.0 * eta2) / eta2
    variance = sum(p * (1.0 - p) / n for p in p_hat)
    std_error = math.sqrt(variance) / eta2
    return McEstimate(
        statistic_hat=statistic_hat,
        std_error=std_error,
        counts=counts,
        trials=n,
    )
