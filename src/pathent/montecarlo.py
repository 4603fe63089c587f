"""Seeded Monte Carlo coincidence counting for the CH74 test.

Each trial is one excitation-emission cycle that yields a coincidence with
the analytic joint probability of its setting pair; inefficiency and failed
post-selection are already absorbed into eta. The count of ``n`` such
independent trials is exactly one Binomial(n, p) variate, so each setting
pair's count is a single binomial draw rather than ``n`` Bernoulli samples:
time and memory per pair do not grow with ``n``.

Every (seed, setting pair) draws from its own substream, numpy's
``default_rng(SeedSequence(entropy=seed, spawn_key=(term_index,)))``, so
counts depend only on (seed, trials, settings) and never on evaluation order
or on the other seeds of a run. ``_binomial.counts`` draws them, bit for bit
as numpy does, for the whole sequence of seeds at once.

The plug-in estimator of the normalized CH74 margin is

    statistic_hat = (p1 - p2 + p3 + p4 - 2*eta^2) / eta^2,

with p_i the empirical coincidence frequencies; the star terms are exact
constants and contribute no variance. The standard error propagates the
four independent binomial variances in quadrature. The estimator is one
array pass over the seeds, and for a given numpy its output is the same on
every supported Python. NEP 19 keeps the bit-generator streams stable but
lets ``Generator`` distributions such as binomial change between releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bell import ChSettings, star_probability
from .correlations import joint_probability_at_phase

_MAX_SEED = 2**64
#: Most seeds a range may hold: an array of more uint64 would exceed the address space.
_MAX_RANGE = np.iinfo(np.intp).max // 8
#: Largest sample size numpy's binomial sampler takes (a signed 64-bit integer).
_MAX_TRIALS = 2**63 - 1


def _integer(name: str, value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _checked_seed(value: object) -> object:
    if not 0 <= _integer("seed", value) < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {value!r}")
    return value


def _seed_array(seed: object) -> np.ndarray:
    """``seed`` as a uint64 array: 0-d for one integer, 1-d for a sequence.

    A sequence is a range, list, tuple or 1-d array. A range from a valid
    seed is built as uint64 array arithmetic, exact up to ``2**64 - 1``, or
    fails at its first seed past ``2**64 - 1`` or below 0, found by range
    arithmetic however far it lies. Other sequences are checked element by
    element in order, so a range from a bad seed fails at once.
    """
    if isinstance(seed, range) and seed and 0 <= seed[0] < _MAX_SEED:
        valid = range(seed[0], _MAX_SEED if seed.step > 0 else -1, seed.step)
        if seed[-1] not in valid:
            _checked_seed(valid[-1] + seed.step)
        count = (seed[-1] - seed[0]) // seed.step + 1
        if count > _MAX_RANGE:
            raise ValueError(f"seed range must hold at most {_MAX_RANGE} seeds, got {count}")
        # uint64 arithmetic wraps modulo 2**64, so a negative step adds its complement.
        return np.arange(count, dtype=np.uint64) * (seed.step % _MAX_SEED) + seed[0]
    if isinstance(seed, (range, list, tuple)) or (isinstance(seed, np.ndarray) and seed.ndim == 1):
        seeds = np.fromiter(map(_checked_seed, seed), np.uint64)
        if seeds.size == 0:
            raise ValueError("seed must not be an empty sequence")
        return seeds
    return np.array(_checked_seed(seed), np.uint64)


@dataclass(frozen=True)
class McConfig:
    """Reproducible coincidence experiments: seeds, sample size, settings.

    ``seed`` is an integer or a sequence of integers (a range, list, tuple or
    1-d integer array), each in [0, 2**64); every seed is one experiment with
    the same sample size and settings. ``seeds`` holds them as a uint64 array,
    0-d for an integer seed and 1-d for a sequence.
    """

    seed: int | Sequence[int] | np.ndarray
    trials_per_setting: int
    settings: ChSettings
    seeds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= _integer("trials_per_setting", self.trials_per_setting) <= _MAX_TRIALS:
            raise ValueError(
                f"trials_per_setting must lie in [1, 2**63 - 1], "
                f"got {self.trials_per_setting!r}"
            )
        s = self.settings
        if any(np.ndim(x) for x in (s.phi1, s.phi1_prime, s.phi2, s.phi2_prime, s.v.v)):
            raise ValueError("settings must hold scalar phases and a scalar visibility")
        if star_probability(s.eta) == 0.0:  # the estimator divides by it
            raise ValueError(f"eta^2 must not underflow to 0, got eta = {s.eta.eta!r}")
        object.__setattr__(self, "seeds", _seed_array(self.seed))


def _python(value: np.ndarray | np.generic) -> object:
    """A 0-d value as a Python int or float; arrays are returned as they are."""
    return value.item() if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class McEstimate:
    """Estimated CH74 margin with its binomial standard error and raw counts.

    For a sequence of seeds ``statistic_hat``, ``std_error`` and each of the
    four ``counts`` are arrays along the seeds.
    """

    statistic_hat: float | np.ndarray
    std_error: float | np.ndarray
    counts: tuple[int | np.ndarray, ...]
    trials: int

    def __post_init__(self) -> None:
        for name in ("statistic_hat", "std_error"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if np.any(np.asarray(self.std_error) < 0.0):
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")
        _integer("trials", self.trials)
        # Each count on its own: np.asarray would promote a bool among ints.
        if any(np.asarray(count).dtype.kind not in "iu" for count in self.counts):
            raise ValueError(f"counts must be integers, got {self.counts!r}")
        counts = np.asarray(self.counts)
        if np.any((counts < 0) | (counts > self.trials)):
            raise ValueError(f"counts must lie in [0, {self.trials}], got {self.counts!r}")

    @property
    def sigma_violation(self) -> float | np.ndarray:
        """How many standard errors the estimate sits above zero.

        With a zero standard error it is +-inf by the estimate's sign, or 0.
        """
        statistic, error = np.asarray(self.statistic_hat), np.asarray(self.std_error)
        signed_inf = np.where(statistic > 0.0, np.inf, np.where(statistic < 0.0, -np.inf, 0.0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _python(np.where(error > 0.0, statistic / error, signed_inf))


def simulate_counts(cfg: McConfig) -> tuple[int | np.ndarray, ...]:
    """Coincidence counts for the four setting pairs.

    Per pair and seed, draws one Binomial(``trials_per_setting``, p) variate
    from that pair's substream, with p the analytic joint probability at that
    phase difference; time and memory are constant in ``trials_per_setting``.
    An integer seed gives four ints, a sequence four arrays along the seeds.
    """
    from . import _binomial  # loads numpy.random, which `import pathent.cli` leaves out

    settings = cfg.settings
    probabilities = [
        joint_probability_at_phase(delta, settings.v, settings.eta)
        for delta in settings.phase_differences()
    ]
    counts = _binomial.counts(cfg.seeds.reshape(-1), cfg.trials_per_setting, probabilities)
    return tuple(_python(count.reshape(cfg.seeds.shape)) for count in counts.T)


def _frequencies(count: int | np.ndarray, n: int) -> np.ndarray:
    """Each ``count / n`` as a float64 array, correctly rounded like Python's ``c / n``.

    Up to 2**53 both operands are exact float64 values, and an IEEE division
    rounds their quotient once. Above it a count or n may not be a float64
    value, so each quotient is Python's int division, which also rounds once.
    """
    if n <= 2**53:
        return np.asarray(count, dtype=np.float64) / float(n)
    return np.reshape([c / n for c in np.ravel(count).tolist()], np.shape(count))


def estimate_ch(cfg: McConfig) -> McEstimate:
    """Plug-in estimate of the normalized CH74 margin from simulated counts.

    One array pass over the seeds; an integer seed gives Python floats.
    """
    counts = simulate_counts(cfg)
    n = int(cfg.trials_per_setting)
    eta2 = star_probability(cfg.settings.eta)
    p = [_frequencies(count, n) for count in counts]
    t0, t1, t2, t3 = (q * (1.0 - q) / n for q in p)
    return McEstimate(
        statistic_hat=_python((p[0] - p[1] + p[2] + p[3] - 2.0 * eta2) / eta2),
        # Left to right, unlike sum(), which compensates from Python 3.12 on.
        std_error=_python(np.sqrt(t0 + t1 + t2 + t3) / eta2),
        counts=counts,
        trials=cfg.trials_per_setting,
    )
