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
or on the other seeds of a run. A run takes one seed or a sequence of them,
drawn in passes of 2**14 streams (4096 seeds times the four terms). In each
pass the ``SeedSequence`` hash is evaluated as uint32 array arithmetic, and
the counts are drawn all at once by ``_binomial``: a port of numpy's PCG64 and
of its binomial sampler (inversion, or BTPE) to uint64 and float64 arrays. It
takes BTPE's logs from ``np.log`` and recomputes with libm's ``log`` every
decision that lies within a guard band of its threshold, and it starts
inversion from ``exp(n * log1p(-p))``, as numpy's C code does, so its counts
are bit-identical to building each generator with numpy. Numpy draws one
generator per stream for a pass of fewer than 256 streams or a sample size
above 2**62, for every pass if the port differs from numpy on the fixed probes
it is checked against on first use, and for the few streams the port leaves
pending after its rounds.
Numpy's stream-compatibility policy (NEP 19) fixes the hash and the bit generator.

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

import functools
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
_TERMS = 4
#: Seeds hashed and drawn per pass of simulate_counts: 2**14 streams, which
#: bounds the working set whatever the number of seeds.
_PASS_SEEDS = 2**14 // _TERMS
#: A pass of fewer streams, or a sample size above 2**62, is drawn by numpy
#: one stream at a time instead of by the vectorised port.
_PORT_STREAMS = 256
_PORT_MAX_TRIALS = 2**62


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

    A sequence is a range, list, tuple or 1-d array. A range whose first and
    last seeds are in bounds holds only valid seeds and is built as uint64
    array arithmetic, exact up to ``2**64 - 1``. Other sequences are checked
    element by element in order, so a long range fails at its first bad seed
    without being built.
    """
    if isinstance(seed, range) and seed and all(0 <= s < _MAX_SEED for s in (seed[0], seed[-1])):
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


# numpy's SeedSequence (O'Neill's seed_seq_fe) as uint32 array arithmetic. Its
# hash constants advance by a fixed multiplier on every call, whatever the
# data, so the whole chain is computed once here.
_MASK32 = 0xFFFF_FFFF
_XSHIFT = np.uint32(16)


def _constant_chain(init: int, mult: int, calls: int) -> np.ndarray:
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


#: mix_entropy hashes 4 pool words, 12 cross-mixes and the spawn key into 4 words.
_MIX_CONSTANTS = _constant_chain(0x43B0D7E5, 0x931E8875, 4 + 12 + 4)
#: generate_state(4, uint64) hashes 8 uint32 words; as [j, i, 1], word 4j + i,
#: which hashes pool word i.
_STATE_XOR, _STATE_MULT = (_constant_chain(0x8B51F9DD, 0x58F38DED, 8)[first:first + 8]
                           .reshape(2, 4, 1) for first in (0, 1))
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, first: int, calls: int) -> np.ndarray:
    """Hash calls ``first`` to ``first + calls - 1``: row i of the result takes call ``first + i``.

    ``value`` broadcasts against a column of ``calls`` rows.
    """
    value = value ^ _MIX_CONSTANTS[first:first + calls, np.newaxis]
    value *= _MIX_CONSTANTS[first + 1:first + calls + 1, np.newaxis]
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


#: The spawn key's hashes as [term, pool word, 1]: the same for every seed.
_TERM_HASHES = _hashmix(np.arange(_TERMS, dtype=np.uint32), 16, 4).T[:, :, np.newaxis]


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(4, uint64)``.

    Returns a C-contiguous array of shape (seeds, terms, 4): numpy's PCG64
    reads each stream's four words raw from its buffer. With a spawn key,
    numpy pads the entropy of every seed below 2**64 to the same five words
    ``[lo, hi, 0, 0, t]``, so the first two mixing stages depend on the seed
    alone and only the last one on the term. Every operation runs along the
    seeds: on the interleaved result, with rows of 4 or 8 words, numpy would
    spend its time in loop overhead.
    """
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = _hashmix(pool, 0, 4)  # the entropy words [lo, hi, 0, 0]
    # Each pool word is hashed three times in a row, once into each other word.
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], 4 + 3 * src, 3))
    # Little-endian pairs of the eight state words make the four uint64 words.
    words = np.empty((seeds.size, _TERMS, 8), dtype="<u4")
    for term, mixed in enumerate(_mix(pool, _TERM_HASHES)):
        state = mixed ^ _STATE_XOR
        state *= _STATE_MULT
        state ^= state >> _XSHIFT
        words[:, term] = state.reshape(8, -1).T
    return words.view("<u8")


@functools.cache
def _stream_words() -> type:
    """An ``ISeedSequence`` that hands one stream's hashed words to numpy's PCG64.

    Defined once, on first use: numpy.random loads lazily, and `import
    pathent.cli` stays free of its ~10 ms import for the commands that never
    draw.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words  # PCG64 reads the buffer raw: 4 contiguous uint64

        def generate_state(self, n_words: int, dtype: object = np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only 4 uint64 words are hashed, got {n_words} {dtype!r}")
            return self.words

    return StreamWords


def _numpy_counts(words: np.ndarray, n: int, p: Sequence[float] | np.ndarray) -> np.ndarray:
    """Counts drawn by numpy, one ``Generator`` per stream of ``words``.

    ``words`` has shape (..., 4) and ``p`` broadcasts against the streams,
    ``words.shape[:-1]``: one p per term for a pass, or one per stream.
    """
    stream_words, shape = _stream_words(), words.shape[:-1]
    p = np.broadcast_to(p, shape).ravel().tolist()
    return np.array([np.random.Generator(np.random.PCG64(stream_words(row))).binomial(n, q)
                     for row, q in zip(words.reshape(-1, 4), p)], dtype=np.int64).reshape(shape)


def _draw(words: np.ndarray, n: int, p: Sequence[float]) -> np.ndarray:
    """numpy's counts for one pass: by the vectorised port where it applies."""
    if words.shape[0] * words.shape[1] >= _PORT_STREAMS and n <= _PORT_MAX_TRIALS:
        from . import _binomial  # imported by the first pass that uses it

        if _binomial.port_agrees():
            return _binomial.binomial(words, int(n), p)
    return _numpy_counts(words, n, p)


def simulate_counts(cfg: McConfig) -> tuple[int | np.ndarray, ...]:
    """Coincidence counts for the four setting pairs.

    Per pair and seed, draws one Binomial(``trials_per_setting``, p) variate
    from that pair's substream, with p the analytic joint probability at that
    phase difference; time and memory are constant in ``trials_per_setting``.
    An integer seed gives four ints, a sequence four arrays along the seeds.
    """
    settings = cfg.settings
    probabilities = [
        joint_probability_at_phase(delta, settings.v, settings.eta)
        for delta in settings.phase_differences()
    ]
    seeds = cfg.seeds.reshape(-1)
    counts = np.empty((seeds.size, _TERMS), dtype=np.int64)
    for first in range(0, seeds.size, _PASS_SEEDS):
        words = _seed_words(seeds[first:first + _PASS_SEEDS])
        counts[first:first + _PASS_SEEDS] = _draw(words, cfg.trials_per_setting, probabilities)
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
