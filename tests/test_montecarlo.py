"""Seeded coincidence counting: determinism, binomial oracles, convergence."""

import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

import pathent
from pathent import _binomial, cli
from pathent.bell import ChSettings, bell_angle_settings, ch_statistic
from pathent.correlations import (
    Efficiency,
    UNIT_EFFICIENCY,
    UNIT_VISIBILITY,
    Visibility,
    joint_probability_at_phase,
)
from pathent._binomial import _PASS_SEEDS, _PORT_STREAMS, _numpy_counts, _seed_words
from pathent.montecarlo import (
    McConfig,
    McEstimate,
    _frequencies,
    _seed_array,
    estimate_ch,
    simulate_counts,
)

SQRT2 = math.sqrt(2.0)


def numpy_term_rng(seed, term_index):
    """The substream of one seed and term, built by numpy itself."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(term_index,)))


def flat_settings(phi2, v=1.0, eta=1.0):
    """All four terms see the same phase difference phi2."""
    return ChSettings(
        phi1=0.0,
        phi1_prime=0.0,
        phi2=phi2,
        phi2_prime=phi2,
        v=Visibility(v=v),
        eta=Efficiency(eta=eta),
    )


class TestSimulateCounts:
    def test_reproducible(self):
        cfg = McConfig(seed=42, trials_per_setting=10_000, settings=bell_angle_settings(Visibility(v=0.9)))
        assert simulate_counts(cfg) == simulate_counts(cfg)

    def test_dark_fringe_never_counts(self):
        cfg = McConfig(seed=1, trials_per_setting=5_000, settings=flat_settings(math.pi))
        assert simulate_counts(cfg) == (0, 0, 0, 0)

    def test_bright_fringe_always_counts(self):
        cfg = McConfig(seed=1, trials_per_setting=5_000, settings=flat_settings(0.0))
        assert simulate_counts(cfg) == (5_000, 5_000, 5_000, 5_000)

    def test_counts_within_binomial_bands(self):
        # Oracle: analytic joint probability per term; 5-sigma binomial bands.
        settings = bell_angle_settings(Visibility(v=0.9))
        n = 1_000_000
        cfg = McConfig(seed=2024, trials_per_setting=n, settings=settings)
        counts = simulate_counts(cfg)
        for count, delta in zip(counts, settings.phase_differences()):
            p = joint_probability_at_phase(delta, settings.v, settings.eta)
            sigma = math.sqrt(n * p * (1.0 - p))
            assert abs(count - n * p) <= 5.0 * sigma

    def test_term_substreams_are_independent(self):
        # The first term keeps its exact count when only the other settings
        # change, because each term draws from its own derived stream.
        a = ChSettings(phi1=0.0, phi1_prime=1.0, phi2=2.0, phi2_prime=3.0,
                       v=Visibility(v=0.9), eta=UNIT_EFFICIENCY)
        b = ChSettings(phi1=0.0, phi1_prime=5.0, phi2=2.0, phi2_prime=4.0,
                       v=Visibility(v=0.9), eta=UNIT_EFFICIENCY)
        count_a = simulate_counts(McConfig(seed=5, trials_per_setting=20_000, settings=a))
        count_b = simulate_counts(McConfig(seed=5, trials_per_setting=20_000, settings=b))
        assert count_a[0] == count_b[0]
        assert count_a[1] != count_b[1]  # different probability, same stream

    def test_config_validation(self):
        settings = bell_angle_settings(UNIT_VISIBILITY)
        with pytest.raises(ValueError):
            McConfig(seed=-1, trials_per_setting=10, settings=settings)
        with pytest.raises(ValueError):
            McConfig(seed=2**64, trials_per_setting=10, settings=settings)
        with pytest.raises(ValueError):
            McConfig(seed=0, trials_per_setting=0, settings=settings)

    @pytest.mark.parametrize(
        "seed,trials",
        [(1.5, 10), (True, 10), ("3", 10), (np.bool_(True), 10),
         (0, True), (0, 10.0), (0, np.float64(10.0))],
    )
    def test_config_rejects_non_integers(self, seed, trials):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(seed=seed, trials_per_setting=trials,
                     settings=bell_angle_settings(UNIT_VISIBILITY))

    def test_config_accepts_numpy_integers(self):
        settings = bell_angle_settings(Visibility(v=0.9))
        plain = McConfig(seed=7, trials_per_setting=1000, settings=settings)
        numpy = McConfig(seed=np.int64(7), trials_per_setting=np.uint32(1000), settings=settings)
        assert simulate_counts(numpy) == simulate_counts(plain)

    def test_numpy_trials_estimate_like_python_ints(self):
        # Above 2**53 a float64 division would round c and n before dividing.
        settings = bell_angle_settings(Visibility(v=0.9))
        plain = McConfig(seed=7, trials_per_setting=2**53 + 1, settings=settings)
        numpy = McConfig(seed=7, trials_per_setting=np.uint64(2**53 + 1), settings=settings)
        assert estimate_ch(numpy) == estimate_ch(plain)

    @pytest.mark.parametrize(
        "field,value",
        [("v", Visibility(v=np.array([0.5, 0.9]))), ("v", Visibility(v=np.array([0.9]))),
         ("phi2", np.array([0.1, 0.2])), ("phi1_prime", np.zeros((1, 1))),
         ("phi2_prime", [0.5, 0.7])],
        ids=["v-array", "v-one-element", "phi2-array", "phi1_prime-1x1", "phi2_prime-list"],
    )
    def test_config_rejects_array_settings(self, field, value):
        # estimate_ch draws one count per term, so every setting must be a scalar.
        settings = replace(bell_angle_settings(UNIT_VISIBILITY), **{field: value})
        with pytest.raises(ValueError, match="scalar"):
            McConfig(seed=1, trials_per_setting=100, settings=settings)

    def test_config_accepts_zero_dimensional_settings(self):
        plain = bell_angle_settings(Visibility(v=0.9))
        zero_d = replace(plain, phi2=np.array(plain.phi2), v=Visibility(v=np.array(0.9)))
        assert estimate_ch(McConfig(seed=3, trials_per_setting=1000, settings=zero_d)) == \
            estimate_ch(McConfig(seed=3, trials_per_setting=1000, settings=plain))

    @pytest.mark.parametrize("eta", [1e-300, 1e-170, 5e-324])
    def test_config_rejects_eta_squared_underflow(self, eta):
        # estimate_ch divides by eta^2.
        settings = bell_angle_settings(UNIT_VISIBILITY, Efficiency(eta=eta))
        with pytest.raises(ValueError, match="eta"):
            McConfig(seed=0, trials_per_setting=10, settings=settings)

    def test_smallest_eta_estimates(self):
        settings = bell_angle_settings(UNIT_VISIBILITY, Efficiency(eta=1e-160))
        estimate = estimate_ch(McConfig(seed=0, trials_per_setting=10, settings=settings))
        assert estimate.statistic_hat == -2.0

    @pytest.mark.parametrize("trials", [2**63, np.uint64(2**63), 10**30])
    def test_config_rejects_trials_beyond_int64(self, trials):
        # numpy's binomial sampler takes the sample size as a signed 64-bit integer.
        with pytest.raises(ValueError, match="trials_per_setting"):
            McConfig(seed=0, trials_per_setting=trials,
                     settings=bell_angle_settings(UNIT_VISIBILITY))


class TestBinomialDraws:
    def test_memory_is_constant_in_trials(self):
        # numpy reports its buffers to tracemalloc; n Bernoulli samples at
        # this size would peak near 90 MB.
        cfg = McConfig(seed=11, trials_per_setting=10**7,
                       settings=bell_angle_settings(Visibility(v=0.9)))
        tracemalloc.start()
        try:
            simulate_counts(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n", [10**12, 2**63 - 1])
    def test_huge_trial_counts_stay_in_range(self, n):
        cfg = McConfig(seed=12, trials_per_setting=n,
                       settings=bell_angle_settings(Visibility(v=0.9)))
        counts = simulate_counts(cfg)
        assert all(isinstance(count, int) and 0 <= count <= n for count in counts)

    def test_counts_follow_binomial_law(self):
        # Oracle: scipy's Binomial(n, p_i) pmf per term, chi-square
        # goodness of fit over 2000 seeds; sparse tails are pooled so every
        # bin expects at least 5 counts.
        n, seeds = 50, range(2000)
        settings = bell_angle_settings(Visibility(v=0.9))
        probabilities = [
            joint_probability_at_phase(delta, settings.v, settings.eta)
            for delta in settings.phase_differences()
        ]
        per_seed = [
            simulate_counts(McConfig(seed=seed, trials_per_setting=n, settings=settings))
            for seed in seeds
        ]
        for term_index, p in enumerate(probabilities):
            observed = np.bincount([counts[term_index] for counts in per_seed],
                                   minlength=n + 1)
            expected = len(seeds) * stats.binom.pmf(np.arange(n + 1), n, p)
            # The pmf is unimodal, so the bins expecting >= 5 are one run
            # lo..hi; the bins below lo join lo's and those above hi join hi's.
            starts = np.r_[0, np.flatnonzero(expected >= 5.0)[1:]]
            result = stats.chisquare(np.add.reduceat(observed, starts),
                                     np.add.reduceat(expected, starts))
            assert result.pvalue > 1e-3

    def test_each_count_is_one_draw_from_its_substream(self):
        n = 50
        settings = bell_angle_settings(Visibility(v=0.9))
        for seed in range(20):
            counts = simulate_counts(
                McConfig(seed=seed, trials_per_setting=n, settings=settings)
            )
            for term_index, delta in enumerate(settings.phase_differences()):
                p = joint_probability_at_phase(delta, settings.v, settings.eta)
                assert counts[term_index] == numpy_term_rng(seed, term_index).binomial(n, p)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


class TestBatchedSeeding:
    """The batched SeedSequence port against numpy's own generators."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @example(EDGE_SEEDS)
    def test_states_and_counts_equal_numpys(self, seeds):
        n = 1000
        settings = bell_angle_settings(Visibility(v=0.9), Efficiency(eta=0.7))
        probabilities = [
            joint_probability_at_phase(delta, settings.v, settings.eta)
            for delta in settings.phase_differences()
        ]
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        counts = simulate_counts(McConfig(seed=seeds, trials_per_setting=n, settings=settings))
        for row, seed in enumerate(seeds):
            for term_index, p in enumerate(probabilities):
                sequence = np.random.SeedSequence(entropy=seed, spawn_key=(term_index,))
                np.testing.assert_array_equal(
                    words[row, term_index], sequence.generate_state(4, np.uint64), strict=True)
                assert counts[term_index][row] == numpy_term_rng(seed, term_index).binomial(n, p)

    @pytest.mark.parametrize("seeds", [range(20), range(10**9, 10**9 + 3000),
                                       range(2**64 - 3000, 2**64)],
                             ids=["20", "3000", "3000-to-2**64-1"])
    def test_words_equal_seed_sequences(self, seeds):
        # numpy's PCG64 reads each stream's four words raw from the buffer,
        # so a strided result would seed other streams without any error.
        words = _seed_words(np.arange(seeds.start, seeds.stop, dtype=np.uint64))
        assert words.shape == (len(seeds), 4, 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        expected = [[np.random.SeedSequence(entropy=seed, spawn_key=(t,))
                     .generate_state(4, np.uint64) for t in range(4)] for seed in seeds]
        np.testing.assert_array_equal(words, expected)

    def test_blocks_of_seeds_match_one_seed_at_a_time(self, monkeypatch):
        # 600 seeds span passes of 256, 256 and 88 seeds; each row equals
        # its one-seed run.
        monkeypatch.setattr(_binomial, "_PASS_SEEDS", 256)
        seeds = range(2**64 - 600, 2**64)
        settings = bell_angle_settings(Visibility(v=0.8))
        batched = estimate_ch(McConfig(seed=seeds, trials_per_setting=500, settings=settings))
        for row, seed in enumerate(seeds):
            single = estimate_ch(McConfig(seed=seed, trials_per_setting=500, settings=settings))
            assert single.statistic_hat == batched.statistic_hat[row]
            assert single.std_error == batched.std_error[row]
            assert single.sigma_violation == batched.sigma_violation[row]
            assert single.counts == tuple(int(count[row]) for count in batched.counts)

    def test_one_seed_gives_python_numbers(self):
        estimate = estimate_ch(McConfig(seed=np.uint64(3), trials_per_setting=100,
                                        settings=bell_angle_settings(Visibility(v=0.9))))
        assert type(estimate.statistic_hat) is float and type(estimate.std_error) is float
        assert type(estimate.sigma_violation) is float
        assert all(type(count) is int for count in estimate.counts)

    @pytest.mark.parametrize(
        "seeds,bad",
        [([0, -1, -2], "-1"), (range(2**64 - 1, 2**64 + 2), "18446744073709551616"),
         ([1, 2.0], "2.0"), ([3, True], "True"), (np.array([[1, 2]]), "array")],
    )
    def test_sequence_names_its_first_bad_seed(self, seeds, bad):
        with pytest.raises(ValueError, match=f"seed must be .*, got {bad}"):
            McConfig(seed=seeds, trials_per_setting=10,
                     settings=bell_angle_settings(UNIT_VISIBILITY))

    @pytest.mark.parametrize("seed", [b"ab", "12", iter([1, 2]), {1, 2}, np.array(5)],
                             ids=["bytes", "str", "iterator", "set", "0-d-array"])
    def test_other_iterables_are_not_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(seed=seed, trials_per_setting=10,
                     settings=bell_angle_settings(UNIT_VISIBILITY))

    @pytest.mark.parametrize("seeds", [[], (), range(0), np.array([], dtype=np.uint64)],
                             ids=["list", "tuple", "range", "array"])
    def test_empty_sequence_rejected(self, seeds):
        with pytest.raises(ValueError, match="empty"):
            McConfig(seed=seeds, trials_per_setting=10,
                     settings=bell_angle_settings(UNIT_VISIBILITY))

    def test_one_seed_or_many_is_the_shape_of_seeds(self):
        settings = bell_angle_settings(UNIT_VISIBILITY)
        assert McConfig(seed=5, trials_per_setting=10, settings=settings).seeds.shape == ()
        assert McConfig(seed=(5,), trials_per_setting=10, settings=settings).seeds.shape == (1,)
        counts = simulate_counts(McConfig(seed=[5], trials_per_setting=10, settings=settings))
        assert [count.tolist() for count in counts] == [[c] for c in simulate_counts(
            McConfig(seed=5, trials_per_setting=10, settings=settings))]

    def test_long_range_fails_at_its_first_bad_seed(self):
        # The range is never built: checking stops at its first element.
        with pytest.raises(ValueError, match="got -2$"):
            McConfig(seed=range(-2, 10**30), trials_per_setting=10,
                     settings=bell_angle_settings(UNIT_VISIBILITY))

    def test_range_fails_at_a_far_bad_seed_without_walking_to_it(self):
        # Each range's first bad seed lies 2**62 or more seeds from its start,
        # which a seed-by-seed walk would never reach, so a child process
        # with a time limit checks them. The reported seed is in the range,
        # out of bounds, and one step after an in-bounds seed. mc-bell's
        # --num-seeds 2**64 + 1 from seed 0 exits 3 with the same message.
        ranges = [(0, 2**64 + 1, 1), (7, 2**70, 3), (2**64 - 1, -2**64, -5), (2**63, -10, -1)]
        code = ("from pathent import cli; from pathent.montecarlo import _seed_array\n"
                f"for start, stop, step in {ranges!r}:\n"
                "    try:\n"
                "        _seed_array(range(start, stop, step))\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n"
                f"print(cli.run(['mc-bell', '--num-seeds', '{2**64 + 1}']))")
        env = {**os.environ, "PYTHONPATH": str(Path(pathent.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True, timeout=10)
        *errors, exit_code = result.stdout.splitlines()
        assert len(errors) == len(ranges) and exit_code == "3"
        for (start, stop, step), error in zip(ranges, errors):
            bad = int(error.rpartition(" ")[2])
            assert error == f"seed must be a 64-bit unsigned integer, got {bad}"
            assert bad in range(start, stop, step)
            assert not 0 <= bad < 2**64 and 0 <= bad - step < 2**64
        assert result.stderr == ("pathent: invalid configuration: seed must be a 64-bit "
                                 f"unsigned integer, got {2**64}\n")

    @pytest.mark.parametrize(
        "seeds",
        [range(5), range(2**64 - 3000, 2**64), range(2**64 - 1, 2**64 - 3001, -1),
         range(3, 100, 7), range(2**63 - 2, 2**63 + 3), range(0, 2**64 + 1, 2**63 + 1)],
        ids=["small", "top", "descending", "stepped", "across-2**63", "stop-past-2**64"],
    )
    def test_range_in_bounds_is_built_exactly(self, seeds):
        built = _seed_array(seeds)
        assert built.dtype == np.uint64
        assert built.tolist() == list(seeds)

    @pytest.mark.parametrize("seeds", [range(2**63 - 1), range(2**64 - 1, -1, -1)])
    def test_range_too_long_to_hold_fails_before_building(self, seeds):
        with pytest.raises(ValueError, match="seed range must hold at most"):
            McConfig(seed=seeds, trials_per_setting=10,
                     settings=bell_angle_settings(UNIT_VISIBILITY))


def numpy_counts(seeds, n, p):
    """(seeds, terms) counts, each stream's generator built by numpy from its seed."""
    return np.array([[numpy_term_rng(seed, t).binomial(n, q) for t, q in enumerate(p)]
                     for seed in seeds], dtype=np.int64)


def accepting_none(round_):
    """A sampler round that steps the streams as ``round_`` does but accepts none."""
    def round(self, streams, g):
        accepted, _ = round_(self, streams, g)
        return np.zeros_like(accepted), np.empty(0, dtype=np.int64)
    return round


def edge_probabilities(n):
    """Probabilities at the sampler edges for n: the ends, 1/2, 1e-14 from either
    end, and r * n == 30.0 exactly (inversion) and one ulp above it (BTPE),
    the last also on every term, so that one sampler holds all the streams."""
    at_30 = 30.0 / n if n >= 30 else 1.0
    assert at_30 * float(n) == 30.0 or n < 30
    above_30 = math.nextafter(at_30, 1.0) if at_30 < 1.0 else 0.25
    return [(0.0, 0.5, 1.0, 1e-14), (1.0 - 1e-14, at_30, above_30, 1.0 - at_30),
            (above_30,) * 4]


#: (seed, term, n, p) and the count numpy's ``binomial`` draws there, on its
#: branches: inversion below and above p = 0.5 and at n = 1e15, BTPE's left
#: and right tails, its squeeze and Stirling's bound, a draw near the mode,
#: C's wrapped -k * k at n = 2**62, and step 50 with C's wrapped n + 1 at
#: n = 2**63 - 1 (without the wrap, 85 instead of 93).
NUMPY_PINS = [((0, 1, 20, 0.2), 5), ((0, 2, 20, 0.93), 18), ((0, 3, 10**15, 1e-14), 9),
              ((0, 0, 1000, 0.3), 263), ((33, 0, 1000, 0.3), 344), ((1, 0, 1000, 0.3), 279),
              ((3, 0, 1000, 0.3), 312), ((19, 0, 2**62, 0.5), 2305843012989448192),
              ((5, 2, 2**63 - 1, 1e-17), 93)]
#: Whether this numpy draws the pinned counts. Only numpy decides: the port is
#: then required to agree with it, so a broken port fails these tests instead
#: of turning them off through its own canary.
NUMPY_AS_PINNED = all(numpy_term_rng(seed, term).binomial(n, p) == count
                      for (seed, term, n, p), count in NUMPY_PINS)
needs_port = pytest.mark.skipif(
    not NUMPY_AS_PINNED, reason="this numpy's binomial differs from the pinned counts, "
                                "so the port may be unused")

TRIALS = [1, 30, 31, 1000, 10**6, 10**15, 2**53 - 1, 2**53 + 1, 2**62, 2**63 - 1]

#: (n, p per term) whose 4096 streams reach the port's rare branches.
MANY_STREAM_CASES = [(10**15, (1e-14, 2e-14, 1e-14, 1 - 1e-14)),
                     (2**62, (0.5, 0.25, 0.75, 0.4)),
                     (2**53 + 1, (1e-14, 2e-14, 5e-15, 1 - 1e-14)),
                     (2**62, (1e-17, 2e-17, 1e-16, 1 - 1e-17)),
                     (2**63 - 1, (1e-17, 2e-17, 1e-16, 1 - 1e-17)),
                     (1000, (0.1, 0.3, 0.2, 0.4))]
MANY_STREAM_IDS = ["log1p", "int64-wrap", "float64-above-2**53", "float64-at-2**62",
                   "n+1-wrap", "btpe"]
MANY_STREAM_SEEDS = np.arange(2**64 - 1024, 2**64, dtype=np.uint64)


@pytest.fixture
def fresh_samplers():
    """No cached sampler, and so no threshold table, before or after the test."""
    _binomial._samplers.cache_clear()
    yield
    _binomial._samplers.cache_clear()


#: Rounds the port-equality draws allow before the streams still pending go to
#: numpy: more than any stream takes. After ``_ROUNDS`` (8), a port sweep left
#: 53 of 2 980 352 streams to numpy, which then checked numpy against itself.
PORT_ROUNDS = 64


def port_draw(words, n, p):
    """``binomial(words, n, p, stragglers=0)`` with ``PORT_ROUNDS`` rounds, and the
    number of streams that still reached ``_numpy_counts`` during the draw."""
    handed = []
    numpy_draw = _binomial._numpy_counts

    def counted(words, *args):
        handed.append(words.size // 4)
        return numpy_draw(words, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_binomial, "_ROUNDS", PORT_ROUNDS)
        patch.setattr(_binomial, "_numpy_counts", counted)
        return _binomial.binomial(words, n, p, stragglers=0), sum(handed)


def c_log(v):
    """C's ``log``: libm's value, -inf at 0 and nan below."""
    return math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan


def c_stirling(x):
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def c_product(term, n, y):
    """Step 50's F: the product of the pmf ratios from m to y, in C's order."""
    s = term.r / term.q
    a = s * float((n + 1 + 2**63) % 2**64 - 2**63)  # int64, wrapping
    f = 1.0
    for i in range(term.m + 1, y + 1):
        f *= a / float(i) - s
    for i in range(y + 1, term.m + 1):
        f /= a / float(i) - s
    return f


def c_squeeze(term, n, y):
    """Step 52's t - rho, t + rho and Stirling's bound at y.

    numpy's build forms Stirling's x1, f1, z and w in float64.
    """
    m, r, q, nrq, xm = term.m, term.r, term.q, term.nrq, term.xm
    k = abs(y - m)
    rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
    t = float((-k * k + 2**63) % 2**64 - 2**63) / (2 * nrq)  # int64, wrapping
    x1, f1 = float(y) + 1.0, float(m) + 1.0
    z, w = float(n) + 1.0 - float(m), float(n) - float(y) + 1.0
    bound = (xm * c_log(f1 / x1) + (float(n - m) + 0.5) * c_log(z / w)
             + float(y - m) * c_log(w * r / (x1 * q))
             + c_stirling(f1) + c_stirling(z) + c_stirling(x1) + c_stirling(w))
    return t - rho, t + rho, bound


def takes_step_52(term, y):
    k = abs(y - term.m)
    return k > 20 and k < term.nrq / 2.0 - 1


def c_accepts(term, n, y, v):
    """numpy's BTPE steps 50 and 52 (``random_binomial_btpe``) for y and its v."""
    if not takes_step_52(term, y):
        return not v > c_product(term, n, y)
    lower, upper, bound = c_squeeze(term, n, y)
    big_a = c_log(v)
    if big_a < lower:
        return True
    if big_a > upper:
        return False
    return not big_a > bound


def v_with_log(target):
    """A double v in (0, 1) whose libm log is exactly ``target``, or None."""
    v = math.exp(target)
    for _ in range(64):
        x = math.log(v)
        if x == target:
            return v
        v = math.nextafter(v, 0.0 if x > target else 1.0)
    return None


def tie_cases(term, n, offsets):
    """(offset, v) pairs at and beside every threshold of steps 50 and 52.

    Also counts the step-52 pairs whose log(v) is exactly t - rho with
    Stirling's bound below it, and those whose log(v) is above t + rho with
    a nan bound.
    """
    cases, on_lower_above_bound, above_nan_bound = [], 0, 0
    for d in offsets:
        y = term.m + d
        vs = [0.0, -0.25, 0.5]
        if takes_step_52(term, y):
            lower, upper, bound = c_squeeze(term, n, y)
            for target in (lower, upper, bound):
                v = v_with_log(target) if math.isfinite(target) else None
                if v is not None:
                    vs += [v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]
                    on_lower_above_bound += target == lower and bound < lower
            if math.isnan(bound):
                v = math.exp(upper) * 1.001
                vs.append(v)
                above_nan_bound += c_log(v) > upper
        else:
            f = c_product(term, n, y)
            vs += [f, math.nextafter(f, 0.0), math.nextafter(f, 1.0)]
        cases += [(d, v) for v in vs]
    return cases, on_lower_above_bound, above_nan_bound


#: (n, r, nrq) of the threshold tests. The third raises nrq from 50 to 400, so
#: that step 52 takes offsets where Stirling's bound lies below t - rho and,
#: past y = n + 1, is nan (the log of a negative ratio); with its own nrq no
#: candidate gets there. In the last, at offset -21, Stirling's bound lies
#: within the squeeze, and its sum moves by an ulp if its four correction
#: terms are not added in C's order. In the fifth, step 50's n + 1 wraps to
#: -2**63.
THRESHOLD_TERMS = [(1000, 0.3, None), (2**53 + 1, 1e-14, None), (200, 0.5, 400.0),
                   (1850, 0.06724059159375972, None), (2**63 - 1, 1e-17, None)]


class TestBinomialPort:
    """The vectorised PCG64 and binomial port against numpy's own generators."""

    @needs_port
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           st.integers(0, 3))
    def test_pcg64_seeding_and_doubles_equal_numpys(self, seeds, term):
        words = _seed_words(np.array(seeds, dtype=np.uint64))[:, term]
        seeded = _binomial._seeded(words)
        streams = seeded.copy()
        doubles = [_binomial._next_double(streams) for _ in range(3)]
        for i, seed in enumerate(seeds):
            bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(term,)))
            state = bit_generator.state["state"]
            assert seeded[:, i].tolist() == [state["state"] >> 64, state["state"] & (2**64 - 1),
                                             state["inc"] >> 64, state["inc"] & (2**64 - 1)]
            assert np.random.Generator(bit_generator).random(3).tolist() == [d[i] for d in doubles]

    @needs_port
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
           st.sampled_from(TRIALS[:-1]),
           st.lists(st.sampled_from([0.0, 1e-14, 0.03, 0.1, 0.25, 0.5, 0.8, 1.0 - 1e-14, 1.0]),
                    min_size=4, max_size=4))
    @example([0, 2**64 - 1], 1000, [0.1, 0.3, 0.2, 0.4])
    def test_port_equals_numpy(self, seeds, n, p):
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        # At most 32 streams per sampler, fewer than the straggler cutoff:
        # without a cutoff of 0 numpy would draw them all.
        drawn, handed = port_draw(words, n, p)
        assert handed == 0
        np.testing.assert_array_equal(drawn, numpy_counts(seeds, n, p))

    @pytest.mark.parametrize("n", TRIALS)
    def test_sampler_edges_equal_numpy(self, n):
        # 64 seeds x 4 terms reach the port's cutoff. The port runs with its
        # straggler cutoff and with a cutoff of 0, which takes every sampler
        # through its rounds, at every n: at n = 2**63 - 1, where C's n + 1
        # wraps, its BTPE product test draws numpy's counts only because the
        # port wraps n + 1 too.
        seeds = [0, 2**64 - 1, *range(1, _PORT_STREAMS // 4 - 1)]
        seed_array = np.array(seeds, dtype=np.uint64)
        words = _seed_words(seed_array)
        for p in edge_probabilities(n):
            expected = numpy_counts(seeds, n, p)
            np.testing.assert_array_equal(_binomial.counts(seed_array, n, p), expected)
            if NUMPY_AS_PINNED:
                np.testing.assert_array_equal(_binomial.binomial(words, n, p), expected)
                drawn, handed = port_draw(words, n, p)
                assert handed == 0
                np.testing.assert_array_equal(drawn, expected)

    @needs_port
    @pytest.mark.parametrize("n,p", MANY_STREAM_CASES, ids=MANY_STREAM_IDS)
    def test_many_streams_equal_numpy(self, n, p):
        # Rare branches, each seen in a few of these 4096 streams:
        # exp(n * log1p(-p)) at n = 1e15, the wrapped int64 -k * k of BTPE's
        # squeeze at n = 2**62, the wrapped n + 1 of its step 50 at
        # n = 2**63 - 1, and Stirling's bound, whose n + 1 - m and
        # n - y + 1 numpy forms in float64, at n above 2**53 and n * p ~ 100.
        words = _seed_words(MANY_STREAM_SEEDS)
        np.testing.assert_array_equal(_binomial.binomial(words, n, p), _numpy_counts(words, n, p))

    @needs_port
    @pytest.mark.parametrize("error, band", [(2.0**-12, 2.0**-10), (2.0**-8, 2.0**-6)],
                             ids=["2**-12", "2**-8"])
    def test_guard_band_absorbs_a_perturbed_log(self, monkeypatch, fresh_samplers, error, band):
        # A fast log off by a relative error far above numpy's draws numpy's
        # counts once the band covers that error: every decision it could
        # move is redone with libm's log. Without the band some draws differ.
        # At 2**-12 only the tails' floors move; at 2**-8 step 52's decisions
        # move too: log(v), and the threshold table entries, whose Stirling
        # bounds take their logs from the perturbed log when the table is
        # built. The tables are cached with their samplers, so the fixture
        # drops them before and after.
        fast_log = _binomial._fast_log
        monkeypatch.setattr(_binomial, "_fast_log", lambda v: fast_log(v) * (1.0 - error))
        words = _seed_words(MANY_STREAM_SEEDS)
        cases = [*MANY_STREAM_CASES, (10**6, (0.5, 0.3, 0.05, 0.9)), (10**4, (0.5, 0.3, 0.05, 0.9))]
        expected = [_numpy_counts(words, n, p) for n, p in cases]
        monkeypatch.setattr(_binomial, "_BAND", band)
        for (n, p), counts in zip(cases, expected):
            np.testing.assert_array_equal(_binomial.binomial(words, n, p), counts)
        monkeypatch.setattr(_binomial, "_BAND", 0.0)
        assert any(not np.array_equal(_binomial.binomial(words, n, p), counts)
                   for (n, p), counts in zip(cases, expected))

    @pytest.mark.parametrize("n, r, nrq", THRESHOLD_TERMS,
                             ids=["1000", "2**53+1", "raised-nrq", "1850", "2**63-1"])
    def test_table_decides_as_c_at_the_ties(self, monkeypatch, n, r, nrq):
        # Steps 50 and 52 from the table, from offsets past it and past its
        # cap, against C's steps at and beside each threshold: v == F, log(v)
        # on t - rho, t + rho and Stirling's bound, v == 0 and v < 0 (a nan
        # log(v), which C accepts). The table keeps T from np.log, so each
        # tie is decided by libm's log through the band.
        def decide(sampler, cases):
            d = np.array([d for d, _ in cases], dtype=np.int64)
            v = np.array([v for _, v in cases])
            return sampler._accepts(d, v, np.zeros(d.size, dtype=np.intp)).tolist()

        def c_decisions(term, cases):
            return [c_accepts(term, n, term.m + d, v) for d, v in cases]

        def sampler_with(nrq):
            sampler = _binomial._Btpe(n, [r])
            if nrq is not None:
                sampler.nrq[:] = nrq
            return sampler

        sampler = sampler_with(nrq)
        term = SimpleNamespace(**{name: getattr(sampler, name)[0].item()
                                  for name in ("r", "q", "m", "nrq", "xm")})
        reach = 200 if nrq else 60
        # Candidates lie in [0, n]; past n + 1 only with the raised nrq. At
        # y = n + 1 (w = 0) Python's division would raise.
        offsets = [d for d in range(-min(reach, term.m), reach + 1) if term.m + d != n + 1]
        cases, on_lower, above_nan = tie_cases(term, n, offsets)
        if nrq is not None:
            assert on_lower and above_nan  # the cases that need nextafter and fmin
        expected = c_decisions(term, cases)
        assert decide(sampler, cases) == expected
        assert sampler._reach.tolist() == [reach]  # the row grown to every offset
        assert decide(sampler, cases) == expected  # now all gathered from it
        # A table of half the reach, and the offsets past it built directly
        # once the cap stops the row from growing.
        monkeypatch.setattr(_binomial, "_TABLE_REACH", reach // 2)
        sampler = sampler_with(nrq)
        inner = [(d, v) for d, v in cases if abs(d) <= reach // 2]
        assert decide(sampler, inner) == c_decisions(term, inner)
        assert sampler._reach.tolist() == [reach // 2]
        assert decide(sampler, cases) == expected
        assert sampler._reach.tolist() == [reach // 2]

    def test_row_grown_in_steps_equals_one_build(self):
        # A row grown to 10, then 60, then 200 from m, across step 50's
        # |d| <= 20 band and into both of its tails past nrq / 2 - 1 = 104,
        # builds each entry once and holds, bit for bit, what one build of
        # all 401 offsets gives: step 50's running product runs left to right
        # from m, whatever offsets it is asked for.
        sampler = _binomial._Btpe(1000, [0.3])
        built = []
        thresholds = sampler.thresholds
        sampler.thresholds = lambda d, *args: built.append(d.size) or thresholds(d, *args)
        for d in (10, -60, 200):
            sampler._lookup(np.array([d]), np.zeros(1, dtype=np.intp), np.zeros(1))
        assert built == [21, 100, 280] and sampler._reach.tolist() == [200]
        offsets = np.arange(-200, 201)
        expected = thresholds(offsets, np.zeros(offsets.size, dtype=np.intp), _binomial._fast_log)
        assert np.isnan(expected[1, [0, 96, 180, 200, 220, 304, 400]]).all()  # step 50's F
        assert not np.isnan(expected[1, [140, 260]]).any()  # step 52's T
        start = int(sampler._start[0])
        assert sampler._table[:, start - 200:start + 201].tobytes() == expected.tobytes()

    def test_canary_drops_its_samplers(self, fresh_samplers):
        # The probes' samplers, and the threshold rows reserved with them, do
        # not outlive the check.
        _binomial.port_agrees.cache_clear()
        _binomial.port_agrees()
        assert _binomial._samplers.cache_info().currsize == 0

    @needs_port
    @pytest.mark.parametrize("n, p", [(1000, (0.1, 0.3, 0.3, 0.4)), (10**5, (0.5, 0.2, 0.5, 0.05))],
                             ids=["1000", "1e5"])
    def test_counts_do_not_depend_on_the_tables_history(self, monkeypatch, fresh_samplers, n, p):
        # The same words draw numpy's counts with new tables, with tables a
        # larger pass grew, and with the cap so small that every candidate
        # past 8 from m takes its threshold built at its own offset.
        words = _seed_words(MANY_STREAM_SEEDS)
        expected = _numpy_counts(words, n, p)
        np.testing.assert_array_equal(_binomial.binomial(words, n, p), expected)
        r = tuple(min(x, 1.0 - x) for x in p)
        sampler = [s for s, _, _ in _binomial._samplers(n, r) if isinstance(s, _binomial._Btpe)][0]
        reach = sampler._reach.copy()
        _binomial.binomial(_seed_words(np.arange(_PASS_SEEDS, dtype=np.uint64)), n, p)
        assert (sampler._reach > reach).any()
        np.testing.assert_array_equal(_binomial.binomial(words, n, p), expected)
        monkeypatch.setattr(_binomial, "_TABLE_REACH", 8)
        _binomial._samplers.cache_clear()
        np.testing.assert_array_equal(_binomial.binomial(words, n, p), expected)
        sampler = [s for s, _, _ in _binomial._samplers(n, r) if isinstance(s, _binomial._Btpe)][0]
        assert sampler._reach.max() <= 8

    @needs_port
    @pytest.mark.parametrize("rounds, accepting", [(0, True), (1, True), (2, True), (2, False)],
                             ids=["0", "1", "2", "2-accepting-none"])
    def test_stragglers_finished_by_numpy(self, monkeypatch, rounds, accepting):
        # Whatever the round a stream is left pending in, numpy redraws it
        # from its seed words with the count it would have drawn itself, also
        # when the rounds stepped every stream and accepted none.
        monkeypatch.setattr(_binomial, "_ROUNDS", rounds)
        if not accepting:
            for sampler in (_binomial._Inversion, _binomial._Btpe):
                monkeypatch.setattr(sampler, "round", accepting_none(sampler.round))
        seeds = range(200)
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        for n, p in [(1000, (0.1, 0.3, 0.2, 0.9)), (20, (0.1, 0.3, 0.97, 0.5))]:
            np.testing.assert_array_equal(_binomial.binomial(words, n, p, stragglers=0),
                                          numpy_counts(seeds, n, p))

    @needs_port
    @pytest.mark.parametrize("sampler", ["_Inversion", "_Btpe", "unwrapped-n+1"])
    def test_canary_sees_a_changed_sampler(self, monkeypatch, fresh_samplers, sampler):
        # A port that no longer draws numpy's counts fails port_agrees, even
        # though every probe group is small enough to leave to numpy: a round
        # off by one, or a BTPE set-up whose step 50 takes n + 1 = 2**63 at
        # n = 2**63 - 1, where C's int64 wraps it to -2**63.
        if sampler == "unwrapped-n+1":
            init = _binomial._Btpe.__init__

            def unwrapped(self, n, r):
                init(self, n, r)
                self._a = self._s * float(n + 1)

            monkeypatch.setattr(_binomial._Btpe, "__init__", unwrapped)
        else:
            round_ = getattr(_binomial, sampler).round

            def off_by_one(self, streams, g):
                accepted, drawn = round_(self, streams, g)
                return accepted, drawn + 1

            monkeypatch.setattr(getattr(_binomial, sampler), "round", off_by_one)
        _binomial.port_agrees.cache_clear()
        try:
            assert not _binomial.port_agrees()
        finally:
            # Refilled here, so that a failing canary leaves the next test
            # the unpatched port's verdict, not an empty cache; the samplers
            # the patched set-up built are dropped first.
            monkeypatch.undo()
            _binomial._samplers.cache_clear()
            _binomial.port_agrees.cache_clear()
            agrees = _binomial.port_agrees()
        assert agrees

    @pytest.mark.parametrize(
        "num_seeds, port_passes",
        [(_PORT_STREAMS // 4 - 1, []), (_PORT_STREAMS // 4, [_PORT_STREAMS // 4]),
         (_PORT_STREAMS // 4 + 1, [_PORT_STREAMS // 4 + 1]), (_PASS_SEEDS - 1, [_PASS_SEEDS - 1]),
         (_PASS_SEEDS, [_PASS_SEEDS]), (_PASS_SEEDS + 1, [_PASS_SEEDS])],
        ids=["below-cutoff", "cutoff", "cutoff+1", "pass-1", "pass", "pass+1"],
    )
    def test_pass_edges_equal_numpy(self, monkeypatch, num_seeds, port_passes):
        # Passes of at least the cutoff go to the port; a smaller one, such as
        # the one-seed pass after a full one, is drawn by numpy per stream.
        passes = []
        port = _binomial.binomial
        monkeypatch.setattr(_binomial, "binomial",
                            lambda words, n, p: passes.append(len(words)) or port(words, n, p))
        seeds = range(2**64 - num_seeds, 2**64)
        settings = bell_angle_settings(Visibility(v=0.9), Efficiency(eta=0.8))
        p = [joint_probability_at_phase(delta, settings.v, settings.eta)
             for delta in settings.phase_differences()]
        counts = simulate_counts(McConfig(seed=seeds, trials_per_setting=500, settings=settings))
        np.testing.assert_array_equal(np.transpose(counts), numpy_counts(seeds, 500, p))
        assert passes == (port_passes if NUMPY_AS_PINNED or _binomial.port_agrees() else [])

    @pytest.mark.parametrize("argv", [
        ["--trials", "1000", "--num-seeds", "300", "--seed-start", "5"],
        ["--trials", "20", "--num-seeds", "3000"],
        ["--trials", "1000", "--num-seeds", "3000", "--seed-start", "18446744073709548616"],
        ["--trials", "1000", "--num-seeds", "9000"],
    ], ids=["btpe-300", "inversion-3000", "btpe-3000-to-2**64-1", "btpe-9000"])
    def test_failing_canary_gives_numpys_bytes(self, monkeypatch, tmp_path, argv):
        # The 3000-seed runs are CI's, which checks only their line counts;
        # 9000 seeds take three passes, the last one partial.
        argv = ["mc-bell", *argv]
        assert cli.run([*argv, "-o", str(tmp_path / "port.csv")]) == 0

        def no_port(*args):
            raise AssertionError("the port ran after its canary failed")

        monkeypatch.setattr(_binomial, "port_agrees", lambda: False)
        monkeypatch.setattr(_binomial, "binomial", no_port)
        assert cli.run([*argv, "-o", str(tmp_path / "numpy.csv")]) == 0
        assert (tmp_path / "port.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_working_memory_is_flat_in_seeds(self):
        # The counts themselves grow with the seeds; the memory on top of
        # them is one pass's, whatever the number of seeds. Both sizes take
        # several passes.
        settings = bell_angle_settings(Visibility(v=0.9))
        simulate_counts(McConfig(seed=range(300), trials_per_setting=1000, settings=settings))
        extra = []
        for num_seeds in (10_000, 100_000):
            assert num_seeds > 2 * _PASS_SEEDS
            cfg = McConfig(seed=range(num_seeds), trials_per_setting=1000, settings=settings)
            tracemalloc.start()
            try:
                counts = simulate_counts(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - sum(count.nbytes for count in counts))
        assert extra[1] <= 1.5 * extra[0]

    def test_pass_footprint_per_stream(self):
        # One full pass, traced above its counts: the port updates its arrays
        # in place and drops each temporary once used, so a pass holds about
        # 144 bytes per stream (the seed words, the PCG64 states and a
        # round's temporaries); fresh temporaries at every step took 224.
        settings = bell_angle_settings(Visibility(v=0.9))
        cfg = McConfig(seed=range(_PASS_SEEDS), trials_per_setting=1000, settings=settings)
        simulate_counts(cfg)  # the canary and the samplers' set-up are cached
        tracemalloc.start()
        try:
            counts = simulate_counts(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = peak - sum(count.nbytes for count in counts)
        assert extra <= 158 * _PASS_SEEDS * 4

    @needs_port
    def test_port_agrees_with_this_numpy(self):
        # With numpy drawing the pinned counts, the port must be in use.
        assert _binomial.port_agrees()

    def test_small_run_never_runs_the_canary(self, tmp_path):
        # Fewer streams than the cutoff (the paper's 20 seeds) are drawn by
        # numpy and never pay for checking the port against numpy.
        code = ("import sys, pathent.cli; pathent.cli.run(sys.argv[1:]); "
                "from pathent import _binomial; "
                "print(_binomial.port_agrees.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(pathent.__file__).parents[1])}
        argv = ["mc-bell", "--num-seeds", "20", "-o", str(tmp_path / "out.csv")]
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout == "0\n"


class TestEstimateCh:
    def test_full_visibility_recovers_bell_margin(self):
        cfg = McConfig(seed=31, trials_per_setting=1_000_000,
                       settings=bell_angle_settings(UNIT_VISIBILITY))
        estimate = estimate_ch(cfg)
        assert abs(estimate.statistic_hat - (SQRT2 - 1.0)) <= 5.0 * estimate.std_error

    def test_half_visibility_stays_negative(self):
        cfg = McConfig(seed=31, trials_per_setting=1_000_000,
                       settings=bell_angle_settings(Visibility(v=0.5)))
        estimate = estimate_ch(cfg)
        assert estimate.statistic_hat + 3.0 * estimate.std_error < 0.0

    def test_single_trial_is_well_defined(self):
        cfg = McConfig(seed=9, trials_per_setting=1,
                       settings=bell_angle_settings(Visibility(v=0.9)))
        estimate = estimate_ch(cfg)
        assert math.isfinite(estimate.std_error) and estimate.std_error >= 0.0
        achievable = {
            float(a - b + c + d - 2)
            for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
        }
        assert estimate.statistic_hat in achievable

    def test_estimate_is_reproducible(self):
        cfg = McConfig(seed=77, trials_per_setting=50_000,
                       settings=bell_angle_settings(Visibility(v=0.8)))
        assert estimate_ch(cfg) == estimate_ch(cfg)

    def test_estimator_matches_counts(self):
        cfg = McConfig(seed=123, trials_per_setting=40_000,
                       settings=bell_angle_settings(Visibility(v=0.7), Efficiency(eta=0.6)))
        estimate = estimate_ch(cfg)
        n = cfg.trials_per_setting
        eta2 = 0.6 * 0.6
        p = [c / n for c in estimate.counts]
        assert estimate.statistic_hat == (p[0] - p[1] + p[2] + p[3] - 2.0 * eta2) / eta2
        t0, t1, t2, t3 = (q * (1.0 - q) / n for q in p)
        assert estimate.std_error == math.sqrt(t0 + t1 + t2 + t3) / eta2

    @pytest.mark.parametrize("n", [1, 1000, 2**53, 2**53 + 1, 2**63 - 1],
                             ids=["array-1", "array-1000", "array-2**53", "int-2**53+1",
                                  "int-2**63-1"])
    def test_frequencies_are_pythons_quotients(self, n):
        # Up to 2**53 an array division, above it Python's int division:
        # float(n) is no longer n there, and 2**53 / (2**53 + 1) is not 1.0.
        counts = np.array([0, 1, n - 1, n], dtype=np.int64)
        assert _frequencies(counts, n).tolist() == [c / n for c in counts.tolist()]
        assert _frequencies(int(counts[2]), n).tolist() == counts[2].item() / n

    def test_error_shrinks_with_sample_size(self):
        # Median absolute error over 20 seeds must decrease along the ladder.
        analytic = ch_statistic(bell_angle_settings(Visibility(v=0.9))).statistic
        medians = []
        for trials in (1_000, 10_000, 100_000):
            errors = []
            for seed in range(20):
                cfg = McConfig(seed=seed, trials_per_setting=trials,
                               settings=bell_angle_settings(Visibility(v=0.9)))
                errors.append(abs(estimate_ch(cfg).statistic_hat - analytic))
            medians.append(statistics.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_two_sigma_coverage_is_calibrated(self):
        # Across 200 seeds the 2-sigma interval should cover the analytic
        # value at roughly the nominal 95% rate.
        analytic = ch_statistic(bell_angle_settings(Visibility(v=0.9))).statistic
        covered = 0
        for seed in range(1000, 1200):
            cfg = McConfig(seed=seed, trials_per_setting=20_000,
                           settings=bell_angle_settings(Visibility(v=0.9)))
            estimate = estimate_ch(cfg)
            if abs(estimate.statistic_hat - analytic) <= 2.0 * estimate.std_error:
                covered += 1
        assert 0.90 <= covered / 200 <= 0.99


class TestSigmaViolation:
    def test_positive_margin(self):
        estimate = McEstimate(statistic_hat=0.3, std_error=0.1, counts=(0, 0, 0, 0), trials=1)
        assert estimate.sigma_violation == pytest.approx(3.0)

    def test_zero_error_edge_cases(self):
        up = McEstimate(statistic_hat=0.5, std_error=0.0, counts=(0, 0, 0, 0), trials=1)
        down = McEstimate(statistic_hat=-0.5, std_error=0.0, counts=(0, 0, 0, 0), trials=1)
        flat = McEstimate(statistic_hat=0.0, std_error=0.0, counts=(0, 0, 0, 0), trials=1)
        assert up.sigma_violation == math.inf
        assert down.sigma_violation == -math.inf
        assert flat.sigma_violation == 0.0

    def test_estimate_invariants_enforced(self):
        with pytest.raises(ValueError):
            McEstimate(statistic_hat=0.0, std_error=-0.1, counts=(0, 0, 0, 0), trials=1)
        with pytest.raises(ValueError):
            McEstimate(statistic_hat=0.0, std_error=0.0, counts=(2, 0, 0, 0), trials=1)
        for statistic_hat, std_error in ((math.nan, math.nan), (math.nan, 0.1), (math.inf, 0.1),
                                         (0.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                McEstimate(statistic_hat=statistic_hat, std_error=std_error,
                           counts=(0, 0, 0, 0), trials=1)
        with pytest.raises(ValueError, match="finite"):
            McEstimate(statistic_hat=np.array([0.1, math.nan]), std_error=np.array([0.1, 0.1]),
                       counts=(np.zeros(2, int),) * 4, trials=1)
        for counts in ((0.5, 0, 0, 0), (0.0, 0, 0, 0), (np.full(2, 0.5),) * 4, (True, 0, 0, 0)):
            with pytest.raises(ValueError, match="integers"):
                McEstimate(statistic_hat=0.0, std_error=0.0, counts=counts, trials=1)
        with pytest.raises(ValueError, match="trials must be an integer"):
            McEstimate(statistic_hat=0.0, std_error=0.0, counts=(0, 0, 0, 0), trials=True)
