"""numpy's binomial counts for many seeded streams at once, bit for bit.

Seeds in, counts out: ``counts(seeds, n, p)`` takes a 1-d uint64 array of
seeds and one probability per term, and returns the (seeds, terms) counts
that numpy's ``default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))``
draws with ``.binomial(n, p[t])``. It hashes the seeds in passes, numpy's
``SeedSequence`` as uint32 array arithmetic, into (4, terms, seeds) words:
one row per word numpy's PCG64 takes, so that each term's streams lie
contiguous. ``binomial(words, n, p)`` seeds those words in place into the
streams' states and draws the pass by a port of numpy's C code to uint64
and float64 arrays:

- PCG64 (O'Neill 2014): ``pcg64_set_seed`` takes the words as the 128-bit
  ``[hi, lo]`` state and sequence, ``inc = seq << 1 | 1``, and steps twice;
  each draw is one 128-bit LCG step and the XSL-RR output, and a double is
  ``(x >> 11) * 2**-53``.
- ``random_binomial``: with ``r = min(p, 1 - p)``, inversion when
  ``r * n <= 30`` and BTPE (Kachitvichyanukul & Schmeiser 1988) otherwise,
  on ``r``, the count then flipped to ``n - y`` when ``p > 0.5``.

Bit-identity rests on computing what numpy's C code computes, in its order:
the inversion start ``exp(n * log1p(-p))`` (with ``log(1 - p)`` hundreds of
counts in ten thousand differ at n = 1e15, p = 1e-14); libm's ``log`` for
every decision BTPE takes from a log (``np.log`` may be a SIMD routine whose
last bit differs from libm on a fraction of a percent of inputs, so BTPE
takes its logs from ``np.log`` and recomputes with ``math.log`` each floor or
comparison that lies within ``_BAND`` of its threshold); C's int64
wrap-around in ``-k * k`` and in step 50's ``n + 1``, which is ``-2**63`` at
``n = 2**63 - 1``; and the terms ``n + 1 - m`` and ``n - y + 1`` of
Stirling's bound, which numpy forms in float64, not int64. Each sampler's
set-up is float64 array arithmetic with one row per distinct r, and each
stream indexes its term's row.

BTPE's steps 50 and 52 depend on a candidate only through its r, its
offset ``y - m`` and its v. Each BTPE sampler, cached by ``_samplers``,
reserves at set-up a row per distinct r, a fixed window of the offsets within
``_TABLE_REACH`` of m, and fills it with thresholds as candidates reach them:
step 50's product F, or step 52's squeeze and Stirling's bound folded into
one threshold T for ``log(v)``, built from ``np.log``. A round gathers its
candidates' entries; those within ``_BAND`` of their entry, scaled per entry
by ``log(v)`` and T's terms, have both recomputed from libm. A row is built
out to the reach of a round's candidates unless that is more than
``_TABLE_REACH`` on either side of m; candidates beyond the rows get their
thresholds built the same way at their own offsets.

Both samplers restart from nothing but the RNG state after a rejection, so a
draw is a sequence of masked rounds over the still-pending streams, which
are compacted after each round. Numpy draws on the few streams left after
some rounds, each from its current PCG64 state: it makes the attempts after
the port's rejected ones and reaches the count it draws from the seed
words. Numpy also draws from the seed words, one generator per stream, a
pass of fewer than ``_PORT_STREAMS`` streams and every pass once
``port_agrees`` finds the port differing from numpy on fixed probes: numpy's
stream-compatibility policy (NEP 19) fixes the hash and the bit generator
but lets ``binomial`` change between numpy releases.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_TERMS = 4
#: Seeds hashed and drawn per pass of ``counts``: 2**14 streams, which bounds
#: the working set whatever the number of seeds.
_PASS_SEEDS = 2**14 // _TERMS
#: A pass of fewer streams is drawn by numpy one stream at a time instead of
#: by the vectorised port.
_PORT_STREAMS = 256
#: Rounds of the port before the pending streams are left to numpy.
_ROUNDS = 8
#: Pending streams few enough to leave to numpy without another round. A
#: round's fixed cost is about that of numpy redrawing 110 streams (BTPE at
#: n = 1000), and it accepts about 85 % of them.
_STRAGGLERS = 128

_MASK32 = 0xFFFF_FFFF
_MULTIPLIER = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645  # PCG's 128-bit default
_TWO_M53 = 2.0**-53


def counts(seeds: np.ndarray, n: int, p: Sequence[float]) -> np.ndarray:
    """numpy's (seeds, terms) counts for a 1-d uint64 array of seeds, p per term.

    ``n`` is an integer in [1, 2**63 - 1] and ``p`` holds one probability for
    each of the ``_TERMS`` terms.
    """
    drawn = np.empty((_TERMS, seeds.size), dtype=np.int64)
    for first in range(0, seeds.size, _PASS_SEEDS):
        words = _seed_words(seeds[first:first + _PASS_SEEDS])
        draw = binomial if words[0].size >= _PORT_STREAMS and port_agrees() else _numpy_counts
        drawn[:, first:first + _PASS_SEEDS] = draw(words, int(n), p).T
    return drawn.T


# numpy's SeedSequence (O'Neill's seed_seq_fe) as uint32 array arithmetic. Its
# hash constants advance by a fixed multiplier on every call, whatever the
# data, so the whole chain is computed once here.
_XSHIFT = np.uint32(16)


def _constant_chain(init: int, mult: int, calls: int) -> np.ndarray:
    factors = np.array([init] + [mult] * calls, dtype=np.uint32)
    return np.multiply.accumulate(factors, dtype=np.uint32)  # without dtype, a uint64 product


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

    Returns a C-contiguous array of shape (4, terms, seeds), one row per
    word: state hi and lo, sequence hi and lo. With a spawn key,
    numpy pads the entropy of every seed below 2**64 to the same five words
    ``[lo, hi, 0, 0, t]``, so the first two mixing stages depend on the seed
    alone and only the last one on the term. Every operation runs along the
    seeds: on rows of 4 or 8 words, numpy would spend its time in loop
    overhead.
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
    words = np.empty((4, _TERMS, seeds.size), dtype="<u8")
    halves = words.view("<u4").reshape(4, _TERMS, seeds.size, 2)
    for term, mixed in enumerate(_mix(pool, _TERM_HASHES)):
        state = mixed ^ _STATE_XOR
        state *= _STATE_MULT
        state ^= state >> _XSHIFT
        halves[:, term] = state.reshape(4, 2, -1).transpose(0, 2, 1)
    return words


class _StreamWords(ISeedSequence):
    """An ``ISeedSequence`` that hands one stream's hashed words to numpy's PCG64.

    PCG64 reads the buffer raw, so a strided view would seed another stream:
    anything but 4 C-contiguous uint64 raises ``ValueError``.
    """

    def __init__(self, words: np.ndarray) -> None:
        if not (isinstance(words, np.ndarray) and words.shape == (4,)
                and words.dtype == np.uint64 and words.flags.c_contiguous):
            raise ValueError(f"a stream's words are 4 C-contiguous uint64, got {words!r}")
        self.words = words

    def generate_state(self, n_words: int, dtype: object = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only 4 uint64 words are hashed, got {n_words} {dtype!r}")
        return self.words


def _numpy_counts(words: np.ndarray, n: int, p: Sequence[float]) -> np.ndarray:
    """numpy's (seeds, terms) counts for (4, terms, seeds) seed words, one ``Generator`` per stream."""
    rows = np.ascontiguousarray(words.T)  # (seeds, terms, 4): each stream's words contiguous
    p = np.broadcast_to(p, rows.shape[:2]).ravel().tolist()
    return np.array([np.random.Generator(np.random.PCG64(_StreamWords(row))).binomial(n, q)
                     for row, q in zip(rows.reshape(-1, 4), p)],
                    dtype=np.int64).reshape(rows.shape[:2])


def _drawn_on(streams: np.ndarray, n: int, r: np.ndarray) -> list[int]:
    """numpy's count for each stream of a (4, N) state array, drawn on from that state.

    One generator takes each stream's state in turn through ``PCG64.state``.
    """
    bit_generator = np.random.PCG64(0)
    generator, state = np.random.Generator(bit_generator), bit_generator.state
    drawn = []
    for hi, lo, inc_hi, inc_lo, q in zip(*streams.tolist(), r.tolist()):
        state["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
        bit_generator.state = state
        drawn.append(generator.binomial(n, q))
    return drawn


# PCG64 on uint64 arrays. A stream set is one (4, N) array: state hi and lo,
# increment hi and lo; numpy's uint64 array arithmetic wraps modulo 2**64.
#
# The port's arrays are updated in place (``out=``, augmented assignment,
# ``np.copyto(..., where=)``) and each temporary is dropped once used: the
# words are seeded in place into the states, and a pass allocates ``_step``'s
# three scratch rows once, which also take a round's gathered parameters.
# glibc hands the heap a pass grew back to the OS after the pass, so the next
# pass faults its pages in again: written this way, a pass holds 118 bytes
# per stream above its counts (141 with the states apart from the words and
# a scratch per step, 224 with fresh temporaries at every step). In
# perfbench's loop, a warm 3000-seed mc-bell invocation's hash and pass took
# 60 instead of 265 minor page faults, and the invocation 336-347 instead of
# 499-511 (two seeds). Every scalar in an in-place uint64 operation is an
# np.uint64: numpy 1.x promotes a uint64 array and a Python int to float64,
# which ``out=`` then refuses.
_U64 = np.uint64
_LOW32 = _U64(_MASK32)
_MULT_HI, _MULT_LO = _U64(_MULTIPLIER >> 64), _U64(_MULTIPLIER & (2**64 - 1))
_MULT_LO_0, _MULT_LO_1 = _MULT_LO & _LOW32, _MULT_LO >> _U64(32)


def _step(streams: np.ndarray, scratch: np.ndarray) -> None:
    """state = state * multiplier + inc, modulo 2**128, in place.

    ``scratch`` holds three uint64 rows of the streams' length. The high
    word gains the high 64 bits of ``lo * _MULT_LO``, formed from 32-bit
    halves: ``lo = a1 * 2**32 + a0`` and ``_MULT_LO = b1 * 2**32 + b0``.
    """
    hi, lo, inc_hi, inc_lo = streams
    a1, w, t = scratch
    np.right_shift(lo, _U64(32), out=a1)
    np.bitwise_and(lo, _LOW32, out=w)
    w *= _MULT_LO_0
    w >>= _U64(32)
    w += np.multiply(a1, _MULT_LO_0, out=t)  # w1 = a1 * b0 + (a0 * b0 >> 32)
    hi *= _MULT_LO
    hi += np.multiply(lo, _MULT_HI, out=t)
    a1 *= _MULT_LO_1
    hi += a1
    hi += np.right_shift(w, _U64(32), out=t)
    w &= _LOW32
    np.bitwise_and(lo, _LOW32, out=t)
    t *= _MULT_LO_1
    t += w  # w2 = a0 * b1 + (w1 & mask)
    t >>= _U64(32)
    hi += t
    hi += inc_hi
    lo *= _MULT_LO
    lo += inc_lo
    hi += np.less(lo, inc_lo, out=t)  # the carry out of the low word


def _seeded(words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """numpy's ``pcg64_set_seed`` on the (4, N) words ``[state hi, lo, seq hi, lo]``, in place.

    Each column becomes its stream's ``[state hi, lo, inc hi, lo]``;
    ``scratch`` is ``_step``'s.
    """
    hi, lo, inc_hi, inc_lo = words
    inc_hi <<= _U64(1)  # inc = seq << 1 | 1
    inc_hi |= inc_lo >= _U64(2**63)
    inc_lo <<= _U64(1)
    inc_lo |= _U64(1)
    # The first step, from state 0, gives inc; the seed is added to it.
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo  # the carry out of the low word
    _step(words, scratch)
    return words


def _next_double(streams: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Step every stream and return its next double in [0, 1); ``scratch`` is ``_step``'s."""
    _step(streams, scratch)
    hi, lo = streams[0], streams[1]
    rot, right = scratch[0], scratch[1]
    x = hi ^ lo
    np.right_shift(hi, _U64(58), out=rot)
    np.right_shift(x, rot, out=right)
    np.negative(rot, out=rot)
    rot &= _U64(63)
    x <<= rot
    x |= right
    x >>= _U64(11)
    double = _recast(x, np.float64)  # exact below 2**53
    double *= _TWO_M53
    return double


def _gather(values: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[g]`` written into ``out``, a row of ``_step``'s scratch.

    Mode "clip" writes into ``out`` itself (``g`` is always in range); the
    default "raise" gathers into a copy of it first.
    """
    return values.take(g, out=out, mode="clip")


def _recast(values: np.ndarray, dtype: type) -> np.ndarray:
    """``values.astype(dtype)`` in the buffer of ``values``, a 1-d array of the same item size."""
    recast = values.view(dtype)
    np.copyto(recast, values, casting="unsafe")  # element by element, each in its own slot
    return recast


def _log(values: np.ndarray) -> np.ndarray:
    """C's ``log`` element by element: libm's value, -inf at 0 and nan below."""
    log, inf, nan = math.log, -math.inf, math.nan
    return np.array([log(x) if x > 0.0 else inf if x == 0.0 else nan
                     for x in values.ravel().tolist()], dtype=np.float64).reshape(values.shape)


def _fast_log(values: np.ndarray) -> np.ndarray:
    """numpy's ``log``: -inf at 0 and nan below, as C's, but not always libm's last bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(values)


#: Relative distance from a decision within which a value computed from
#: ``_fast_log`` is recomputed from ``_log``. numpy's float64 log is within 1
#: ulp of the true log on all 147 rows of its validation set
#: (umath-validation-set-log.csv) and glibc's within less than 1, so the two
#: logs differ by at most about 2 ulp, 2**-51 relative. Every later operation
#: (a product, a quotient, a sum, a floor, a comparison) is monotone and adds
#: at most an ulp of its result, so two values computed from either log lie
#: within a few ulp of the sum of their terms' magnitudes, and they can fall
#: on two sides of an integer or a threshold only within that distance of it.
#: The band is 2**21 times 2**-51.
_BAND = 2.0**-30


def _near(value: np.ndarray, threshold: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Where ``value`` lies within ``_BAND * scale`` of ``threshold``; ``scale`` is overwritten."""
    scale *= _BAND
    distance = value - threshold
    return np.abs(distance, out=distance) <= scale


def _tail_floor(base: np.ndarray, v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``floor(base + log(v) / lam)`` as int64, libm's log wherever numpy's could move it.

    Redone with ``_log`` when the value lies within ``_BAND * (|base| + |s| + 1)``
    of an integer, ``s = log(v) / lam``.
    """
    s = _fast_log(v) / lam
    value = base + s
    near = _near(value, np.rint(value), np.abs(base) + np.abs(s) + 1.0)
    value[near] = base[near] + _log(v[near]) / lam[near]
    return np.floor(value).astype(np.int64)


# The samplers. Each holds its set-up as float64 arrays with one entry per
# distinct r, computed in C's order: apart from the inversion's start, C's
# set-up uses only + - * /, sqrt and floor, which float64 arrays round as C's
# doubles do. ``round`` makes one attempt on every stream, ``g`` giving each
# stream's row and ``scratch`` being ``_step``'s, and returns (accepted,
# counts of the accepted).

class _Inversion:
    """numpy's ``random_binomial_inversion``: walk the pmf from 0 up to ``bound``."""

    def __init__(self, n: int, r: list[float]) -> None:
        self.n, self.r = n, np.array(r)
        self.q = 1.0 - self.r
        self.qn = np.array([math.exp(float(n) * math.log1p(-p)) for p in r])  # libm's, as C's
        np_ = float(n) * self.r
        bound = np.minimum(float(n), np_ + 10.0 * np.sqrt(np_ * self.q + 1.0))
        self.bound = bound.astype(np.int64)

    def round(self, streams: np.ndarray, scratch: np.ndarray,
              g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = _next_double(streams, scratch)
        f0, f1, f2 = scratch.view(np.float64)  # no step uses them until the next round
        p, q, px = _gather(self.r, g, f0), _gather(self.q, g, f1), _gather(self.qn, g, f2)
        bound = self.bound[g]
        x = np.zeros(u.size, dtype=np.int64)
        accepted = np.ones(u.size, dtype=bool)
        walking = np.flatnonzero(u > px)
        j = 0
        while walking.size:  # every walking stream is at the same X = j
            j += 1
            over = j > bound[walking]
            accepted[walking[over]] = False  # C starts over
            walking = walking[~over]
            u[walking] -= px[walking]
            px[walking] = float(self.n - j + 1) * p[walking] * px[walking] / (j * q[walking])
            x[walking] = j
            walking = walking[u[walking] > px[walking]]
        return accepted, x[accepted]


#: Offsets from m that a threshold row reaches on either side: a fixed window
#: of 8193 pairs of float64 (131 KB), reserved at set-up and filled as reached.
_TABLE_REACH = 4096


class _Btpe:
    """numpy's ``random_binomial_btpe`` for ``r <= 0.5`` and ``n * r > 30``.

    Steps 50 and 52 take thresholds from a table with one window per distinct r.
    """

    def __init__(self, n: int, r: list[float]) -> None:
        nf = float(n)
        self.n, self.r = n, np.array(r)
        self.q = q = 1.0 - self.r
        fm = nf * self.r + self.r
        m = np.floor(fm)
        self.m, self.nrq = m.astype(np.int64), nf * self.r * q
        self.p1 = p1 = np.floor(2.195 * np.sqrt(self.nrq) - 4.6 * q) + 0.5
        self.xm = xm = m + 0.5
        self.xl, self.xr = xl, xr = xm - p1, xm + p1
        self.c = c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * self.r)
        self.laml = laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        self.lamr = lamr = a * (1.0 + a / 2.0)
        self.p2 = p2 = p1 * (1.0 + 2.0 * c)
        self.p3 = p3 = p2 + c / laml
        self.p4 = p3 + c / lamr
        # Step 50's ratios are a / i - s, a = s * (n + 1) with C's int64 n + 1,
        # which wraps to -2**63 at n = 2**63 - 1. Stirling's bound takes
        # f1 = m + 1, z = n + 1 - m and n - m + 1/2, which numpy forms in
        # float64, and the corrections of f1 and z.
        self._s = self.r / q
        self._a = self._s * float((n + 1 + 2**63) % 2**64 - 2**63)
        self._f1_z = np.stack([m + 1.0, nf + 1.0 - m])
        self._nm = (n - self.m).astype(np.float64) + 0.5
        self._corrections = _stirling(self._f1_z)
        # Row i's window has offset 0 at column _start[i] and is built out to
        # _reach[i] on both sides, -1 before its first entry.
        width = 2 * _TABLE_REACH + 1
        self._table = np.empty((2, len(r) * width))
        self._start, self._reach = np.arange(len(r)) * width + _TABLE_REACH, np.full(len(r), -1)

    def thresholds(self, d: np.ndarray, g: np.ndarray, log: Callable[[np.ndarray], np.ndarray],
                   a: np.ndarray | None = None) -> np.ndarray:
        """BTPE's threshold and its band scale for candidates y = m + d of rows g, as (2, d.size).

        C accepts y at step 50 unless ``v > F``, F the product of the pmf
        ratios from m to y, and at step 52 unless ``log(v) > T``, the squeeze
        and Stirling's bound B folded into one number,
        ``T = max(fmin(t + rho, B), nextafter(t - rho, -inf))``: C accepts
        below ``t - rho``, rejects above ``t + rho`` and in between rejects
        above B only, so a nan B rejects nothing there and a nan log(v)
        nothing at all. ``log`` takes B's three logs. The scale is nan at
        step 50, whose F holds no log, and at step 52 ``|T|`` plus the
        magnitudes of B's terms. Given each candidate's ``a = log(v)``, T
        may hold only for that a (see ``_folded``). Offsets outside [-m, n - m] get C's arithmetic too,
        infinities and nans included, though no candidate reaches them.
        """
        k = np.abs(d)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            table = self._folded(d, k, g, log, a)
            value, scale = table
            fifty = np.flatnonzero(~((k > 20) & (k < self.nrq[g] / 2.0 - 1)))
            rows = g[fifty]
            for row in np.flatnonzero(np.bincount(rows)).tolist():
                mine = fifty[rows == row]
                value[mine], scale[mine] = self.products(row, d[mine]), np.nan
        return table

    def products(self, row: int, d: np.ndarray) -> np.ndarray:
        """Step 50's F at offsets ``d = y - m`` of a row: the product of the pmf ratios from m to y.

        Above m, F *= a / i - s from i = m + 1 to y: one running product.
        Below, F /= a / i - s from i = y + 1 to m, a division chain per y.
        """
        m, a, s = int(self.m[row]), self._a[row], self._s[row]
        below, above = -int(d.min(initial=0)), int(d.max(initial=0))
        factors = a / np.arange(m - below + 1, m + above + 1) - s
        f = np.ones(d.size)
        up = d > 0
        f[up] = np.cumprod(factors[below:])[d[up] - 1]
        down = d < 0
        ratios = factors[:below].tolist()  # i = m - below + 1 to m
        f[down] = [functools.reduce(operator.truediv, ratios[below + x:], 1.0)
                   for x in d[down].tolist()]
        return f

    def _folded(self, d: np.ndarray, k: np.ndarray, g: np.ndarray,
                log: Callable[[np.ndarray], np.ndarray], a: np.ndarray | None) -> np.ndarray:
        """Step 52's T and its scale at offsets d of rows g, ``k = |d|``, whatever step C takes.

        Given each candidate's ``a = log(v)``, B is formed only where a lies
        within the band of [t - rho, t + rho]. Elsewhere the squeeze decides,
        and so does T = t + rho, the fold of a nan B.
        """
        kf, nrq = k.astype(np.float64), self.nrq[g]
        rho = (kf / nrq) * ((kf * (kf / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = (-k * k).astype(np.float64) / (2 * nrq)  # int64 product, wrapping as in C
        upper = t + rho
        table = np.stack([upper, np.abs(upper)])  # T and its scale for a nan B
        value, scale = table
        at = slice(None)
        if a is not None:
            at = np.flatnonzero(~(np.abs(a - t) - rho > _BAND * (np.abs(a) + np.abs(t) + rho)))
            if not at.size:
                return table
            d, t, rho, g = d[at], t[at], rho[at], g[at]
        # numpy forms x1 and w, as f1 and z, in float64 from n, m and y, not
        # in int64: above 2**53 the two differ.
        yf = (self.m[g] + d).astype(np.float64)
        x1, w = yf + 1.0, float(self.n) - yf + 1.0
        f1, z = self._f1_z[:, g]
        # Stirling's bound is the sum, left to right, of three logs times
        # their coefficients and four correction terms.
        terms = np.empty((7, d.size))
        terms[:3] = log(np.stack([f1 / x1, z / w, w * self.r[g] / (x1 * self.q[g])]))
        terms[0] *= self.xm[g]
        terms[1] *= self._nm[g]
        terms[2] *= d
        terms[3:5] = self._corrections[:, g]
        terms[5:] = _stirling(np.stack([x1, w]))
        folded = np.maximum(np.fmin(upper[at], functools.reduce(np.add, terms)),
                            np.nextafter(t - rho, -np.inf))
        size = np.abs(folded)  # a nan bound leaves T = t + rho, which holds no log
        value[at], scale[at] = folded, np.fmax(size + np.abs(terms).sum(axis=0), size)
        return table

    def _lookup(self, d: np.ndarray, g: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``thresholds`` from ``_fast_log`` for candidates y = m + d of rows g, given log(v).

        From the table where it reaches, else built for each candidate.
        """
        k = np.abs(d)
        outside = k > self._reach[g]
        index = self._start[g] + d
        if not outside.any():
            return self._table.take(index, axis=1)
        for row in np.flatnonzero(np.bincount(g[outside])).tolist():
            reach = int(k[g == row].max())
            if reach <= _TABLE_REACH:
                offsets = np.arange(-reach, reach + 1)
                offsets = offsets[np.abs(offsets) > self._reach[row]]  # not built yet
                self._table[:, self._start[row] + offsets] = self.thresholds(
                    offsets, np.full(offsets.size, row), _fast_log)
                self._reach[row] = reach
        outside = k > self._reach[g]
        if outside.all():
            return self.thresholds(d, g, _fast_log, a)
        index[outside] = index[outside.argmin()]  # a built column, overwritten below
        table = self._table.take(index, axis=1)
        outside = np.flatnonzero(outside)
        if outside.size:
            value, scale = table
            value[outside], scale[outside] = self.thresholds(d[outside], g[outside], _fast_log,
                                                             a[outside])
        return table

    def _accepts(self, d: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Steps 50 and 52: whether C accepts each candidate y = m + d of row g, given v."""
        x = _fast_log(v)
        threshold, scale = self._lookup(d, g, x)
        np.copyto(x, v, where=~(scale >= 0.0))  # step 52 compares log(v), step 50 v
        scale += np.abs(x)
        near = np.flatnonzero(_near(x, threshold, scale))  # none at step 50
        if near.size:  # there log(v) and T come from libm
            x[near] = _log(v[near])
            threshold[near] = self.thresholds(d[near], g[near], _log)[0]
        return ~(x > threshold)

    def round(self, streams: np.ndarray, scratch: np.ndarray,
              g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # In place, as PCG64 above. Each parameter is gathered where it is
        # used, into a scratch row whose last value is read no more: no step
        # uses the scratch until the next round.
        f0, f1, f2 = scratch.view(np.float64)
        u = _next_double(streams, scratch)
        u *= _gather(self.p4, g, f0)
        v = _next_double(streams, scratch)
        # Step 10 accepts the triangle; step 20's box gives a candidate y and a
        # new v to step 50, or rejects. Both are evaluated for every stream.
        p1 = _gather(self.p1, g, f0)
        accepted = u <= p1
        y = p1 * v
        np.subtract(_gather(self.xm, g, f1), y, out=y)
        y += u
        x = np.subtract(u, p1, out=f1)
        x /= _gather(self.c, g, f2)
        x += _gather(self.xl, g, f2)
        np.copyto(y, x, where=~accepted)
        y = _recast(np.floor(y, out=y), np.int64)
        np.subtract(_gather(self.m, g, f2.view(np.int64)), x, out=x)
        x += 0.5
        np.abs(x, out=x)
        x /= p1
        vb = _gather(self.c, g, f0)
        vb *= v
        vb += 1.0
        vb -= x
        p2 = _gather(self.p2, g, f1)
        box = u <= p2
        box &= vb <= 1.0
        box &= ~accepted
        np.copyto(v, vb, where=box)
        tested = [np.flatnonzero(box)]
        # Steps 30 and 40, the tails, reject v == 0: its log has no floor.
        tail = u > p2
        del box
        tail &= v > 0.0
        right = u > _gather(self.p3, g, f0)
        right &= tail
        tail ^= right  # the left tail, p2 < u <= p3
        left, right = np.flatnonzero(tail), np.flatnonzero(right)
        del tail
        gl = g[left]
        laml = self.laml[gl]
        yt = _tail_floor(self.xl[gl], v[left], laml)
        vt = v[left] * (u[left] - self.p2[gl]) * laml
        keep = yt >= 0
        left = left[keep]
        y[left], v[left] = yt[keep], vt[keep]
        tested.append(left)
        gr = g[right]
        lamr = self.lamr[gr]
        # C's xr - log(v) / lamr: x - y / l and x + y / -l are the same IEEE value.
        yt = _tail_floor(self.xr[gr], v[right], -lamr)
        vt = v[right] * (u[right] - self.p3[gr]) * lamr
        keep = yt <= self.n
        right = right[keep]
        y[right], v[right] = yt[keep], vt[keep]
        tested.append(right)
        del u

        at = np.concatenate(tested)
        g, v = g[at], v[at]  # the full-size v goes
        accepted[at] = self._accepts(y[at] - self.m[g], v, g)
        return accepted, y[accepted]


def _stirling(x: np.ndarray) -> np.ndarray:
    """One of BTPE's four Stirling correction terms, in C's operation order."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


@functools.lru_cache(maxsize=8)
def _samplers(n: int, r: tuple[float, ...]
              ) -> list[tuple[_Inversion | _Btpe, list[int], np.ndarray]]:
    """The sampler numpy's ``random_binomial`` picks for each r, with its terms and their rows.

    A sampler holds one row per distinct r. Terms with r = 0 draw nothing
    and get no sampler.
    """
    inversion = [t for t, x in enumerate(r) if 0.0 < x and x * float(n) <= 30.0]
    btpe = [t for t, x in enumerate(r) if x * float(n) > 30.0]
    samplers = []
    for kind, terms in ((_Inversion, inversion), (_Btpe, btpe)):
        if terms:
            distinct = list(dict.fromkeys(r[t] for t in terms))
            rows = np.array([distinct.index(r[t]) for t in terms])
            samplers.append((kind(n, distinct), terms, rows))
    return samplers


def binomial(words: np.ndarray, n: int, p: Sequence[float],
             stragglers: int = _STRAGGLERS) -> np.ndarray:
    """numpy's (seeds, terms) counts for (4, terms, seeds) seed words, p per term.

    Seeds the words in place into the streams' PCG64 states, so the caller
    passes a copy of any words it uses again. A sampler that serves a run
    of consecutive terms takes their rows as a slice, and draws into a
    slice of the counts. ``n`` is a Python int in [1, 2**63 - 1]. Numpy
    draws on a sampler's streams once no more than ``stragglers`` of them
    are pending, before the first round too; at 0 the port's rounds run on
    every stream.
    """
    p = np.asarray(p, dtype=np.float64)
    flip = p > 0.5
    r = np.where(flip, 1.0 - p, p)
    counts = np.zeros(words.shape[1:], dtype=np.int64)
    for sampler, terms, rows in _samplers(n, tuple(r.tolist())):
        at = slice(terms[0], terms[-1] + 1) if terms[-1] - terms[0] < len(terms) else terms
        drawn = counts[at]
        _rounds(sampler, words[:, at].reshape(4, -1), np.repeat(rows, words.shape[2]),
                stragglers, drawn.reshape(-1))
        counts[at] = drawn  # nothing to copy where ``at`` is a slice
    np.subtract(n, counts, out=counts, where=flip[:, np.newaxis])
    return counts.T


def _rounds(sampler: _Inversion | _Btpe, streams: np.ndarray, g: np.ndarray,
            stragglers: int, counts: np.ndarray) -> None:
    """Masked rounds over the pending streams, then numpy draws on the stragglers.

    Seeds the (4, N) seed words ``streams`` in place and writes every
    stream's count into ``counts``. ``_step``'s scratch is allocated once
    and sliced as streams drop out.
    """
    scratch = np.empty((3, streams.shape[1]), dtype=np.uint64)
    _seeded(streams, scratch)
    pending = np.arange(streams.shape[1])
    for _ in range(_ROUNDS):
        if pending.size <= stragglers:
            break
        accepted, drawn = sampler.round(streams, scratch[:, :pending.size], g)
        counts[pending[accepted]] = drawn
        del drawn
        kept = np.flatnonzero(np.logical_not(accepted, out=accepted))
        del accepted
        pending, streams, g = pending.take(kept), streams.take(kept, axis=1), g.take(kept)
    if pending.size:
        counts[pending] = _drawn_on(streams, sampler.n, sampler.r[g])


#: (n, p per term, first word) probes for port_agrees, each on 32 seeds whose
#: words count up from ``first`` times the golden ratio: inversion on both
#: sides of p = 0.5 and at n = 1e15, p = 1e-14 (where log(1 - p) would
#: differ), and BTPE at sizes whose draws reach its tails and Stirling's bound.
#: The last two start where a draw takes Stirling's bound above 2**53 (where
#: its float64 terms differ from int64 ones) and where C's -k * k wraps, at
#: n = 2**63 - 1, where C's n + 1 wraps too: a numpy built without these
#: wraps sends every pass to numpy.
#: A probe's sampler groups hold at most 128 streams, no more than
#: ``_STRAGGLERS``, so the probes draw with a cutoff of 0: numpy alone would
#: draw them otherwise, and the check would compare numpy with itself.
_PROBES = ((10**15, (1e-14, 2e-14), 0), (20, (0.2, 0.93, 0.0, 1.0), 0),
           (1000, (0.3, 0.75, 0.05), 0), (10**6, (0.5,), 0),
           (2**53 + 1, (0.25, 1e-14), 512), (2**63 - 1, (0.5, 1e-17), 1024))
_PROBE_SEEDS = 32


@functools.cache
def port_agrees() -> bool:
    """Whether the port draws numpy's counts on fixed probes; checked once."""
    try:
        for n, p, first in _PROBES:
            words = np.arange(first, first + _PROBE_SEEDS * len(p) * 4, dtype=np.uint64)
            words = (words * 0x9E37_79B9_7F4A_7C15).reshape(_PROBE_SEEDS, len(p), 4).T.copy()
            if not np.array_equal(binomial(words.copy(), n, p, stragglers=0),
                                  _numpy_counts(words, n, p)):
                return False
        return True
    finally:
        _samplers.cache_clear()  # the probes' reserved threshold rows go with the check
