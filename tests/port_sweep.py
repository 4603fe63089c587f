"""Seeded sweep of the binomial port against numpy's own generators.

    PYTHONPATH=src python tests/port_sweep.py [--seed SEED] [--seconds 30]

Draws random (n, p) sets from the port's regimes until the time budget is
spent: inversion, both sides of its ``r * n = 30`` edge, BTPE from n = 1e2 to
1e9 (through the threshold table rows and, past ``_TABLE_REACH``, the
thresholds built at their own offsets), p within 1e-9 of 0.5 and tiny p at n
up to ``2**63 - 1``, and n within a few of ``2**53``, of ``2**62`` and of
``2**63 - 1``, where C's int64 ``n + 1`` wraps. Each set draws 64 random
seeds times four terms, and ``binomial(words, n, p, stragglers=0)`` must
equal ``_numpy_counts``, one numpy generator per stream built from the seed
words. The port's draws (``port_draw``) allow ``PORT_ROUNDS`` (64) rounds
instead of ``_ROUNDS`` before the streams still pending go to numpy: none
may get there, or the comparison would check numpy against itself. Each set
is then drawn once more with the shipped ``_ROUNDS`` and ``_STRAGGLERS``,
which hands the streams still pending to numpy, to draw on from their PCG64
states; those counts must equal ``_numpy_counts`` too.

It prints its seed first, so that a failure can be replayed with ``--seed``,
and the failing set in full. It exits 1 at the first mismatch; once the
budget is spent, it prints how many streams reached numpy after the 64
rounds and how many numpy drew on after the shipped cutoffs, and exits 1 if
any stream reached numpy after the 64 rounds, 0 otherwise. Where numpy draws other counts than
``NUMPY_PINS`` (its binomial changed, and the port may be unused) it prints a
skip message and exits 0. The file sits outside tier-1 collection: its name
matches no test pattern.
"""

from __future__ import annotations

import argparse
import math
import random
import secrets
import sys
import time

import numpy as np

from pathent._binomial import _ROUNDS, _STRAGGLERS, _numpy_counts, _seed_words
from test_montecarlo import NUMPY_AS_PINNED, PORT_ROUNDS, port_draw

SEEDS = 64


def log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def sample_size(rng: random.Random, low: float, high: float) -> int:
    return max(1, min(int(log_uniform(rng, low, high)), 2**63 - 1))


def flipped(rng: random.Random, r: list[float]) -> list[float]:
    """Each r or 1 - r, and a later term now and then a copy of an earlier one."""
    p = [1.0 - x if rng.random() < 0.5 else x for x in r]
    for t in range(1, len(p)):
        if rng.random() < 0.25:
            p[t] = p[rng.randrange(t)]
    return p


def inversion(rng: random.Random) -> tuple[int, list[float]]:
    n = sample_size(rng, 1, 1e9)
    return n, flipped(rng, [min(rng.uniform(0.0, 30.0) / n, 0.5) for _ in range(4)])


def edge(rng: random.Random) -> tuple[int, list[float]]:
    """r a few ulps or up to 5 % from 30 / n, where numpy switches to BTPE."""
    n = sample_size(rng, 61, 1e12)
    r = []
    for _ in range(4):
        x = 30.0 / n * (1.0 + rng.uniform(-0.05, 0.05) * (rng.random() < 0.3))
        step = rng.randint(-3, 3)
        for _ in range(abs(step)):
            x = math.nextafter(x, math.copysign(1.0, step))
        r.append(x)
    return n, flipped(rng, r)


def btpe(rng: random.Random) -> tuple[int, list[float]]:
    n = sample_size(rng, 1e2, 1e9)
    return n, flipped(rng, [log_uniform(rng, 31.0 / n, 0.5) for _ in range(4)])


def half(rng: random.Random) -> tuple[int, list[float]]:
    n = sample_size(rng, 1e2, 2**63 - 1)
    return n, [0.5 + rng.uniform(-1e-9, 1e-9) * (rng.random() < 0.9) for _ in range(4)]


def tiny(rng: random.Random) -> tuple[int, list[float]]:
    n = sample_size(rng, 1e6, 2**63 - 1)
    return n, flipped(rng, [log_uniform(rng, 1e-2, 1e3) / n for _ in range(4)])


def near_powers(rng: random.Random) -> tuple[int, list[float]]:
    n = rng.choice([2**53 + rng.randint(-4, 4), 2**62 + rng.randint(-4, 4),
                    2**63 - 1 - rng.randint(0, 4)])
    return n, flipped(rng, [log_uniform(rng, 1e-18, 0.5) for _ in range(4)])


REGIMES = [inversion, edge, btpe, half, tiny, near_powers]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None, help="seed of the sweep (default: fresh)")
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget")
    args = parser.parse_args(argv)
    seed = secrets.randbits(64) if args.seed is None else args.seed
    print(f"port sweep seed {seed}, budget {args.seconds:g} s", flush=True)
    if not NUMPY_AS_PINNED:
        print(f"skipped: numpy {np.__version__} draws other counts than NUMPY_PINS, "
              "so the port may be unused")
        return 0
    rng = random.Random(seed)
    sets = {regime.__name__: 0 for regime in REGIMES}
    port_s = numpy_s = 0.0
    handed = continued = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        regime = rng.choice(REGIMES)
        n, p = regime(rng)
        seeds = np.array([rng.getrandbits(64) for _ in range(SEEDS)], dtype=np.uint64)
        words = _seed_words(seeds)
        t0 = time.perf_counter()
        drawn, handed_now = port_draw(words, n, p)
        t1 = time.perf_counter()
        expected = _numpy_counts(words, n, p)
        port_s += t1 - t0
        numpy_s += time.perf_counter() - t1
        sets[regime.__name__] += 1
        handed += handed_now
        shipped, continued_now = port_draw(words, n, p, _ROUNDS, _STRAGGLERS)
        continued += continued_now
        for draw, cutoffs in ((drawn, f"{PORT_ROUNDS} rounds"),
                              (shipped, f"{_ROUNDS} rounds and {_STRAGGLERS} stragglers")):
            if not np.array_equal(draw, expected):
                seed_at, term = np.argwhere(draw != expected)[0]
                print(f"MISMATCH in set {sum(sets.values())} ({regime.__name__}, {cutoffs}): "
                      f"n = {n}, p = {p!r}, seeds = {seeds.tolist()}; seed {seeds[seed_at]} "
                      f"term {term}: port {draw[seed_at, term]}, numpy {expected[seed_at, term]}")
                return 1
    total = sum(sets.values())
    print(f"{total} sets, {total * SEEDS * 4} streams in {time.perf_counter() - start:.1f} s "
          f"(port {port_s:.1f} s, numpy {numpy_s:.1f} s), no mismatch, {handed} streams "
          f"handed to numpy after {PORT_ROUNDS} rounds, {continued} drawn on by numpy after "
          f"{_ROUNDS} rounds and {_STRAGGLERS} stragglers; sets per regime: {sets}")
    return 1 if handed else 0


if __name__ == "__main__":
    sys.exit(main())
