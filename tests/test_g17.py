"""The vectorised ``%.17g`` renderer against Python's ``%``, byte for byte.

Each check writes two columns through ``cli._write_output`` at row counts on
both sides of the renderer's row cutoff and of one block, so both paths and
a block boundary are exercised; ``%`` applied to each value is the reference.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathent import cli

#: Row counts around the cutoff below which ``%`` renders a block, and around
#: the block size.
_ROWS = (cli._KERNEL_ROWS - 1, cli._KERNEL_ROWS, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1)


def assert_matches_percent(values, rows):
    """Two columns, ``values`` cycled to ``rows`` rows and the same reversed."""
    column = np.resize(np.asarray(values, dtype=np.float64), rows)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_output(None, "", "%.17g,%.17g\n", [column, column[::-1]])
    expected = "".join("%.17g,%.17g\n" % pair
                       for pair in zip(column.tolist(), column[::-1].tolist()))
    assert out.getvalue() == expected


def _decimal_ties():
    """Doubles exactly halfway between two 17-digit decimals.

    ``m * 2**-j`` with m odd has the decimal digits of ``m * 5**j``, which
    end in 5; with 18 of them the value is a tie at 17 digits.
    """
    ties = []
    for j in range(1, 25):
        low = -(-10**17 // 5**j) | 1
        high = min((10**18 - 1) // 5**j, 2**53 - 1)
        for m in (low, (low + high) // 2 | 1, high if high % 2 else high - 1):
            if low <= m <= high:
                ties += [m / 2**j, -m / 2**j]
    return ties


_POWERS_OF_TEN = [
    v for p in range(-20, 25)
    for v in (10.0**p, np.nextafter(10.0**p, 0.0), np.nextafter(10.0**p, np.inf))
]
_SPECIALS = [0.5 * 10.0**-k for k in range(21)] + [
    2.0**53 + 2, 2.0**53 - 1, 5e-324, 2.2250738585072014e-308, -0.0, 0.0,
    float("inf"), float("-inf"), float("nan"), 1e-4, 9.9999999999999995e-5, 1e-11, 1e16]

_rows = st.sampled_from(_ROWS)


#: Floats of any kind, and of the magnitudes the renderer handles itself.
_floats = st.floats() | st.floats(1e-12, 1e16) | st.floats(-1e16, -1e-12)


@given(values=st.lists(_floats, min_size=1, max_size=64), rows=_rows)
def test_any_float(values, rows):
    assert_matches_percent(values, rows)


def test_many_magnitudes():
    # Enough values for a rounding error in the last bits of the 128-bit
    # product (about one value in a thousand) to show.
    rng = np.random.default_rng(20100118)
    magnitudes = 10.0 ** rng.uniform(-12.0, 16.0, 30_000)
    assert_matches_percent(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
                           magnitudes.size)


@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), rows=_rows)
def test_any_bit_pattern(bits, rows):
    assert_matches_percent(np.array(bits, dtype=np.uint64).view(np.float64), rows)


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("values", [_POWERS_OF_TEN, _decimal_ties(), _SPECIALS],
                         ids=["powers-of-ten", "decimal-ties", "specials"])
def test_edge_values(values, rows):
    assert_matches_percent(values, rows)
