"""The vectorised renderer against Python's ``%``, byte for byte.

Each check writes its columns through ``cli._write_output`` at row counts on
both sides of the renderer's row cutoff and of one block, so both paths and
a block boundary are exercised; ``%`` applied to each row is the reference.
Floats go through ``%.17g``, seed ranges through ``%d`` and flag arrays
through ``%s``.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathent import _g17, cli

#: Row counts around the cutoff below which ``%`` renders a block, and around
#: the block size.
_ROWS = (cli._KERNEL_ROWS - 1, cli._KERNEL_ROWS, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1)


def assert_same_rows(actual, expected):
    """``actual == expected``, reporting the first row that differs: pytest's
    diff of two texts of thousands of rows would take minutes."""
    actual, expected = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    row = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), None)
    assert row is None, f"row {row}: {actual[row]!r} != {expected[row]!r}"
    assert len(actual) == len(expected), f"{len(actual)} rows != {len(expected)}"


def assert_matches_percent(values, rows):
    """Two columns, ``values`` cycled to ``rows`` rows and the same reversed."""
    column = np.resize(np.asarray(values, dtype=np.float64), rows)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_output(None, "", "%.17g,%.17g\n", [column, column[::-1]])
    expected = "".join("%.17g,%.17g\n" % pair
                       for pair in zip(column.tolist(), column[::-1].tolist()))
    assert_same_rows(out.getvalue(), expected)


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


@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       rows=st.sampled_from(_ROWS[:2]))
def test_any_bit_pattern(bits, rows):
    assert_matches_percent(np.array(bits, dtype=np.uint64).view(np.float64), rows)


@pytest.mark.parametrize("rows", _ROWS[2:])
@pytest.mark.parametrize("seed", range(8))
def test_any_bit_pattern_in_blocks(seed, rows):
    # A block-sized example takes too long for hypothesis's deadline on a
    # loaded host, so these row counts take seeded random bit patterns.
    bits = np.random.default_rng(seed).integers(0, 2**64, 64, dtype=np.uint64, endpoint=False)
    assert_matches_percent(bits.view(np.float64), rows)


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("values", [_POWERS_OF_TEN, _decimal_ties(), _SPECIALS],
                         ids=["powers-of-ten", "decimal-ties", "specials"])
def test_edge_values(values, rows):
    assert_matches_percent(values, rows)


def assert_fields_match_percent(row_format, columns, kernel):
    """``columns`` through ``_write_output``, and whether a field kernel took
    the ``%d``/``%s`` column (``kernel``) or it fell back to ``%``."""
    fallbacks = []
    percent_words = _g17._percent_words

    def spy(spec, column):
        if spec != "%.17g":  # render's zeros and other values out of its range
            fallbacks.append(spec)
        return percent_words(spec, column)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(_g17, "_percent_words", spy)
        cli._write_output(None, "", row_format, columns)
    values = [column.tolist() if isinstance(column, np.ndarray) else list(column)
              for column in columns]
    assert_same_rows(out.getvalue(), "".join(row_format % row for row in zip(*values)))
    if len(columns[0]) >= cli._KERNEL_ROWS:
        assert bool(fallbacks) != kernel, fallbacks


#: (first seed as a function of the row count, step) of ranges the kernel renders.
_KERNEL_RANGES = {
    "from-0": (lambda rows: 0, 1),  # across 9/10 and 99/100 too
    "across-10**8": (lambda rows: 10**8 - rows // 2, 1),
    "across-10**16": (lambda rows: 10**16 - rows // 2, 1),
    "across-10**19": (lambda rows: 10**19 - rows // 2, 1),
    "to-2**64": (lambda rows: 2**64 - rows, 1),
}
_PERCENT_RANGES = {
    "step-2": (lambda rows: 10**8 - rows, 2),
    "step--1": (lambda rows: 2**64 - 1, -1),
    "negative-start": (lambda rows: -(rows // 2), 1),
    "past-2**64": (lambda rows: 2**64 - rows // 2, 1),
}


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("case", [*_KERNEL_RANGES, *_PERCENT_RANGES])
def test_seed_ranges(case, rows):
    start, step = {**_KERNEL_RANGES, **_PERCENT_RANGES}[case]
    seeds = range(start(rows), start(rows) + rows * step, step)
    floats = np.linspace(-1.0, 1.0, rows)
    assert_fields_match_percent("%d,1000,%.17g\n", [seeds, floats], case in _KERNEL_RANGES)


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("words, kernel", [
    (["true", "false", "false"], True),
    (["", "", "x"], True),
    (["abcdefgh", "12345678", ""], True),
    (["abcdefghi", "a", "123456789"], True),
    (["caf\u00e9", "true", "\u00fc"], False),
    (["true", "\u2211"], False),
], ids=["flags", "empty", "8-characters", "9-characters", "latin-1", "beyond-latin-1"])
def test_string_arrays(words, kernel, rows):
    flags = np.resize(np.array(words), rows)
    floats = np.linspace(0.0, 1.0, rows)
    assert_fields_match_percent("%.17g,%s\n", [floats, flags], kernel)
    assert_fields_match_percent("%s;%.17g\n", [flags[::-1], floats], kernel)
    swapped = flags.astype(flags.dtype.newbyteorder())  # code points the kernel would misread
    assert_fields_match_percent("%.17g,%s\n", [floats, swapped], False)
