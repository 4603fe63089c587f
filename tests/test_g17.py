"""The vectorised renderer against Python's ``%``, byte for byte.

Each check writes its columns through ``cli._write_output`` at row counts on
both sides of the renderer's row cutoff and of one block, so both paths and
a block boundary are exercised; ``%`` applied to each field of each row is
the reference. A float64 column is checked against ``%.17g``, a uint64
column against ``%d``, a bool column against ``true``/``false``, and a
``str`` against the same text in every row.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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


def _percent_fields(column, rows):
    """Each row's field of ``column`` by ``%``, or the constant text ``column``."""
    if isinstance(column, str):
        return [column] * rows
    if column.dtype == bool:
        return ["true" if flag else "false" for flag in column.tolist()]
    return [("%d" if column.dtype == np.uint64 else "%.17g") % v for v in column.tolist()]


def assert_columns_match_percent(columns):
    """``columns`` through ``_write_output``, against each field by ``%``."""
    rows = next(len(column) for column in columns if not isinstance(column, str))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_output(None, "", columns)
    fields = zip(*(_percent_fields(column, rows) for column in columns))
    assert_same_rows(out.getvalue(), "".join(",".join(row) + "\n" for row in fields))


def assert_matches_percent(values, rows):
    """Two columns, ``values`` cycled to ``rows`` rows and the same reversed."""
    column = np.resize(np.asarray(values, dtype=np.float64), rows)
    assert_columns_match_percent([column, column[::-1]])


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


#: (first seed as a function of the row count, step) of seed columns.
_KERNEL_RANGES = {
    "from-0": (lambda rows: 0, 1),  # across 9/10 and 99/100 too
    "across-10**8": (lambda rows: 10**8 - rows // 2, 1),
    "across-10**16": (lambda rows: 10**16 - rows // 2, 1),
    "across-10**19": (lambda rows: 10**19 - rows // 2, 1),
    "to-2**64": (lambda rows: 2**64 - rows, 1),
    "step-2": (lambda rows: 10**8 - rows, 2),
    "step--1": (lambda rows: 2**64 - 1, -1),
}


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("case", _KERNEL_RANGES)
def test_seed_ranges(case, rows):
    start, step = _KERNEL_RANGES[case]
    seeds = np.array(range(start(rows), start(rows) + rows * step, step), dtype=np.uint64)
    floats = np.linspace(-1.0, 1.0, rows)
    assert_columns_match_percent([seeds, "1000", floats])


def _digit_counts(digits):
    """Integers of ``digits`` decimal digits below 2**64 (0 counts as one digit)."""
    return st.integers(10**(digits - 1) if digits > 1 else 0, min(10**digits, 2**64) - 1)


#: Integers below 2**64, each digit count from 1 to 20 equally likely.
_integers = st.integers(1, 20).flatmap(_digit_counts)


@given(values=st.lists(_integers, min_size=1, max_size=64), rows=st.sampled_from(_ROWS[:2]))
@example(values=[2**64 - 1, 0, 10**19, 9], rows=cli._KERNEL_ROWS)
def test_any_integers(values, rows):
    column = np.resize(np.array(values, dtype=np.uint64), rows)
    assert_columns_match_percent([column, column[::-1]])


@pytest.mark.parametrize("rows", _ROWS)
def test_every_digit_count(rows):
    # Both ends of each digit count, 0 and 2**64 - 1, in a shuffled order.
    values = [0, 2**64 - 1] + [v for d in range(1, 20) for v in (10**d - 1, 10**d)]
    column = np.resize(np.random.default_rng(rows).permutation(
        np.array(values, dtype=np.uint64)), rows)
    assert_columns_match_percent([column, column[::-1]])


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("flags", [[True], [False], [True, False, False]],
                         ids=["all-true", "all-false", "mixed"])
def test_flag_columns(flags, rows):
    flags = np.resize(np.array(flags), rows)
    floats = np.linspace(0.0, 1.0, rows)
    assert_columns_match_percent([floats, flags])
    assert_columns_match_percent([flags[::-1], floats])
    assert_columns_match_percent([flags, flags[::-1]])


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("place", range(4), ids=["start", "after-integer", "after-float", "end"])
@pytest.mark.parametrize("text", ["", "1000", "abcdefgh", "abcdefghi", "%d%%"])
def test_constant_fields(text, place, rows):
    columns = [np.arange(rows, dtype=np.uint64), np.linspace(0.0, 1.0, rows),
               np.arange(rows) % 3 == 0]
    columns.insert(place, text)
    assert_columns_match_percent(columns)


def _loop_masks():
    """``_g17._masks`` built one (point, n) column at a time from Python ints."""
    masks = np.zeros((3, 3, 18 * (_g17._NO_POINT + 1)), dtype=np.uint64)
    for point in range(_g17._NO_POINT + 1):
        for n in range(18):
            # Digits before the point are printed even when zero.
            shown = n if point == _g17._NO_POINT else max(n, point + 1)
            before = point + 1 if point < shown - 1 else shown
            parts = (sum(0xFF << 8 * i for i in range(before)),
                     sum(0xFF << 8 * i for i in range(before + 1, shown + 1)),
                     ord(".") << 8 * before if before < shown else 0)
            for part, bits in enumerate(parts):
                masks[part, :, 18 * point + n] = [bits >> 64 * w & 2**64 - 1 for w in range(3)]
    return masks


def _loop_leading():
    """``_g17._leading`` built one digit count at a time from Python ints."""
    masks = np.zeros((3, 20), dtype=np.uint64)
    for d in range(1, 21):
        shown = sum(0xFF << 8 * i for i in range(24 - d, 24))
        masks[:, d - 1] = [shown >> 64 * w & 2**64 - 1 for w in range(3)]
    return masks


@pytest.mark.parametrize("table, reference", [(_g17._MASKS, _loop_masks),
                                              (_g17._LEADING, _loop_leading)],
                         ids=["masks", "leading"])
def test_tables_equal_loop_builders(table, reference):
    # The array-built tables hold the loops' words, in C order, which
    # np.take reads without a copy.
    expected = reference()
    assert table.dtype == np.dtype("<u8") and table.flags.c_contiguous
    np.testing.assert_array_equal(table, expected)
