"""Exact ``'%.17g' % v`` for blocks of float64 values, with numpy array operations.

``render(x)`` gives four little-endian uint64 words per value of ``x``.
Their 32 bytes hold the text ``'%.17g' % v`` with NUL bytes between and
after its parts, and the last byte is always NUL: dropping the NULs leaves
the text. ``format_rows`` builds whole CSV rows from such words, one column
kind at a time: float64 arrays by ``render``, uint64 arrays as ``'%d' % v``
from 8-digit groups with their leading zeros NUL, bool arrays as one
``true`` or ``false`` word each, and a ``str`` as constant text.

The kernel renders a value whose magnitude lies in about [1e-11, 2e15]. The
others (zero, subnormals, inf, nan, and values near the ends of that range)
are rendered by one ``%`` operation for all of them.

The digits are exact. A double is ``m * 2**e`` with an integer ``m`` below
``2**53``; with ``X = floor(log10|v|)`` and ``k = 16 - X`` in 0..27,
``|v| * 10**k = m * 5**k * 2**(e + k)``, so the 17 significant digits are
the 128-bit product ``m * 5**k`` (two uint64 limbs) shifted right by
``-(e + k)`` and rounded half to even on the exact remainder, as CPython's
correctly rounded formatting does. Every integer operation stays in uint64:
under numpy 1.x a uint64 mixed with a signed integer silently becomes float64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_WORD = np.dtype("<u8")
_U64 = np.uint64
_ONE = _U64(1)
_LOW32 = _U64(0xFFFFFFFF)
_E8 = _U64(10**8)
_E16 = _U64(10**16)
_E17 = _U64(10**17)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)

#: Decimal exponents X the kernel renders, after rounding.
_X_MIN, _X_MAX = -11, 15
#: The digit the point follows when none does.
_NO_POINT = 16


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _by_exponent() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per X from _X_MIN: 18 times the digit the point follows, the sign-and-lead
    word (``0.`` and zeros for -4 <= X < 0; the sign goes in byte 0), the
    exponent word (``e-XX`` in bytes 2..5 for X < -4)."""
    xs = range(_X_MIN, _X_MAX + 1)
    points = [x if x >= 0 else 0 if x < -4 else _NO_POINT for x in xs]
    leads = [_word(b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")) for x in xs]
    exponents = [_word(b"\0\0e-%02d" % -x if x < -4 else b"") for x in xs]
    return (np.array(points, dtype=np.uint64) * 18, np.array(leads, dtype=_WORD),
            np.array(exponents, dtype=_WORD))


def _masks() -> np.ndarray:
    """``[part, word, 18 * point + n]``: how 17 digit bytes become the mantissa.

    ``point`` is the digit the point follows (_NO_POINT for none) and ``n``
    the number of digits up to the last nonzero one. Mantissa word w is
    ``(d & a) | (u & b) | c`` for parts (a, b, c), where d holds the digits,
    one byte each, and u the same one byte up. Built as uint8 bytes
    ``[part, word, point, n, byte]``, so that no temporary is large.
    """
    point = np.arange(_NO_POINT + 1, dtype=np.uint8)[:, np.newaxis, np.newaxis]
    n = np.arange(18, dtype=np.uint8)[:, np.newaxis]
    # Digits before the point are printed even when zero.
    shown = np.where(point == _NO_POINT, n, np.maximum(n, point + 1))
    before = np.where(point + 1 < shown, point + 1, shown)
    byte = np.arange(24, dtype=np.uint8).reshape(3, 1, 1, 8)  # [word, point, n, byte]
    ff, dot = np.uint8(0xFF), np.uint8(ord("."))
    parts = np.stack([(byte < before) * ff, ((byte > before) & (byte <= shown)) * ff,
                      ((byte == before) & (before < shown)) * dot])
    return parts.view(_WORD).reshape(3, 3, -1)


_POINTS, _LEADS, _EXPONENTS = _by_exponent()
_MASKS = _masks()


def _digit_bytes(values: np.ndarray, lanes: np.ndarray) -> None:
    """Each of ``values`` (uint64 below 10**8) becomes its eight digits, in place.

    The digits take one byte each, the first digit lowest, as values 0..9. The
    word is split in lanes: 4 + 4 digits, then 2 + 2 + 2 + 2, then 1 each.
    Times 5243 then down 19 bits divides a lane below 10**4 by 100; times 103
    then down 10 bits divides one below 100 by 10. ``lanes`` is scratch of the
    same shape.
    """
    np.floor_divide(values, _U64(10**4), out=lanes)
    values -= lanes * _U64(10**4)
    values <<= _U64(32)
    values |= lanes
    np.multiply(values, _U64(5243), out=lanes)
    lanes >>= _U64(19)
    lanes &= _U64(0x0000007F0000007F)
    values -= lanes * _U64(100)
    values <<= _U64(16)
    values |= lanes
    np.multiply(values, _U64(103), out=lanes)
    lanes >>= _U64(10)
    lanes &= _U64(0x000F000F000F000F)
    values -= lanes * _U64(10)
    values <<= _U64(8)
    values |= lanes


#: 10**1 .. 10**19: an integer below 2**64 has one digit more than the powers it reaches.
_TENS = np.array([10**d for d in range(1, 20)], dtype=np.uint64)


def _leading() -> np.ndarray:
    """``[w, d - 1]``: the bytes of word w that a d-digit integer shows.

    The integer's 20 digit bytes, right-aligned in three words (24 bytes),
    keep the last d; the leading zeros before them become NULs.
    """
    d = np.arange(1, 21, dtype=np.uint8)[:, np.newaxis]
    byte = np.arange(24, dtype=np.uint8).reshape(3, 1, 8)  # [word, d, byte]
    return ((byte >= 24 - d) * np.uint8(0xFF)).view(_WORD).reshape(3, 20)


_LEADING = _leading()


def _percent_words(values: np.ndarray) -> np.ndarray:
    """``(w, n)`` words: ``'%.17g' % v`` for each of the n float64 ``values``, NUL padded."""
    text = "\0".join(["%.17g"] * values.size) % tuple(values.tolist())
    fields = np.array(text.encode("utf-8").split(b"\0"))
    fields = fields.astype(f"S{-(-fields.itemsize // 8) * 8}")
    return fields.view(_WORD).reshape(values.size, -1).T


def render(x: np.ndarray) -> np.ndarray:
    """``(4, x.size)`` words holding ``'%.17g' % v`` for each value of 1-D float64 ``x``."""
    # Temporaries are updated in place and dropped early: a block that
    # touches fewer fresh pages renders faster and in less memory.
    bits = x.view(np.uint64)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log10(np.abs(x))
    np.floor(k, out=k)
    np.subtract(16.0, k, out=k)
    ok = (k >= 0.0) & (k <= 27.0)  # False for zero, inf and nan
    k[~ok] = 0.0
    # Indices are int64 (intp on 64-bit hosts, so np.take converts none) and
    # viewed as uint64 for arithmetic.
    k = k.astype(np.int64)
    # |v| * 10**k = m * 5**k / 2**shift, shift = 1075 - biased exponent - k.
    shift = bits >> _U64(52)
    shift &= _U64(0x7FF)
    np.subtract(_U64(1075), shift, out=shift)
    shift -= k.view(np.uint64)
    ok &= shift - _ONE <= _U64(62)  # 1 <= shift <= 63; below 1 it wraps
    shift[~ok] = _ONE

    # m * 5**k = high * 2**64 + low from 32-bit halves: m's high half is
    # below 2**21, so the two cross products sum below 2**64.
    m = bits & _U64(2**52 - 1)
    m |= _U64(2**52)
    p = np.take(_POW5, k)
    m_hi = m >> _U64(32)
    p_hi = p >> _U64(32)
    m &= _LOW32
    p &= _LOW32
    high = m_hi * p_hi
    cross = np.multiply(m_hi, p, out=m_hi)
    cross += np.multiply(m, p_hi, out=p_hi)
    low = np.multiply(m, p, out=m)
    del p, p_hi
    high += cross >> _U64(32)
    cross <<= _U64(32)
    low += cross
    high += low < cross

    # q = floor(|v| * 10**k) is below 1e18 whenever the estimate of X is off
    # by at most one, so it fits; outside [1e16, 1e17) X was off and % renders v.
    q = high << (_U64(64) - shift)
    q |= low >> shift
    ok &= (q >= _E16) & (q < _E17)
    # Half to even: up when the remainder r plus q's last bit exceeds half,
    # that is when r + (q & 1) + half - 1 reaches 2**shift.
    mask = (_ONE << shift) - _ONE
    low &= mask
    low += q & _ONE
    low += mask >> _ONE
    q += low >> shift
    del high, low, cross, mask, shift
    rolled = q == _E17
    q[rolled] = _E16
    row = _U64(16 - _X_MIN) - k.view(np.uint64)  # X - _X_MIN
    row += rolled
    row[~ok] = 0
    row = row.view(np.int64)
    del k, rolled

    # q is d0 * 10**16 plus two halves of eight digits, each of which
    # becomes eight digit bytes. Words 1..3 of the output serve as scratch
    # until they take the mantissa.
    out = np.empty((4, x.size), dtype=_WORD)
    halves, lanes = np.empty((2, x.size), dtype=np.uint64), out[2:]
    np.floor_divide(q, _E8, out=halves[0])
    np.subtract(q, halves[0] * _E8, out=halves[1])
    del q
    d0 = np.floor_divide(halves[0], _E8, out=out[1])
    halves[0] -= d0 * _E8
    _digit_bytes(halves, lanes)
    # Digits up to the last nonzero one in each half: a byte b <= 9 is
    # nonzero when b + 0x7F sets its top bit; that bit is copied to every
    # byte below it, and the bytes holding it are counted.
    np.add(halves, _U64(0x7F7F7F7F7F7F7F7F), out=lanes)
    lanes &= _U64(0x8080808080808080)
    for down in (8, 16, 32):
        lanes |= lanes >> _U64(down)
    lanes >>= _U64(7)
    lanes *= _U64(0x0101010101010101)
    lanes >>= _U64(56)
    # 17 digits when the second half has any, else d0 and the first's.
    index = lanes[1] + _U64(9)
    index *= lanes[1] != 0
    np.maximum(index, lanes[0] + _ONE, out=index)
    index += np.take(_POINTS, row)
    index = index.view(np.int64)
    halves |= _U64(0x3030303030303030)

    # The mantissa: d0 and the digits, one byte each; then the point goes in
    # after its digit, the digits after it moving one byte up. Last word
    # first, as each reads the one before.
    mantissa = out[1:]
    mantissa[0] += _U64(48)
    mantissa[0] |= halves[0] << _U64(8)
    np.right_shift(halves, _U64(56), out=mantissa[1:])
    mantissa[1] |= halves[1] << _U64(8)
    del halves
    for w in (2, 1, 0):
        up = mantissa[w] << _U64(8)
        if w:
            up |= mantissa[w - 1] >> _U64(56)
        up &= np.take(_MASKS[1, w], index)
        mantissa[w] &= np.take(_MASKS[0, w], index)
        mantissa[w] |= up
        mantissa[w] |= np.take(_MASKS[2, w], index)
    del up, index
    np.take(_LEADS, row, out=out[0])
    out[0] |= (bits >> _U64(63)) * _U64(ord("-"))
    out[3] |= np.take(_EXPONENTS, row)

    rest = np.flatnonzero(~ok)
    if rest.size:
        text = _percent_words(x[rest])  # at most 24 characters
        out[:, rest] = 0
        out[:len(text), rest] = text
    return out


def _words(text: str) -> list[int]:
    data = text.encode("ascii")
    return [_word(data[i:i + 8]) for i in range(0, len(data), 8)]


def _integer_words(values: np.ndarray) -> np.ndarray:
    """``(w, n)`` words: ``'%d' % v`` for each v of 1-D uint64 ``values``.

    Each integer is cut into groups of eight digits, right-aligned in w
    words, its leading zeros NUL.
    """
    digits = np.searchsorted(_TENS, values, side="right")  # the digit count less one
    groups = -(-(int(digits.max()) + 1) // 8)
    words = np.empty((groups, values.size), dtype=_WORD)
    rest = values
    for w in range(groups - 1, 0, -1):
        above = rest // _E8
        np.subtract(rest, above * _E8, out=words[w])
        rest = above
    words[0] = rest
    _digit_bytes(words, np.empty_like(words))
    words |= _U64(0x3030303030303030)
    for w, word in enumerate(words, start=3 - groups):
        word &= np.take(_LEADING[w], digits)
    return words


#: A flag's word, indexed by the flag.
_FLAGS = np.array([_word(b"false"), _word(b"true")], dtype=_WORD)


def format_rows(columns: Sequence) -> str:
    """One CSV row per index of ``columns``: fields joined by ``,``, each row ending in ``\\n``.

    A column's kind picks its field: a float64 array ``'%.17g' % v``, a
    uint64 array ``'%d' % v``, a bool array ``true`` or ``false``, and a
    ``str`` is ASCII text, without NULs, that every row repeats. Each row is
    a run of words: a float takes the four words ``render`` gives and a flag
    one word, the last byte of either holding the first character of the
    text after it; an integer takes its words (``_integer_words``); constant
    text and separators take their own words. The rows' bytes without their
    NULs are the text.
    """
    # The arrays, each with the literal text that follows it in a row.
    arrays, literals = [], [""]
    for i, column in enumerate(columns):
        literals[-1] += "," if i else ""
        if isinstance(column, str):
            literals[-1] += column
        else:
            arrays.append(column)
            literals.append("")
    literals[-1] += "\n"
    floats = [column for column in arrays if column.dtype == np.float64]
    rendered = render(np.concatenate(floats)) if floats else None
    n, first = len(arrays[0]), 0
    words: list = _words(literals[0])
    for column, literal in zip(arrays, literals[1:]):
        if column.dtype == np.uint64:
            words.extend(_integer_words(column))
        elif column.dtype == np.float64:
            words.extend(rendered[:, first:first + n])
            first += n
        else:
            words.append(np.take(_FLAGS, column.view(np.uint8)))
        if literal and column.dtype != np.uint64:  # a float's or a flag's last byte is NUL
            words[-1] |= _U64(ord(literal[0]) << 56)
            literal = literal[1:]
        words.extend(_words(literal))
    rows = np.empty((n, len(words)), dtype=_WORD)
    for column, word in enumerate(words):
        rows[:, column] = word
    # Each step frees the one before: the block's text is held twice at most.
    del words, rendered
    text = rows.tobytes()
    del rows
    text = text.translate(None, b"\0")
    return text.decode("utf-8")
