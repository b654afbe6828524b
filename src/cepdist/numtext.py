"""Decimal text of NumPy columns, byte for byte as Python's ``%`` writes it.

``format_block(formats, columns)`` writes rows of comma-separated fields,
each row ended by a line feed. A column is written as ``"%d"`` writes an
integer, or as ``"%.<P>g"`` writes a float for a precision P of 1 to 17.

A float is written from exact integer arithmetic. A finite double is
m * 2**e for an integer m below 2**53. Written with P significant digits,
it is the P-digit integer D = m * 5**k * 2**(e + k), rounded half to even,
over 10**k, where k = P - 1 - floor(log10 |x|). The product m * 5**k is
exact in two uint64 limbs for k <= 27. A first k comes from ``np.log10``
and can be one off next to a power of ten; one pass checks that
10**(P-1) <= D < 10**P and corrects it. A value whose rounding carries to
10**P takes the exponent above. ``%g`` writes the digits with a decimal
point, trailing zeros dropped, where the decimal exponent lies in
[-4, P); there k is at most P + 3. Zero is written as "0" or "-0". Every
other value, non-finite, of exponent notation or out of that range, is
written by Python's ``%`` itself, so the text never differs from it.

Digits come from a table of 4-digit words, built on first use. Each field
of a block is a fixed run of 4-byte words per row: the sign, the whole
digits, the point, the fraction digits and the separator, with zero bytes
for the leading and trailing zeros that ``%g`` leaves out. No number's
text holds a zero byte, so dropping every zero byte of the block gives its
text. The values left to Python are written by one ``%`` operation per
column of a block, each into its own field.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

# NumPy 1.24 turns a Python int mixed with a uint64 array into float64, so
# every constant that meets one is a np.uint64.
_U = np.uint64
_TEN4 = _U(10_000)
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# Values below the lower bound are written with an exponent, and no
# rounding at 17 digits lifts one to 1e-4; the arithmetic is exact above it.
_MIN_FIXED = 1e-5


@functools.cache
def _word_table() -> np.ndarray:
    """4-byte words of the digits of 0..9999, in four spellings of 10_000
    words each: all four digits; leading zeros as zero bytes; the same, but
    0 as "0"; trailing zeros as zero bytes."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    nonzero = digits != 0
    from_first = np.logical_or.accumulate(nonzero, axis=1)
    units = from_first | (np.arange(4) == 3)
    to_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    keep = np.stack([np.ones_like(from_first), from_first, units, to_last])
    words = np.where(keep, digits + np.uint8(ord("0")), np.uint8(0))
    return np.ascontiguousarray(words).view(np.uint32).reshape(-1)


_FULL, _LEADING, _UNITS, _TRAILING = (np.int64(10_000 * s) for s in range(4))


def _word(text: str) -> np.uint32:
    return np.frombuffer(text.encode("ascii").ljust(4, b"\0"), np.uint32)[0]


_SIGN = np.uint8(ord("-"))
_POINT = _word("\0\0\0.")


def _scaled(mantissa: np.ndarray, exp2: np.ndarray, k: np.ndarray):
    """mantissa * 2**exp2 * 10**k, truncated and rounded half to even, and
    whether both are exact in a uint64 (0 <= k <= 27)."""
    five = _POW5[k]
    m0, m1 = mantissa & _LOW32, mantissa >> _U(32)
    f0, f1 = five & _LOW32, five >> _U(32)
    p00, p01, p10 = m0 * f0, m0 * f1, m1 * f0
    mid = (p00 >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = m1 * f1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    low = (mid << _U(32)) | (p00 & _LOW32)
    right = -(exp2 + k)
    shift = np.minimum(np.maximum(right, 1), 63).view(np.uint64)
    floor = (low >> shift) | (high << (_U(64) - shift))
    rest = low & ((_U(1) << shift) - _U(1))
    half = _U(1) << (shift - _U(1))
    up = (rest > half) | ((rest == half) & (floor & _U(1)).astype(bool))
    exact = (right < 64) & ((high >> shift) == _U(0))
    left = right <= 0
    if left.any():
        shift = np.minimum(np.maximum(-right, 0), 63).view(np.uint64)
        fits = (high == _U(0)) & (right > -64) & ((low >> (_U(63) - shift) >> _U(1)) == _U(0))
        floor = np.where(left, low << shift, floor)
        up &= ~left
        exact = np.where(left, fits, exact)
    return floor, floor + up, exact


def _decimal(magnitude: np.ndarray, precision: int):
    """For each magnitude written with ``precision`` significant digits in
    fixed notation: the digits D and the count k of them after the point, so
    that it rounds to D / 10**k; and whether it is written so. Zero gives
    D = 0 and k = 0. Other rows give D = 0, k = 0 and False."""
    top = _POW10[precision]
    fixed = (magnitude >= _MIN_FIXED) & (magnitude < float(10**precision))
    if not fixed.any():
        shape = magnitude.shape
        return np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.int64), magnitude == 0
    value = np.where(fixed, magnitude, 1.0)
    bits = value.view(np.uint64)
    mantissa = (bits & _MANTISSA) | _HIDDEN_BIT
    exp2 = (bits >> _U(52)).astype(np.int64) - 1075
    guess = precision - 1 - np.floor(np.log10(value)).astype(np.int64)
    k = np.minimum(np.maximum(guess, 0), precision + 4)
    floor, digits, exact = _scaled(mantissa, exp2, k)
    step = (floor < _POW10[precision - 1]).astype(np.int64) - (digits >= top)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        _, digits[redo], exact[redo] = _scaled(
            mantissa[redo], exp2[redo], np.minimum(np.maximum(k[redo], 0), precision + 5)
        )
    carry = digits == top
    digits[carry] = _POW10[precision - 1]
    k -= carry
    fixed &= exact & (digits >= _POW10[precision - 1]) & (digits < top)
    fixed &= (k >= 0) & (k <= precision + 3)
    zero = magnitude == 0
    fixed |= zero
    digits[~fixed | zero] = 0
    k[~fixed | zero] = 0
    return digits, k, fixed


def _groups(value: np.ndarray, count: int) -> list[np.ndarray]:
    """The last ``count`` 4-digit groups of each value, most significant first."""
    groups = [value] * count
    for j in range(count - 1, 0, -1):
        high = value // _TEN4
        groups[j] = (value - high * _TEN4).view(np.int64)
        value = high
    if count:
        groups[0] = value.view(np.int64)
    return groups


def _group_count(largest) -> int:
    return -(-len(str(int(largest))) // 4)


def _write_whole(words: np.ndarray, groups: list[np.ndarray]) -> None:
    """Whole numbers into the columns of ``words``, leading zeros as zero
    bytes and 0 as "0"."""
    leading = None
    for j, group in enumerate(groups):
        zero_spelling = _UNITS if j == len(groups) - 1 else _LEADING
        spelling = zero_spelling if leading is None else np.where(leading, zero_spelling, _FULL)
        words[:, j] = _word_table().take(group + spelling)
        leading = group == 0 if leading is None else leading & (group == 0)


def _write_fraction(words: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Fraction digits into the columns of ``words``, trailing zeros as
    zero bytes; whether any digit is left."""
    trailing = np.ones(len(words), dtype=bool)
    for j in range(len(groups) - 1, -1, -1):
        spelling = np.where(trailing, _TRAILING, _FULL)
        words[:, j] = _word_table().take(groups[j] + spelling)
        trailing &= groups[j] == 0
    return ~trailing


def _float_field(values: np.ndarray, precision: int, separator: np.uint32) -> np.ndarray:
    """The fields of a float column, one row of 4-byte words per value."""
    digits, k, fixed = _decimal(np.abs(values), precision)
    whole, part = np.divmod(digits, _POW10[np.minimum(k, 19)])
    n_whole = _group_count(whole.max())
    n_digits = -(-int(k.max()) // 4)
    others = np.flatnonzero(~fixed)
    fmt = "%%.%dg\n" % precision
    texts = (fmt * len(others) % tuple(values[others].tolist())).encode().split(b"\n")[:-1]
    # The fraction words hold the digits, and Python's texts fit in the field.
    n_fraction = max(n_digits, -(-max(map(len, texts), default=0) // 4) - n_whole - 2)
    field = np.zeros((len(values), 4 * (n_whole + n_fraction + 3)), dtype=np.uint8)
    words = field.view(np.uint32)
    field[:, 3] = np.signbit(values) * _SIGN
    _write_whole(words[:, 1:], _groups(whole, n_whole))
    # The fraction digits, left-aligned in 4 * n_digits places, in two
    # parts when they pass the 16 digits of a uint64.
    places = 4 * n_digits
    pad = places - k
    if places <= 16:
        groups = _groups(part * _POW10[pad], n_digits)
    else:
        low_pad = np.minimum(pad, 16)
        high, low = np.divmod(part, _POW10[16 - low_pad])
        groups = _groups(high * _POW10[pad - low_pad], n_digits - 4)
        groups += _groups(low * _POW10[low_pad], 4)
    start = n_whole + 2
    has_fraction = _write_fraction(words[:, start : start + n_digits], groups)
    words[:, n_whole + 1] = np.where(has_fraction, _POINT, np.uint32(0))
    words[:, -1] = separator
    if texts:
        width = 4 * (start + n_fraction)
        block = np.array(texts, dtype=f"S{width}")
        field[others, :width] = block.view(np.uint8).reshape(-1, width)
    return field


def _int_field(values: np.ndarray, separator: np.uint32) -> np.ndarray:
    """The fields of an integer column, one row of 4-byte words per value."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, ~magnitude + _U(1), magnitude)
    count = _group_count(magnitude.max())
    field = np.zeros((len(values), 4 * (count + 2)), dtype=np.uint8)
    words = field.view(np.uint32)
    field[:, 3] = negative * _SIGN
    _write_whole(words[:, 1:-1], _groups(magnitude, count))
    words[:, -1] = separator
    return field


def _field(fmt: str, column: np.ndarray, separator: str) -> np.ndarray:
    """The fields of a column, each ended by the separator."""
    if fmt == "%d":
        return _int_field(np.ascontiguousarray(column, dtype=np.int64), _word(separator))
    if fmt.startswith("%.") and fmt.endswith("g") and fmt[2:-1].isdigit():
        precision = int(fmt[2:-1])
        if 1 <= precision <= 17:
            column = np.ascontiguousarray(column, dtype=np.float64)
            return _float_field(column, precision, _word(separator))
    raise ValueError(f"unsupported number format {fmt!r}")


def format_block(formats: Sequence[str], columns: Sequence[np.ndarray]) -> bytes:
    """The rows of equal-length columns as ASCII text: column j written as
    ``formats[j] % value``, fields joined by commas, each row ended by a
    line feed."""
    if not len(columns[0]):
        return b""
    separators = [","] * (len(columns) - 1) + ["\n"]
    fields = [_field(*spec) for spec in zip(formats, columns, separators)]
    canvas = np.concatenate(fields, axis=1)
    return canvas[canvas != 0].tobytes()
