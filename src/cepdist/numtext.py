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

``parse_block(data, width)`` reads such text back: rows of comma-separated
cells as a float64 table, each value equal to ``float(cell)`` bit for bit.
Lines end in LF, CRLF or a lone CR. A cell is an optional sign, digits with
an optional point ("5.", ".5"), and an optional "e" or "E" exponent with an
optional sign, with blanks (space, tab, VT, FF and U+001C..U+001F) around
it, and may be wrapped in double quotes that open the cell, with blanks
after them. Lines of only blanks, commas and such quotes are skipped. A row
with any other byte or cell, with a number of cells other than ``width``
(by default that of the first row), or with a value that is not finite is
refused: the parser reads the rows before the first refused row and says
where that row's line starts.

Every byte that is not a digit is a token, and the kinds of three tokens
in a row, each with whether digits come right before it, index one table
that gives the token's role: whether the grammar allows it there, whether
it ends a cell, a row, a mantissa or an exponent, and the signs. A digit
run of up to 24 bytes is read as three little-endian words of the bytes
before its end, masked to the run, each reduced to its 8-digit number by
three multiplies (Lemire's SWAR reduction). A cell's digits D, up to 19
significant digits, and its decimal exponent q round to a double with
Clinger's fast path, one exact multiply or divide, where D < 2**53 and
|q| <= 22, and otherwise with the first product of Eisel and Lemire's
algorithm: the 64 high bits of D times the 128-bit power of five of q,
built with Python ints on first use. A cell that has more digits, whose
product lies too near a tie, or whose value is subnormal or overflows is
read by ``float`` itself; a non-finite value refuses its row.

Only a block with a quote, a byte outside the kind table, pairs its quotes
and reads them as blanks, and only one that breaks the role table looks
for skipped lines. A refusal names a line at or after the first refused
row; the lines before it are read again until they read whole.
"""

from __future__ import annotations

import functools
import itertools
import math
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


# Byte kinds for reading. Digits are 0 and every other byte is a token.
_MINUS, _PLUS, _DECIMAL_POINT, _EXPONENT_MARK, _COMMA, _LINE, _BLANK, _OTHER = range(1, 9)
_SIGNS = (_MINUS, _PLUS)
_SEPARATORS = (_COMMA, _LINE)
BLANKS = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
_QUOTE = ord('"')


def _kind_table() -> np.ndarray:
    kinds = np.full(256, _OTHER, dtype=np.uint8)
    kinds[ord("0") : ord("9") + 1] = 0
    for chars, kind in (
        (b"-", _MINUS), (b"+", _PLUS), (b".", _DECIMAL_POINT), (b"eE", _EXPONENT_MARK),
        (b",", _COMMA), (b"\n\r", _LINE), (BLANKS, _BLANK),
    ):
        kinds[list(chars)] = kind
    return kinds


_KIND = _kind_table()

# Bits of a token's role. Every token the grammar allows has _ALLOWED, and
# blanks, empty lines and exponent ends also _RARE, so that the smallest
# and the largest role of a block tell whether it needs more than the
# common path.
_ALLOWED = 1 << 15
_RARE = 1 << 14
_SKIPPED = 1  # a line end right after another, or blanks before a cell
_ENDS_EXPONENT = 2  # it ends its cell's exponent digits
_NEGATIVE_EXPONENT = 4  # ... which follow a minus sign
_ENDS_CELL = 8  # a separator
_ENDS_ROW = 16  # ... that ends a row
_ENDS_MANTISSA = 32  # it ends its cell's mantissa digits
_AFTER_POINT = 64  # ... which are the fraction after a point
_NEGATIVE = 128  # ... of a cell that starts with a minus sign
_BEFORE_EXPONENT = 256  # ... that an exponent follows


def _state(before: int, kind: int, digits: bool) -> int:
    """Where a token stands in its cell, given the kind of the token before
    it and whether digits come between, if the grammar allows it there: 0
    at the cell's start (a separator or the blanks after one), 1 after a
    leading sign, 2 after the point, 3 after the exponent mark, 4 after its
    sign and 5 after the number (the blanks after it)."""
    if kind == _BLANK:
        return 5 if digits or before == _DECIMAL_POINT else 0
    if kind in _SIGNS:
        return 4 if before == _EXPONENT_MARK else 1
    return 2 if kind == _DECIMAL_POINT else 3 if kind == _EXPONENT_MARK else 0


def _role(first: int, second: int, kind: int, digits_second: bool, digits: bool) -> int:
    """The role of a token of ``kind`` after tokens of kinds ``first`` and
    ``second``, given whether digits come right before the last two; 0 where
    the grammar does not allow it. The two before are taken to stand where
    it allows them: their own roles say whether they do."""
    if second == kind == _LINE and not digits:
        return _ALLOWED | _RARE | _SKIPPED
    before = _state(first, second, digits_second)
    # A mantissa holds a digit before or after its point, an exponent one
    # after its mark or sign.
    mantissa = digits or (second == _DECIMAL_POINT and digits_second)
    ends_number = kind in _SEPARATORS or kind == _EXPONENT_MARK or (
        kind == _BLANK and (digits or second == _DECIMAL_POINT)
    )
    if before == 5:
        allowed = kind in _SEPARATORS and not digits
    elif kind in _SIGNS:
        allowed = before in (0, 3) and not digits
    elif kind == _DECIMAL_POINT:
        allowed = before <= 1
    elif kind == _EXPONENT_MARK:
        allowed = before <= 2 and mantissa
    elif ends_number:
        allowed = mantissa if before <= 2 else bool(digits)
    else:
        return _ALLOWED | _RARE | _SKIPPED if before == 0 else 0
    if not allowed:
        return 0
    role = _ALLOWED | (_RARE if kind == _BLANK else 0)
    if kind in _SEPARATORS:
        role |= _ENDS_CELL | (_ENDS_ROW if kind == _LINE else 0)
    if ends_number and before <= 2:
        role |= _ENDS_MANTISSA | (_BEFORE_EXPONENT if kind == _EXPONENT_MARK else 0)
        if second == _DECIMAL_POINT:
            role |= _AFTER_POINT
        if second == _MINUS or (second == _DECIMAL_POINT and first == _MINUS):
            role |= _NEGATIVE
    elif ends_number and before in (3, 4):
        role |= _RARE | _ENDS_EXPONENT | (_NEGATIVE_EXPONENT if second == _MINUS else 0)
    return role


@functools.cache
def _role_table() -> np.ndarray:
    """Roles indexed by three tokens in a row, each as its kind times 2 plus
    whether digits come right before it, at 4 bits a token."""
    table = [0] * (1 << 12)
    kinds = range(1, _BLANK + 1)
    for first, second, kind, digits_second, digits in itertools.product(
        kinds, kinds, kinds, (0, 1), (0, 1)
    ):
        index = (first << 9) | (second << 5) | (digits_second << 4) | (kind << 1) | digits
        # Digits before the first token do not matter.
        table[index] = table[index | 1 << 8] = _role(first, second, kind, digits_second, digits)
    return np.array(table, dtype=np.uint16)


def _nibble_masks(words: Sequence[int]) -> np.ndarray:
    """For each run length up to 25, the low nibbles of the bytes of the
    given words before a run's end (0 the last word) that hold the run."""
    return np.array(
        [[0x0F0F0F0F0F0F0F0F & ~((1 << (64 - 8 * min(max(n - 8 * k, 0), 8))) - 1) for k in words]
         for n in range(26)],
        dtype=np.uint64,
    )


_LAST_MASKS = _nibble_masks([0]).reshape(-1)
# The two words before the last, as one 16-byte item per run length.
_HIGH_MASKS = _nibble_masks([2, 1]).view("V16").reshape(-1)
_PAD = 24
_UNREAD = _U(2**64 - 1)
_TEN19 = _U(10**19)
# By fraction places up to 25: 10**places, and the bound below which
# whole * 10**places + fraction stays below 10**19.
_SCALE = np.array([10 ** min(p, 19) for p in range(26)], dtype=np.uint64)
_WHOLE_LIMIT = np.array([10 ** (19 - p) if p <= 19 else 0 for p in range(26)], dtype=np.uint64)
_EXACT_POW10 = np.array([10.0**k for k in range(23)])
_TWO53 = _U(1 << 53)
_MIN_Q, _MAX_Q = -342, 308


@functools.cache
def _pow5_table() -> tuple[np.ndarray, np.ndarray]:
    """The low and high 32 bits of the high word of 5**q for q in [-342,
    308], as a 128-bit number with its top bit set: truncated for q >= 0,
    and above the reciprocal for q < 0, as Eisel-Lemire's table has it."""
    positive, negative = [], []
    power = 1
    for q in range(_MAX_Q + 1):
        bits = power.bit_length()
        positive.append(power << max(128 - bits, 0) >> max(bits - 128, 0))
        power *= 5
    # floor(2**scale / 5**k) for k = 1, 2, ..., each from the last by one
    # exact division, and shifted down to 2**b / 5**k.
    scale = 2 * (5**-_MIN_Q).bit_length() + 128
    reciprocal, power = 1 << scale, 1
    for k in range(1, -_MIN_Q + 1):
        reciprocal //= 5
        power *= 5
        bits = power.bit_length()
        value = (reciprocal >> (scale - (bits + 127 if k <= 27 else 2 * bits + 128))) + 1
        negative.append(value >> max(value.bit_length() - 128, 0))
    table = np.array([value >> 64 for value in negative[::-1] + positive], dtype=np.uint64)
    return (table & _LOW32).astype(np.uint32), (table >> _U(32)).astype(np.uint32)


def _eight_digits(words: np.ndarray) -> None:
    """In place: the number of the 8 digits of each word, given as the low
    nibbles of its bytes, the first digit in the lowest byte."""
    words *= _U(2561)
    words >>= _U(8)
    words &= _U(0x00FF00FF00FF00FF)
    words *= _U(6553601)
    words >>= _U(16)
    words &= _U(0x0000FFFF0000FFFF)
    words *= _U(42949672960001)
    words >>= _U(32)


def _runs(raw: np.ndarray, ends: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """The number of the digit run before each of the offsets ``ends``, of
    ``gaps`` less one digits; _UNREAD for a run past 24 digits or 10**19."""
    padded = np.zeros(raw.size + _PAD, np.uint8)
    padded[_PAD:] = raw
    # The word of the 8 bytes before an offset, and for a run past 8 digits
    # the 16 bytes before those. Indexing a view of unaligned items reads
    # them in place, where take() would copy the whole view first.
    last = np.ndarray((raw.size + 1,), np.dtype("<u8"), padded, _PAD - 8, (1,))
    runs = np.minimum(gaps, 26)
    runs -= 1
    value = last[ends]
    value &= _LAST_MASKS.take(runs)
    _eight_digits(value)
    long = (runs > 8).nonzero()[0]
    if long.size:
        runs = runs.take(long)
        high = np.ndarray((raw.size + 1,), np.dtype("V16"), padded, 0, (1,))[ends.take(long)]
        high = high.view(np.uint64).reshape(-1, 2)
        high &= _HIGH_MASKS.take(runs).view(np.uint64).reshape(-1, 2)
        _eight_digits(high)
        top = high[:, 0]
        value[long] += top * _U(10**16) + high[:, 1] * _U(10**8)
        value[long[(top >= _U(1000)) | (runs > 24)]] = _UNREAD
    return value


def _eisel_lemire(digits: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """digits * 10**q rounded to the nearest double, for digits from 1 to
    2**64 - 1, and where that is undecided: the product lies too near a tie
    to tell from its high word, or the value is subnormal or not finite."""
    # The leading zeros of the digits, from the exponent of their double,
    # which can have rounded up to the next power of two.
    shift = digits.astype(np.float64).view(np.uint64)
    shift >>= _U(52)
    shift -= _U(1023)
    zeros = _U(64) - shift
    zeros -= digits >> shift
    w = digits << zeros
    index = q - _MIN_Q
    t0 = _pow5_table()[0].take(index, mode="clip")
    t1 = _pow5_table()[1].take(index, mode="clip")
    # The high word of w * t from the products of 32-bit halves; [0::2] of a
    # word's uint32 view is its low half, [1::2] its high half.
    w0, w1 = w.view(np.uint32)[0::2], w.view(np.uint32)[1::2]
    p00 = np.multiply(w0, t0, dtype=np.uint64).view(np.uint32)
    p01 = np.multiply(w0, t1, dtype=np.uint64).view(np.uint32)
    p10 = np.multiply(w1, t0, dtype=np.uint64).view(np.uint32)
    mid = np.add(p00[1::2], p01[0::2], dtype=np.uint64)
    mid += p10[0::2]
    high = np.multiply(w1, t1, dtype=np.uint64)
    high += p01[1::2]
    high += p10[1::2]
    high += mid >> _U(32)
    upper = high >> _U(63)
    mantissa = high >> (upper + _U(9))
    undecided = (high & _U(0x1FF)) == _U(0x1FF)
    # An exact tie can only fall at -4 <= q <= 23; there the low word tells.
    tie = (q + 4).view(np.uint64) <= _U(27)
    if tie.any():
        tie &= (mantissa & _U(3)) == _U(1)
        undecided |= tie & ((mid & _LOW32) == _U(0)) & (p00[0::2] <= np.uint32(1))
    mantissa += mantissa & _U(1)
    mantissa >>= _U(1)
    # The biased exponent less one: adding the mantissa with its hidden bit,
    # or its carry to 2**53, puts the right exponent in the bits. Below 0 the
    # value is subnormal; from 2045 on it may round to infinity.
    power = 217706 * q
    power >>= 16
    power += 63 + 1023 - 1
    power += upper.view(np.int64)
    power -= zeros.view(np.int64)
    undecided |= power.view(np.uint64) > _U(2044)
    power <<= 52
    mantissa += power.view(np.uint64)
    return mantissa.view(np.float64), undecided


def _tokens(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets and kinds of the bytes that are not digits."""
    flags = raw - np.uint8(ord("0"))
    at = np.greater(flags, np.uint8(9), out=flags.view(np.bool_)).nonzero()[0]
    return at, _KIND.take(raw.take(at))


def _roles(gap: np.ndarray, kind: np.ndarray) -> np.ndarray | None:
    """The role of each token, given the distance of its digit run's end
    from the token before it; below _ALLOWED where the grammar bars it."""
    # Each token as its 4-bit code, after two line ends.
    code = np.empty(kind.size + 2, np.int64)
    code[:2] = _LINE * 2
    np.left_shift(kind, 1, out=code[2:])
    code[2:] += gap > 1
    window = code[:-2] << 8
    code <<= 4
    window |= code[1:-1]
    code >>= 4
    window |= code[2:]
    return _role_table().take(window)


def _mantissas(values, gap, ends, role):
    """The digits D of each cell's mantissa, its exponent q = -places, and
    whether D is below 10**19, from the runs before the tokens ``ends``."""
    point = (role & _AFTER_POINT) != 0
    digits = values[ends - point]
    fraction = values.take(ends)
    fraction *= point
    places = gap.take(ends)
    places -= 1
    places *= point
    np.minimum(places, 25, out=places)
    fits = digits < _WHOLE_LIMIT.take(places)
    fits |= digits == _U(0)
    fits &= fraction < _TEN19
    digits *= _SCALE.take(places)
    digits += fraction
    return digits, np.negative(places, out=places), fits


def _doubles(digits, q, fits):
    """digits * 10**q rounded to doubles, and where the value is left to
    ``float``."""
    scale = np.abs(q)
    exact = scale <= 22
    exact |= digits == _U(0)
    exact &= digits < _TWO53
    power = _EXACT_POW10.take(np.minimum(scale, 22, out=scale))
    value = digits.astype(np.float64)
    value = np.where(q < 0, value / power, value * power)
    slow = ~fits
    rest = (fits & ~exact).nonzero()[0]
    if rest.size:
        value[rest], slow[rest] = _eisel_lemire(digits.take(rest), q.take(rest))
    return value, slow


def _unquote(raw: np.ndarray, at: np.ndarray, kind: np.ndarray) -> int | None:
    """In place: the double quotes around cells made blanks in ``kind``; or
    the index of the first token that is neither such a quote nor a byte of
    the grammar. Quotes pair in order, each pair in one cell: the first
    right after a separator or at the start, and only blanks between the
    second and the next separator."""
    other = (kind == _OTHER).nonzero()[0]
    quoted = raw.take(at.take(other)) == _QUOTE
    opens, closes = other[quoted][0::2], other[quoted][1::2]
    paired = opens[: closes.size]
    separator = np.isin(kind, _SEPARATORS)
    cells = np.cumsum(separator)
    nonblank = (kind != _BLANK).nonzero()[0]
    after = nonblank.take(np.searchsorted(nonblank, closes, "right"))
    good = cells.take(paired) == cells.take(closes)
    good &= np.append(True, separator).take(paired)
    good &= np.append(-1, at).take(paired) + 1 == at.take(paired)
    good &= separator.take(after) & (at.take(after) - at.take(closes) == after - closes)
    faults = np.concatenate([other[~quoted][:1], paired[~good][:1], opens[closes.size :]])
    if faults.size:
        return int(faults.min())
    kind[other] = _BLANK
    return None


def _read_rows(data, width: int | None) -> np.ndarray | int:
    """The rows of ``parse_block``, or the offset of a byte on the line of a
    refused row, the first one if the rows before it read."""
    if not len(data) or data[-1] not in b"\r\n":
        data = bytes(data) + b"\n"
    raw = np.frombuffer(data, np.uint8)
    at, kind = _tokens(raw)
    top = kind.max()
    if top == _OTHER:
        fault = _unquote(raw, at, kind)
        if fault is not None:
            return int(at[fault])
        top = _BLANK
    gap = np.empty_like(at)
    gap[0] = at[0] + 1
    np.subtract(at[1:], at[:-1], out=gap[1:])
    if top == _BLANK:
        # A run of blanks is one token: its first.
        repeat = (kind[1:] == _BLANK) & (kind[:-1] == _BLANK) & (gap[1:] == 1)
        if repeat.any():
            kept = np.append(True, ~repeat).nonzero()[0]
            at, kind, gap = at.take(kept), kind.take(kept), gap.take(kept)
    role = _roles(gap, kind)
    if role.min() < _ALLOWED:
        # Lines without digits, signs, points or exponent marks are skipped:
        # all but their line ends are dropped.
        line = kind == _LINE
        line_of = np.cumsum(line) - line
        kept = (line | np.isin(line_of, line_of[(gap > 1) | (kind < _COMMA)])).nonzero()[0]
        if kept.size < kind.size:
            at, kind, gap = at.take(kept), kind.take(kept), gap.take(kept)
            role = _roles(gap, kind)
        if role.min() < _ALLOWED:
            return int(at[np.argmax(role < _ALLOWED)])
    del kind
    rare = role.max() >= _ALLOWED | _RARE
    if rare and np.any(role == _ALLOWED | _RARE | _SKIPPED):
        kept = (role != _ALLOWED | _RARE | _SKIPPED).nonzero()[0]
        at, gap, role = at.take(kept), gap.take(kept), role.take(kept)
    # One mantissa per cell. Its end ends the cell, unless an exponent or
    # blanks follow it.
    mantissa_ends = (role & _ENDS_MANTISSA).nonzero()[0]
    if not mantissa_ends.size:
        return np.empty((0, width or 0))
    cell_role = role.take(mantissa_ends)
    cell_ends = mantissa_ends
    if rare:
        exponents = (role & _ENDS_EXPONENT).nonzero()[0]
        with_exponent = (cell_role & _BEFORE_EXPONENT) != 0
        if top == _BLANK:
            cell_ends = (role & _ENDS_CELL).nonzero()[0]
        elif exponents.size:
            cell_ends = mantissa_ends.copy()
            cell_ends[with_exponent] = exponents
    row_ends = role.take(cell_ends) & _ENDS_ROW
    rows = int(np.count_nonzero(row_ends))
    if width is None:
        width = int(row_ends.argmax()) + 1
    if width * rows != cell_ends.size or not row_ends[width - 1 :: width].all():
        ends = row_ends.nonzero()[0]
        wrong = np.diff(ends, prepend=-1) != width
        return int(at[cell_ends[ends[wrong.argmax()]]])
    values = _runs(raw, at, gap)
    digits, q, fits = _mantissas(values, gap, mantissa_ends, cell_role)
    if rare:
        exponent = np.minimum(values.take(exponents), _U(10_000)).view(np.int64)
        negative = (role.take(exponents) & _NEGATIVE_EXPONENT) != 0
        q[with_exponent] += np.where(negative, -exponent, exponent)
    # Free the token arrays before the cell arithmetic, to keep the peak of
    # a block's memory low: fresh pages cost a fault each.
    del values, gap, role
    value, slow = _doubles(digits, q, fits)
    # The minus sign's role bit, 1 << 7, moved to the sign bit of the double.
    sign = (cell_role & _NEGATIVE).astype(np.uint64)
    sign <<= _U(63 - 7)
    value.view(np.uint64)[...] ^= sign
    for k in slow.nonzero()[0].tolist():
        end = int(at[cell_ends[k]])
        start = at[cell_ends[k - 1]] + 1 if k else 0
        # Skipped lines may lie between the cell and the one before.
        cell = raw[start:end].tobytes().splitlines()[-1].rsplit(b",", 1)[-1]
        number = float(cell.strip(BLANKS + b'"'))
        if not math.isfinite(number):
            return end
        value[k] = number
    return value.reshape(rows, width)


def parse_block(data, width: int | None = None) -> tuple[np.ndarray, int]:
    """The rows of ASCII bytes of the grammar, shape (rows, width), up to
    the first row it refuses, and the offset of that row's line, or the
    length of the bytes when it refuses none."""
    stop = len(data)
    while not isinstance(table := _read_rows(data[:stop], width), np.ndarray):
        head = bytes(data[:table])
        stop = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
    return table, stop
