"""The number formatter writes the text of Python's % operator, byte for byte,
and the block parser reads each cell as Python's float does, bit for bit."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cepdist.numtext import format_block, parse_block

# Every digit comes from integer arithmetic on the float's bits, and values
# out of its range go to Python before any NumPy call could overflow; so in
# the parser, whose doubles come from integer arithmetic on the digits.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FLOAT_FORMATS = ("%.17g", "%.12g")
INT64 = st.integers(-(2**63), 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _one(fmt: str, value, dtype) -> str:
    return format_block([fmt], [np.array([value], dtype=dtype)]).decode("ascii")


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
# Ties at 12 digits round half to even.
@example(123456789012.5)
@example(123456789013.5)
@example(-2.5)
# Either side of 1e-4, where %g turns to an exponent. At 12 digits the last
# one rounds up to 0.0001 and is written without one.
@example(1e-4)
@example(float(np.nextafter(1e-4, 0.0)))
@example(9.99999999999996e-5)
@example(9.9999999999999995e-5)
# Either side of 10**12 and 10**17.
@example(1e12)
@example(float(np.nextafter(1e12, 0.0)))
@example(1e17)
@example(float(np.nextafter(1e17, 0.0)))
# Roundings that carry to 10**12, and so take the next exponent.
@example(999999999999.5)
@example(0.99999999999995)
@example(-9.9999999999996e-2)
@example(-0.0)
@example(5e-324)
def test_float_text_is_that_of_percent_g(value):
    for fmt in FLOAT_FORMATS:
        assert _one(fmt, value, np.float64) == fmt % value + "\n"


@given(INT64)
@example(0)
@example(-(2**63))
@example(2**63 - 1)
@example(10**18)
@example(-(10**18) + 1)
def test_int_text_is_that_of_percent_d(value):
    assert _one("%d", value, np.int64) == "%d\n" % value


@given(st.lists(st.tuples(INT64, st.floats(), st.floats()), min_size=1, max_size=40))
# Fields narrow enough for 1.0 widen for the text Python writes.
@example([(0, 1.0, 2.0), (-1, -1.2345678901234567e-300, float("nan"))])
def test_rows_of_mixed_columns_are_those_of_percent(rows):
    # The field widths of a block follow its widest value, so values of
    # every size share one block here.
    ints, first, second = (list(column) for column in zip(*rows))
    columns = [np.array(ints, dtype=np.int64), np.array(first), np.array(second)]
    text = format_block(("%d", "%.17g", "%.12g"), columns).decode("ascii")
    assert text == "".join("%d,%.17g,%.12g\n" % row for row in rows)


def test_refuses_a_format_it_cannot_write():
    for fmt in ("%.18g", "%.0g", "%f", "%s"):
        with pytest.raises(ValueError, match="unsupported number format"):
            format_block([fmt], [np.ones(1)])


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _read_cells(cells: list[str]) -> None:
    """Each cell, one per line, reads as float() reads it; the parser stops
    at the line of the first cell whose value is not finite."""
    wants = [float(cell) for cell in cells]
    read = sum(1 for _ in itertools.takewhile(math.isfinite, wants))
    text = "".join(cell + "\n" for cell in cells).encode("ascii")
    table, stop = parse_block(text)
    assert stop == sum(len(cell) + 1 for cell in cells[:read])
    assert table.shape == ((read, 1) if read else (0, 0))
    assert _bits(table.ravel()) == _bits(wants[:read])


@given(st.lists(st.tuples(INT64, FINITE, FINITE), min_size=1, max_size=40))
@example([(0, 5e-324, 1.7976931348623157e308), (-(2**63), -0.0, 2.2250738585072011e-308)])
def test_written_rows_read_back_as_float_reads_their_text(rows):
    ints, first, second = (list(column) for column in zip(*rows))
    columns = [np.array(ints, dtype=np.int64), np.array(first), np.array(second)]
    text = format_block(("%d", "%.17g", "%.12g"), columns)
    table, stop = parse_block(text)
    assert stop == len(text) and table.shape == (len(rows), 3)
    # %.17g gives every double back; %d and %.12g give float() of their text.
    assert _bits(table[:, 1]) == _bits(first)
    cells = [line.split(",") for line in text.decode("ascii").splitlines()]
    assert _bits(table.ravel()) == _bits([float(cell) for row in cells for cell in row])


@st.composite
def decimal_cells(draw) -> str:
    """A sign, 1 to 25 digits after up to 4 leading zeros, a point anywhere
    or none, and an exponent from -350 to 350 or none."""
    digits = "0" * draw(st.integers(0, 4)) + draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(-1, len(digits)))
    if point >= 0:
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.one_of(st.none(), st.integers(-350, 350)))
    if exponent is not None:
        plus = "+" if exponent >= 0 and draw(st.booleans()) else ""
        digits += draw(st.sampled_from("eE")) + plus + str(exponent)
    return draw(st.sampled_from(["", "-", "+"])) + digits


@settings(max_examples=200)
@given(st.lists(decimal_cells(), min_size=1, max_size=30))
@example(["9007199254740993"])  # a tie at 2**53 + 1, rounded to even
@example(["0.1"])
@example(["1e23"])  # the product lands near a tie
@example(["2.2250738585072011e-308"])  # subnormal, left to float()
@example(["4.9406564584124654e-324"])
@example(["1.7976931348623157e308"])
@example(["1.8e308"])  # overflows: not finite, so the block declines
@example(["-0", "+1", ".5", "5.", "1E+05"])
@example(["1234567890123456789", "12345678901234567890"])  # 19 and 20 significant digits
@example(["0.000000000000000000000000000001", "00000000000000000000000001e-3"])
def test_decimal_cells_read_as_float_reads_them(cells):
    _read_cells(cells)


@given(st.lists(FINITE, min_size=1, max_size=30))
def test_shortest_and_rounded_texts_read_as_float_reads_them(values):
    for fmt in ("%r", "%.16g", "%.6f", "%.19f"):
        _read_cells([fmt % value for value in values])


@pytest.mark.parametrize(
    "text,rows",
    [
        # Line ends of every kind, and empty lines, which are skipped.
        (b"0,1.5\r\n1,-2\r\n", [[0, 1.5], [1, -2]]),
        (b"0,1.5\r1,-2", [[0, 1.5], [1, -2]]),
        (b"\n\r\n0,1.5\n\n\n1,-2\n\r\n\n", [[0, 1.5], [1, -2]]),
        # Blanks around cells, alone and in runs.
        (b" 0 ,\t1.5\x0c\n\x1c1\x1f, -2 \r\n", [[0, 1.5], [1, -2]]),
        (b"  0 \t,\t 1.5  \n", [[0, 1.5]]),
        (b"", np.empty((0, 0))),
        (b"\r\n\n", np.empty((0, 0))),
        # Cells in double quotes, and lines of only blanks, commas and
        # quotes, which are skipped.
        (b'0,"1"\n', [[0, 1]]),
        (b"0,1\n,\n", [[0, 1]]),
        (b"0,1\n \t\n1,2\n", [[0, 1], [1, 2]]),
        (b"0,1\n  \t \n1,2\n", [[0, 1], [1, 2]]),
        (b'"0" ," -1.5e3 "\t\r\n"","  "\x1c\r\n"1","2"', [[0, -1500], [1, 2]]),
        (b'0,"1.00000000000000000000001"\n, ,\n1,2e-400\n', [[0, 1], [1, 0]]),
    ],
)
def test_lines_and_blanks(text, rows):
    table, stop = parse_block(text)
    assert stop == len(text) and table.shape == np.shape(rows)
    assert _bits(table.ravel()) == _bits(np.ravel(rows))


@pytest.mark.parametrize(
    "text",
    [
        b"0,1\n1,2,3\n",  # rows of unequal width
        b"0,1\n1,\n",  # an empty cell
        b"0,1 2\n",  # a blank inside a cell
        b"0,1 \t 2\n",
        b"0,1_0\n",  # an underscore
        b"0,\xef\xbb\xbf1\n",  # a byte order mark inside the rows
        b"0,\xc2\xa01\n",  # a blank that is not ASCII
        b"0,inf\n",
        b"0,nan\n",
        b"0,1e400\n",
        b"0,-\n", b"0,.\n", b"0,e5\n", b"0,1e\n", b"0,1e+\n", b"0,1.2.3\n",
        b"0,1e5e5\n", b"0,1-2\n", b"0,--1\n", b"0,1.e-.5\n", b"0,+-1\n",
    ],
)
def test_declines_what_it_does_not_decide(text):
    # The last row is refused: the parser stops at the start of its line.
    table, stop = parse_block(text)
    assert stop == text.rstrip(b"\n").rfind(b"\n") + 1
    assert table.shape[0] == text.count(b"\n", 0, stop)


@pytest.mark.parametrize(
    "text,width,stop",
    [
        # The first refused row, whatever refuses the rows after it.
        (b"0,1e999\n1,2,3\n2,x\n", None, 0),
        (b"0,1\n1,2,3\n2,1e999\n3,x\n", None, 4),
        (b"0,1\n1,2\n2,1e999\n3,x\n", None, 8),
        (b"0,1\n\n , \n1,2\r\n2,x\r\n3,4\r\n", None, 14),
        (b'0,1\n1,2\n"2\n",3\n', None, 8),
        (b'0,1\n1,"2"3\n2,3\n', None, 4),
        (b'0,1\n1,"" 2\n', None, 4),
        (b'0,1\n1, "2"\n', None, 4),
        (b'0,1\n1,"2\n', None, 4),
        (b"0,1\n1,2\r3,4,5\r", None, 8),
        # Rows of a width other than the one asked for.
        (b"0,1\n1,2\n", 3, 0),
        (b"0,1,2\n1,2\n", 3, 6),
    ],
)
def test_stops_at_the_first_refused_row(text, width, stop):
    table, at = parse_block(text, width)
    assert at == stop
    want, end = parse_block(text[:stop], width)
    assert end == stop and _bits(table.ravel()) == _bits(want.ravel())
    assert table.shape[0] == len([line for line in text[:stop].splitlines() if line.strip(b" ,")])
