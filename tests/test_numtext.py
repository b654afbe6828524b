"""The number formatter writes the text of Python's % operator, byte for byte."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cepdist.numtext import format_block

# Every digit comes from integer arithmetic on the float's bits, and values
# out of its range go to Python before any NumPy call could overflow.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FLOAT_FORMATS = ("%.17g", "%.12g")
INT64 = st.integers(-(2**63), 2**63 - 1)


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
