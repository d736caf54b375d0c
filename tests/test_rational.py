import time
from fractions import Fraction

import pytest

from hamgraphs.rational import fmt_rat, parse_rat


def test_parse_rat_forms():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat(" 5 ") == 5
    assert parse_rat("1.5e2") == 150
    assert parse_rat("2E-3") == Fraction(2, 1000)


def test_parse_rat_exponent_bound():
    assert parse_rat("1e4300") == 10 ** 4300
    assert parse_rat("1e-4300") == Fraction(1, 10 ** 4300)
    start = time.perf_counter()
    for text in ("1e4301", "1e-4301", "1e3000000", "1E+" + "9" * 5000):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(text)
    assert time.perf_counter() - start < 0.5


def test_fmt_rat_names_the_digit_limit():
    assert fmt_rat(Fraction(-(10 ** 4299), 3)) == "-1" + "0" * 4299 + "/3"
    for value in (10 ** 4300, Fraction(1, 10 ** 4300)):
        with pytest.raises(ValueError, match="a label has grown past the "
                           "4300 digits the package can print"):
            fmt_rat(value)
