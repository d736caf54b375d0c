import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgraphs.rational import fmt_rat, parse_rat


def test_parse_rat_forms():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat(" 5 ") == 5
    assert parse_rat("1.5e2") == 150
    assert parse_rat("2E-3") == Fraction(2, 1000)


def test_parse_rat_exponent_bound():
    assert parse_rat("1e4299") == 10 ** 4299
    assert parse_rat("1e-4299") == Fraction(1, 10 ** 4299)
    start = time.perf_counter()
    # 10**4300 has 4301 digits, one more than fmt_rat prints
    for text in ("1e4300", "1e-4300", "10e4299", "-10e4299", "1e4301",
                 "1e-4301", "1e3000000", "1E+" + "9" * 5000):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(text)
    # a value the digit bound admits is read whatever its exponent
    assert parse_rat("100e-4301") == Fraction(1, 10 ** 4299)
    for text in ("0e5000", "-0.0E-3000000", "0e" + "9" * 4000):
        assert parse_rat(text) == 0
    assert time.perf_counter() - start < 0.5


def reference_parse(text):
    """Fraction(text.strip()) under parse_rat's digit bound, with Python's
    limit on int(str) lifted: a value whose numerator or denominator has
    more than 4300 digits is refused, however long its digit strings.
    None means refused.  parse_rat's exponent rule needs no mirror here:
    it refuses only values that the digit bound refuses too.  An exponent
    above 10**5 is read as 10**5, which, for strings far shorter than
    10**5 characters, keeps the string valid or invalid, 0 at 0 and any
    other value past the bound, without building 10**exponent."""
    text = text.strip()
    match = re.fullmatch(r"(.*[eE][-+]?)(\d+(?:_\d+)*)", text, re.S)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if match and int(match[2]) > 10 ** 5:
            text = match[1] + "100000"
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    finally:
        sys.set_int_max_str_digits(limit)
    if abs(value.numerator) >= 10 ** 4300 or value.denominator >= 10 ** 4300:
        return None
    return value


# ASCII digits, an Arabic-Indic three, a fullwidth one and an underscore
DIGITS = st.sampled_from(list("0123456789") + ["\u0663", "\uff11", "_"])
SHORT = st.text(DIGITS, max_size=4)
LONG = st.builds(lambda d, n: d * n, st.sampled_from("19"),
                 st.sampled_from([4299, 4300, 4301, 5000]))
NUMBER = st.builds(
    "".join, st.tuples(
        st.sampled_from(["", " ", "\t", "\u3000"]),
        st.sampled_from(["", "-", "+", "--"]),
        SHORT | LONG,
        st.sampled_from(["", "/", "."]),
        SHORT | LONG | st.just("0"),
        st.sampled_from(["", "e", "E", "e-", "e+"]),
        st.sampled_from(["", "1", "2", "4299", "4300", "4301", "5000",
                         "1_0", "\u0663"]),
        st.sampled_from(["", " ", "\n"])))
# the forms fmt_rat writes, which parse_rat reads through int alone
ASCII = st.text(st.sampled_from("0123456789"), min_size=1, max_size=6) | LONG
PLAIN = st.builds("".join, st.tuples(st.sampled_from(["", "-"]), ASCII,
                                     st.sampled_from(["", "/"]), ASCII))
STRINGS = PLAIN | NUMBER | st.text(
    st.sampled_from("0123456789-+/._eE x\u0663"), max_size=12)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=STRINGS)
@example(text="3/4")
@example(text="-12/0")
@example(text="-0")
@example(text="1e4300")
@example(text="100e-4301")
@example(text="0e5000")
@example(text="-0.0e9999999999")
@example(text="1" + "0" * 4300 + "e-4300")
@example(text="0." + "0" * 4400)
@example(text="1." + "0" * 4400)
@example(text="0" * 4400 + "1")
@example(text="-" + "0" * 4500 + "7/" + "0" * 4450 + "3")
@example(text="0" * 4300 + "1" * 4300)
@example(text="1" * 4301 + "/" + "1" * 4301)
@example(text="0." + "0" * 4299 + "1")
@example(text="0." + "0" * 4300 + "1")
@example(text="25" + "0" * 4400 + "e-4402")
@example(text="1e+" + "0" * 4500 + "4299")
# near the forms fmt_rat writes, which parse_rat reads through int alone:
# a sign or a space in front, zero values, padding, unreduced fractions and
# digits that are not ASCII take that path or fall back to Fraction's
# grammar, which refuses a superscript digit and a zero denominator
@example(text="+3/4")
@example(text=" 3/4")
@example(text="-0/7")
@example(text="3/06")
@example(text="-7/14")
@example(text="\u0663/4")
@example(text="\u00b2/3")
@example(text="1_0/3")
@example(text="7/0")
def test_parse_rat_matches_fraction(text):
    want = reference_parse(text)
    if want is None:
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(text)
    else:
        got = parse_rat(text)
        assert type(got) is Fraction and got == want, text


def test_fmt_rat_names_the_digit_limit():
    assert fmt_rat(Fraction(-(10 ** 4299), 3)) == "-1" + "0" * 4299 + "/3"
    for value in (10 ** 4300, Fraction(1, 10 ** 4300)):
        with pytest.raises(ValueError, match="a label has grown past the "
                           "4300 digits the package can print"):
            fmt_rat(value)


def test_parse_rat_reads_zero_padding():
    # int, and so Fraction, refuses a digit string of more than 4300
    # characters; zeros that only pad a value are dropped before reading,
    # whatever their number (test_parse_rat_matches_fraction has more)
    start = time.perf_counter()
    padded = "0" * 10 ** 6
    assert parse_rat("-" + padded + "1/" + padded + "2") == Fraction(-1, 2)
    assert parse_rat(padded + "25." + padded + "e-" + padded + "1") == \
        Fraction(5, 2)
    assert parse_rat("0." + padded + "25e%d" % (10 ** 6 + 2)) == 25
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="has more than 4300 digits"):
        parse_rat("0" * 4400 + "1" + "0" * 4300)


def test_parse_rat_written_digit_bound():
    # the longest decimal mantissa in range: D = r * 5**k with k = 14284,
    # the largest k with 2**k < 10**4300, and r < 10**4300 odd; D/10**k
    # is r/2**k, and D has 14285 digits
    r, k = 10 ** 4300 - 1, 14284
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        mantissa = str(r * 5 ** k)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(mantissa) == 14285
    assert parse_rat(mantissa + "e-%d" % k) == Fraction(r, 2 ** k)
    # a fraction is not reduced before its bound: p/q written with more
    # than 14285 significant digits is refused even where it equals 1
    assert parse_rat("1" * 14285 + "/" + "1" * 14285) == 1
    with pytest.raises(ValueError, match="not a rational"):
        parse_rat("1" * 14286 + "/" + "1" * 14286)
