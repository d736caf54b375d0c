import re
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
    """Fraction(text.strip()) under parse_rat's digit bound: a value whose
    numerator or denominator has more than 4300 digits is refused.  None
    means refused.  parse_rat's exponent rule needs no mirror here: it
    refuses only values that the digit bound refuses too.  An exponent
    above 10**5 is read as 10**5, which keeps the string valid or
    invalid, 0 at 0 and any other value past the bound, without building
    10**exponent."""
    text = text.strip()
    match = re.fullmatch(r"(.*[eE][-+]?)(\d+(?:_\d+)*)", text, re.S)
    try:
        if match and int(match[2]) > 10 ** 5:
            text = match[1] + "100000"
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
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
# the forms fmt_rat writes, which parse_rat reads through int
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
