"""Exact rational helpers and the JSON number convention.

All quantities in this package are ``fractions.Fraction`` values.  In JSON
they travel as strings like "3/4" or "5" so nothing is ever rounded.
"""

from fractions import Fraction

# fmt_rat cannot print an integer of more than 4300 digits (Python's limit
# on int-to-str conversion), so parse_rat refuses a value whose numerator
# or denominator reaches _TOO_LONG.  Building 10**n first costs time that
# grows faster than n, so an exponent beyond 4300 + the length of the
# mantissa string is refused before parsing: a nonzero mantissa of L
# characters times such a power has more than 4300 digits either way
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS  # the least integer of more digits


def _plain(text):
    """The value of "p", "-p", "p/q" or "-p/q" in ASCII digits, the forms
    fmt_rat writes, or None for any other string."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (digits.isascii() and digits.isdigit()):
        return None
    if not slash:
        return Fraction(int(num))
    if not (den.isascii() and den.isdigit()):
        return None
    return Fraction(int(num), int(den))


def parse_rat(value):
    """Parse a rational from its JSON form ("p/q", "p", or an int).  The
    forms fmt_rat writes go through int; any other string through
    Fraction."""
    if isinstance(value, bool):
        raise ValueError("not a rational: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            parsed = _plain(value)
            if parsed is None:
                text = value.strip()
                mantissa, e, exponent = text.lower().partition("e")
                if e and abs(int(exponent)) > _MAX_DIGITS + len(mantissa):
                    # 0 is the one value in range: read it at exponent 0
                    if exponent[:1].isspace() or Fraction(mantissa + "e0"):
                        raise ValueError("exponent out of range")
                    text = mantissa + "e0"
                parsed = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not a rational: %r" % (value,)) from exc
        if abs(parsed.numerator) >= _TOO_LONG or \
                parsed.denominator >= _TOO_LONG:
            raise ValueError("not a rational: %r has more than %d digits"
                             % (value, _MAX_DIGITS))
        return parsed
    raise ValueError("not a rational: %r" % (value,))


def fmt_rat(value):
    """Format a Fraction for JSON: "p/q", or "p" when the denominator is 1.
    A ValueError names the limit when p or q has too many digits."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    except ValueError:
        raise ValueError("a label has grown past the %d digits the package "
                         "can print" % _MAX_DIGITS) from None
