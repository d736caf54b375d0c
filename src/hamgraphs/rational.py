"""Exact rational helpers and the JSON number convention.

All quantities in this package are ``fractions.Fraction`` values.  In JSON
they travel as strings like "3/4" or "5" so nothing is ever rounded.
"""

from fractions import Fraction, _RATIONAL_FORMAT  # Fraction(str)'s grammar

# fmt_rat cannot print an integer of more than 4300 digits (Python's limit
# on int-to-str conversion), so parse_rat refuses a value whose numerator
# or denominator reaches _TOO_LONG.  The same limit stops int (and so
# Fraction) from reading a longer digit string, so parse_rat reads digits
# itself: zeros padding a number cost nothing, and an integer written with
# up to _MAX_WRITTEN significant digits is read in chunks.  No decimal
# mantissa of more significant digits has a value in range (see _read)
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS  # the least integer of more digits
_MAX_WRITTEN = 14285  # 4300 / log10(2), rounded up


def _int(digits):
    """int(digits) for a string of digits, read 4300 at a time."""
    value = 0
    for i in range(0, len(digits), _MAX_DIGITS):
        chunk = digits[i:i + _MAX_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _read(text):
    """The value of any string Fraction reads, as Fraction reads it, or
    None for a decimal whose value has more than 4300 digits.

    A decimal is D * 10**e with D > 0 free of trailing zeros.  For e >= 0
    its numerator is at least 10**e; for e = -k its denominator 10**k / g,
    with g = gcd(D, 10**k), is above 10**(k - len(D)).  So e >= 4300 and
    k >= 4300 + len(D) give None before 10**|e| is built.  And g divides
    2**k or 5**k (10 does not divide D), so g <= 5**k and the denominator
    is at least 2**k: in range, 2**k < 10**4300, and D = numerator * g <
    10**4300 * 5**k < 10**4300 * 10**(4300 * log10(5) / log10(2)) =
    10**(4300 / log10(2)), so D has at most _MAX_WRITTEN digits.  A fraction p/q is not reduced first: a p or
    q of more significant digits is refused, whatever its value."""
    m = _RATIONAL_FORMAT.match(text)
    if m is None:
        raise ValueError("not the form of a number")
    num = m["num"].replace("_", "").lstrip("0")
    if m["denom"]:
        den = m["denom"].replace("_", "").lstrip("0")
        if max(len(num), len(den)) > _MAX_WRITTEN:
            raise ValueError("more than %d significant digits" % _MAX_WRITTEN)
        value = Fraction(_int(num), _int(den))
    else:
        decimal = (m["decimal"] or "").replace("_", "")
        mantissa = (num + decimal).lstrip("0")
        digits = mantissa.rstrip("0")
        if not digits:
            return Fraction(0)
        exp = (m["exp"] or "0").replace("_", "")
        magnitude = exp.lstrip("+-").lstrip("0") or "0"
        if len(magnitude) > _MAX_DIGITS:
            return None
        e = (-1 if exp[0] == "-" else 1) * int(magnitude) \
            - len(decimal) + len(mantissa) - len(digits)
        if e >= _MAX_DIGITS or -e >= _MAX_DIGITS + len(digits) or \
                len(digits) > _MAX_WRITTEN:
            return None
        if e >= 0:
            value = Fraction(_int(digits) * 10 ** e)
        else:
            value = Fraction(_int(digits), 10 ** -e)
    return -value if m["sign"] == "-" else value


def parse_rat(value):
    """Parse a rational from its JSON form ("p/q", "p", or an int).  The
    forms fmt_rat writes, "p", "-p", "p/q" and "-p/q" in at most 4300
    ASCII digits, are read by int at once: their values are in range.  Any
    other string is read as Fraction reads it, whatever its zero padding."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if len(value) <= _MAX_DIGITS and value.isascii() and \
                (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and den.lstrip("0"):  # _read refuses q = 0
                return Fraction(int(num), int(den))
        try:
            parsed = _read(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not a rational: %r" % (value,)) from exc
        if parsed is None or abs(parsed.numerator) >= _TOO_LONG or \
                parsed.denominator >= _TOO_LONG:
            raise ValueError("not a rational: %r has more than %d digits"
                             % (value, _MAX_DIGITS))
        return parsed
    if isinstance(value, bool):
        raise ValueError("not a rational: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError("not a rational: %r" % (value,))


def fmt_rat(value):
    """Format a Fraction for JSON: "p/q", or "p" when the denominator is 1.
    A ValueError names the limit when p or q has too many digits."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return _fmt_reduced(value.numerator, value.denominator)


def _fmt_reduced(num, den):
    """fmt_rat of num/den, for coprime integers num and den > 0."""
    try:
        if den == 1:
            return str(num)
        return "%d/%d" % (num, den)
    except ValueError:
        raise ValueError("a label has grown past the %d digits the package "
                         "can print" % _MAX_DIGITS) from None
