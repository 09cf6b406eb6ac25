"""Exact rational arithmetic.

Everything in this package that carries mathematical meaning is an exact
rational, and every rational is a stdlib fractions.Fraction. All package
code goes through rat()/format_rat/parse_rat.

Serialization format is deliberately strict so that reports are canonical:
an integer renders as "5", everything else as "p/q" in lowest terms with
q > 1 and the sign on the numerator.  parse_rat rejects anything else
("2/4", "5/1", "+2", "1/0", whitespace).

Both directions convert integers of any size exactly. Python refuses a
decimal conversion past its ``int_max_str_digits`` limit (4300 digits by
default, 640 at the least), so longer numbers are split by powers of ten
into pieces below the least limit; the process-wide limit is left alone.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction

BACKEND = "fractions"  # recorded in the acceptance report

Rat = Fraction

_RAT_RE = re.compile(r"^(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def rat(num, den=None) -> Rat:
    """Build a rational from ints, a rational, or a canonical string."""
    if den is None and type(num) is Fraction:
        return num  # immutable, so the same object serves
    if isinstance(num, str):
        if den is not None:
            raise ValueError("string input takes no denominator")
        return parse_rat(num)
    if isinstance(num, float) or isinstance(den, float):
        raise TypeError("rat() takes exact inputs, not floats")
    return Fraction(num, den)


def is_rational(x) -> bool:
    return isinstance(x, numbers.Rational)


# Pieces of at most this many digits convert under any int_max_str_digits.
_PIECE_DIGITS = 600
_PIECE_BITS = 1993  # 2**1993 < 10**600


def _digits(n: int) -> str:
    """Decimal digits of n >= 0."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(n, 10 ** k)
    return _digits(hi) + _digits(lo).zfill(k)


def _int(s: str) -> int:
    """The integer spelled by decimal digits s, with an optional "-"."""
    if len(s) <= _PIECE_DIGITS:
        return int(s)
    if s[0] == "-":
        return -_int(s[1:])
    k = len(s) // 2
    return _int(s[:-k]) * 10 ** k + _int(s[-k:])


def format_rat(x) -> str:
    """Canonical string: "5" for integers, else reduced "p/q" with q > 1."""
    n, d = x.numerator, x.denominator
    num = "-" + _digits(-n) if n < 0 else _digits(n)
    if d == 1:
        return num
    return num + "/" + _digits(d)


def parse_rat(s: str) -> Rat:
    """Inverse of format_rat; rejects non-canonical spellings."""
    m = _RAT_RE.match(s)
    if not m:
        raise ValueError("not a canonical rational: %r" % (s,))
    num = _int(m.group(1))
    if m.group(2) is None:
        return rat(num)
    den = _int(m.group(2))
    if den == 1:
        raise ValueError("non-canonical rational (denominator 1): %r" % (s,))
    from math import gcd

    if gcd(abs(num), den) != 1:
        raise ValueError("non-canonical rational (not reduced): %r" % (s,))
    return rat(num, den)


ZERO = rat(0)
ONE = rat(1)
