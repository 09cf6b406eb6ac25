"""Exact rational arithmetic.

Everything in this package that carries mathematical meaning is an exact
rational, and every rational is a stdlib fractions.Fraction. All package
code goes through rat()/format_rat/parse_rat.

Serialization format is deliberately strict so that reports are canonical:
an integer renders as "5", everything else as "p/q" in lowest terms with
q > 1 and the sign on the numerator.  parse_rat rejects anything else
("2/4", "5/1", "+2", "1/0", whitespace).
"""

from __future__ import annotations

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
    import numbers

    return isinstance(x, numbers.Rational)


def format_rat(x) -> str:
    """Canonical string: "5" for integers, else reduced "p/q" with q > 1."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(int(n))
    return "%d/%d" % (n, d)


def parse_rat(s: str) -> Rat:
    """Inverse of format_rat; rejects non-canonical spellings."""
    m = _RAT_RE.match(s)
    if not m:
        raise ValueError("not a canonical rational: %r" % (s,))
    num = int(m.group(1))
    if m.group(2) is None:
        return rat(num)
    den = int(m.group(2))
    if den == 1:
        raise ValueError("non-canonical rational (denominator 1): %r" % (s,))
    from math import gcd

    if gcd(abs(num), den) != 1:
        raise ValueError("non-canonical rational (not reduced): %r" % (s,))
    return rat(num, den)


ZERO = rat(0)
ONE = rat(1)
