import pytest
from hypothesis import given, strategies as st

from lipcheck.rational import (
    BACKEND,
    ONE,
    ZERO,
    format_rat,
    is_rational,
    parse_rat,
    rat,
)


def test_backend_is_reported():
    assert BACKEND == "fractions"


def test_rat_construction():
    assert rat(3, 6) == rat(1, 2)
    assert rat(-2, 4) == rat(-1, 2)
    assert rat(5) == 5
    assert rat("7/3") == rat(7, 3)
    assert ZERO == 0 and ONE == 1


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_format_roundtrip_fixed_cases():
    cases = ["0", "5", "-5", "1/2", "-7/3", "22/7"]
    for s in cases:
        assert format_rat(parse_rat(s)) == s


@pytest.mark.parametrize("bad", ["2/4", "5/1", "+2", "1/0", "0/3", "-0", "1.5", "", "3/-2"])
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_is_rational():
    assert is_rational(rat(1, 3))
    assert is_rational(4) is False or is_rational(4) is True  # ints may coerce
    assert not is_rational(0.25)
    assert not is_rational("1/4")


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_format_parse_roundtrip(num, den):
    q = rat(num, den)
    assert parse_rat(format_rat(q)) == q


@given(
    st.integers(-100, 100), st.integers(1, 100),
    st.integers(-100, 100), st.integers(1, 100),
)
def test_arithmetic_matches_cross_multiplication(a, b, c, d):
    x, y = rat(a, b), rat(c, d)
    assert (x + y) * rat(b * d) == rat(a * d + c * b)
    assert (x * y) * rat(b * d) == rat(a * c)


@pytest.mark.parametrize("x", [
    rat(-3, 2 ** (127 * 127)),
    rat(10 ** 5000 + 7),
    rat(-(10 ** 4400), 3 ** 9001),
    rat(1, 10 ** 600),
])
def test_format_parse_roundtrip_past_the_int_digit_limit(x):
    """Numbers longer than Python's default int/str limit (4300 digits)
    format to their exact decimal digits and parse back."""
    s = format_rat(x)
    assert parse_rat(s) == x
    num, _, den = s.partition("/")
    assert num.startswith("-") == (x < 0)
    for digits, n in ((num.lstrip("-"), abs(x.numerator)), (den or "1", x.denominator)):
        assert digits[0] != "0" or digits == "0"
        assert 10 ** (len(digits) - 1) <= n < 10 ** len(digits)
        assert int(digits[-300:]) == n % 10 ** 300
    assert len(s) > 4300 or x == rat(1, 10 ** 600)
