"""Exact rationals: "p/q" strings (integers as "p") and the exactness gate."""

from fractions import Fraction


def exact(x):
    """x itself if it is an int or a Fraction; a bool, float or other value raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("expected an exact rational (int or Fraction), got %r" % (x,))
    return x


def rat_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_rat(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        # a ValueError, so a command-line "1/0" is a usage error
        raise ValueError("zero denominator in %r" % (s,)) from None
