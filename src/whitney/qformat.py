"""Exact rationals and counts: the exactness gate, the canonical form (an
int when the denominator is 1, so integral values compute in ints whatever
type they arrived as), "p/q" strings (integers as "p"), and the parameter
gate every entry point applies to m, n and k."""

from fractions import Fraction

from .errors import BadParameter


def exact(x):
    """x itself if it is an int or a Fraction; a bool, float or other value raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("expected an exact rational (int or Fraction), got %r" % (x,))
    return x


def count(v, name, least=0):
    """v itself if it is an int, not a bool, of at least `least` (0 or 1);
    anything else raises BadParameter, which is a ValueError."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise BadParameter("%s must be a %s integer, got %r"
                           % (name, "positive" if least else "nonnegative", v))
    return v


def canonical(x):
    """The exact value x as an int if its denominator is 1, else as a Fraction."""
    x = exact(x)
    return x.numerator if x.denominator == 1 else x


def rat_str(x) -> str:
    if type(x) is int:
        return str(x)
    f = x if type(x) is Fraction else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_rat(s: str):
    """The canonical value of a "p/q" or "p" string."""
    try:
        return canonical(Fraction(s.strip()))
    except ZeroDivisionError:
        # a ValueError, so a command-line "1/0" is a usage error
        raise ValueError("zero denominator in %r" % (s,)) from None
