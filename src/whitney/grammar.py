"""Formal derivatives attached to substitution rules on two-variable monomials.

A grammar assigns each variable a polynomial image; the induced derivative
acts on a monomial by the Leibniz rule, replacing one variable occurrence
at a time by its image.  Iterating the derivative of the rule set
{y -> y x^m, x -> x} on y x^r grows the second-kind generalized Whitney
triangle row by row, which this module exposes directly.
"""

from fractions import Fraction
from itertools import chain

from .errors import BadParameter, StrayMonomial
from .qformat import canonical, count, exact, rat_str

# variable order is (y, x); exponent keys are (a, b) for y^a x^b


class XYPoly:
    """Finite linear combination of monomials y^a x^b with exact coefficients.

    ``terms`` maps (a, b) to the coefficient; zero coefficients are never
    stored, so equality is structural.  Coefficients, exponents (at least 0)
    and scalar factors are ints or Fractions; a float or bool raises ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        if not {int, Fraction}.issuperset(map(type, chain(terms.values(), *terms))):
            for c in chain(terms.values(), *terms):
                exact(c)
        if any(a < 0 or b < 0 for a, b in terms):
            raise ValueError("negative exponent in monomial")
        object.__setattr__(self, "terms", {key: c for key, c in terms.items() if c})

    @classmethod
    def _merged(cls, d) -> "XYPoly":
        """From a dict whose keys are already merged and valid; only zero
        coefficients are dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", {key: c for key, c in d.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("XYPoly is immutable")

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "XYPoly":
        return cls({(a, b): c})

    @classmethod
    def zero(cls) -> "XYPoly":
        return cls({})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, XYPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "XYPoly") -> "XYPoly":
        d = dict(self.terms)
        for key, c in other.terms.items():
            d[key] = d.get(key, 0) + c
        return XYPoly._merged(d)

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, XYPoly):
            d = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    d[key] = d.get(key, 0) + c1 * c2
            return XYPoly._merged(d)
        other = exact(other)
        return XYPoly._merged({key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "XYPoly(0)"
        bits = [
            "%r*y^%s*x^%s" % (c, rat_str(a), rat_str(b))
            for (a, b), c in sorted(self.terms.items())
        ]
        return "XYPoly(%s)" % " + ".join(bits)


class Grammar:
    """Substitution rules: one image per variable."""

    __slots__ = ("y_image", "x_image")

    def __init__(self, y_image: XYPoly, x_image: XYPoly):
        object.__setattr__(self, "y_image", y_image)
        object.__setattr__(self, "x_image", x_image)

    def __setattr__(self, name, value):
        raise AttributeError("Grammar is immutable")


def whitney_grammar(m: int) -> Grammar:
    """Rules y -> y x^m, x -> x."""
    count(m, "m", 1)
    return Grammar(XYPoly.monomial(1, m), XYPoly.monomial(0, 1))


def stirling_grammar() -> Grammar:
    """Rules y -> x y, x -> x."""
    return Grammar(XYPoly.monomial(1, 1), XYPoly.monomial(0, 1))


def derive_once(g: Grammar, p: XYPoly) -> XYPoly:
    """One application of the derivative induced by the rules of g.

    On a monomial y^a x^b the result is
    a * y^(a-1) x^b * image(y)  +  b * y^a x^(b-1) * image(x),
    extended linearly.
    """
    d = {}
    for (a, b), c in p.terms.items():
        if a:
            for (da, db), e in g.y_image.terms.items():
                key = (a - 1 + da, b + db)
                d[key] = d.get(key, 0) + a * c * e
        if b:
            for (da, db), e in g.x_image.terms.items():
                key = (a + da, b - 1 + db)
                d[key] = d.get(key, 0) + b * c * e
    return XYPoly._merged(d)


def derive_n(g: Grammar, p: XYPoly, n: int) -> XYPoly:
    for _ in range(count(n, "n")):
        p = derive_once(g, p)
    return p


def row_from_derivative(p: XYPoly, m: int, r: int, n: int) -> list:
    """Read coefficients of y x^(mk+r) off a derived polynomial.

    Raises StrayMonomial if any term falls outside that shape; a stray
    term means the derivation engine itself is broken.
    """
    row = [0] * (n + 1)
    for (a, b), c in p.terms.items():
        k, rem = divmod(b - r, m) if b >= r else (-1, 1)
        if a != 1 or rem or not 0 <= k <= n:
            raise StrayMonomial("unexpected term y^%d x^%d for m=%d r=%d" % (a, b, m, r))
        row[k] = c
    return row


def whitney_row_from_grammar(m: int, r: int, n: int) -> list:
    """Row n of the second-kind triangle, grown by iterated derivation on y x^r.

    An integral r is taken as an int, so the row's types do not depend on
    how r arrived.
    """
    g, r = whitney_grammar(m), canonical(r)
    if r < 0:
        raise BadParameter("r must be nonnegative, got %s" % rat_str(r))
    p = derive_n(g, XYPoly.monomial(1, r), n)
    return row_from_derivative(p, m, r, n)
