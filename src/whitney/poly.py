"""Dense univariate polynomials over exact rationals; ``_convolve``, the
ordinary-coefficient product under ``Poly``, ``OrdRiordan`` and one of the
two forms of the ``Egf`` product; and ``lincomb``, the sum of scaled
polynomials that the identity evaluators and the derivative-series
operators build their sides with.

Coefficients may be ``int`` or ``fractions.Fraction``; arithmetic never
rounds.  Values are immutable and safe to share.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from .qformat import canonical, count, exact


def _convolve(a, b, n):
    """Coefficients 0..n of the product of two ordinary coefficient sequences.

    Each operand's denominators are cleared by their lcm, the double loop
    multiplies plain integers, and each coefficient is divided once at the
    end.  Integer inputs give integer outputs; otherwise every output is a
    Fraction.
    """
    a, b = a[: n + 1], b[: n + 1]
    da = lcm(*(x.denominator for x in a))
    db = lcm(*(x.denominator for x in b))
    ia = [x.numerator * (da // x.denominator) for x in a]
    ib = [x.numerator * (db // x.denominator) for x in b]
    out = [0] * (n + 1)
    for i, x in enumerate(ia):
        if x:
            for j, y in enumerate(ib[: n + 1 - i], i):
                out[j] += x * y
    if all(type(x) is int for x in a) and all(type(y) is int for y in b):
        return out
    d = da * db
    return [Fraction(c, d) for c in out]


def lincomb(terms) -> "Poly":
    """The polynomial sum of c * p over the (c, p) pairs of `terms`.

    p is a Poly or a sequence of coefficients by ascending power.  The sum
    is kept as integer numerators over one running lcm of the terms'
    denominators, rescaled only when a term's denominator does not divide
    it, and each coefficient is divided once at the end.  Integer terms
    give integer coefficients; otherwise every coefficient is a Fraction.
    A float or bool, as c or as a coefficient, raises ValueError.
    """
    out, den, ints = [], 1, True
    for c, p in terms:
        if not c:
            continue
        cs = p.coeffs if isinstance(p, Poly) else p
        if len(cs) > len(out):
            out.extend([0] * (len(cs) - len(out)))
        if type(c) is int and {int}.issuperset(map(type, cs)):
            if den != 1:
                c *= den
            for i, a in enumerate(cs):
                out[i] += c * a
            continue
        ints, c = False, exact(c)
        if not {int, Fraction}.issuperset(map(type, cs)):
            cs = [exact(a) for a in cs]
        d = lcm(*[a.denominator for a in cs])
        t = c.denominator * d
        if den % t:
            scale = t // gcd(den, t)
            out = [v * scale for v in out]
            den *= scale
        c = c.numerator * (den // t)
        for i, a in enumerate(cs):
            out[i] += c * a.numerator * (d // a.denominator)
    return Poly(out if ints else [Fraction(v, den) for v in out])


class Poly:
    """Polynomial stored as coefficients by ascending power of x.

    No trailing zero coefficient is stored, so equality is structural and
    ``degree`` of the zero polynomial is -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not {int, Fraction}.issuperset(map(type, cs)):  # fast path for the usual types
            cs = [exact(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return len(self.coeffs) == len(other.coeffs) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        return NotImplemented

    def __hash__(self):
        return hash(tuple(Fraction(c) for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) - other.coeff(i) for i in range(n))

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(_convolve(self.coeffs, other.coeffs, self.degree + other.degree))
        return Poly(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = Poly((1,))
        for _ in range(count(n, "exponent")):
            out = out * self
        return out

    def __call__(self, v):
        out = 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def deriv(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def shifted(self, a) -> "Poly":
        """p(x + a), expanded binomially."""
        out = [0] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            pw = 1
            for i in range(k, -1, -1):
                out[i] += c * comb(k, i) * pw
                pw *= a
        return Poly(out)

    def mul_xpow(self, j: int) -> "Poly":
        if not self.coeffs:
            return self
        return Poly((0,) * j + self.coeffs)

    def integral_01(self):
        """Exact integral of the polynomial over [0, 1]."""
        return sum((Fraction(c) / (i + 1) for i, c in enumerate(self.coeffs)), Fraction(0))

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)


def stepped_product(n: int, m, shift=0) -> Poly:
    """(x - shift)(x - shift - m)...(x - shift - (n-1)m); the empty product is 1.

    Multiplied out one factor at a time, independently of the row store,
    so it serves as the reference for the first-kind rows; the step m is
    any exact rational, not a count.
    """
    count(n, "n")
    m = exact(m)
    shift = canonical(shift)  # an integral shift steps in int arithmetic
    cs = [1]
    for j in range(n):
        # times (x - s): c_k <- c_{k-1} - s c_k, from the top down
        s = shift + j * m
        cs.append(cs[-1])
        for k in range(len(cs) - 2, 0, -1):
            cs[k] = cs[k - 1] - s * cs[k]
        cs[0] = -s * cs[0]
    return Poly(cs)


def falling_basis_expand(p: Poly) -> list:
    """Coefficients c_0..c_d with p(x) = sum c_k x(x-1)...(x-k+1).

    Computed by forward differences: c_k = (delta^k p)(0) / k!, which keeps
    the expansion independent of any triangle recurrence.
    """
    if not p:
        return [Fraction(0)]
    vals = [Fraction(p(i)) for i in range(p.degree + 1)]
    out = []
    kfact = 1
    k = 0
    while vals:
        out.append(vals[0] / kfact)
        vals = [b - a for a, b in zip(vals, vals[1:])]
        k += 1
        kfact *= k
    return out


def from_falling_basis(cs) -> Poly:
    """Rebuild sum c_k x(x-1)...(x-k+1) as an ordinary polynomial."""
    out = Poly()
    for k, c in enumerate(cs):
        if c != 0:
            out = out + c * stepped_product(k, 1, 0)
    return out

