"""Dense univariate polynomials over exact rationals, and the storage
layout they share with the series of :mod:`whitney.series`.

``_Pair`` is that layout, the one FLINT uses for ``fmpq_poly``: a tuple of
integer numerators over one positive denominator with no common factor,
reached by one gcd pass, ``_reduced``, after each operation.  Equal values
therefore have equal pairs, so ``==`` and ``hash`` read the pair, and
arithmetic computes on the integers and never rounds.  A view of the values
is built on first read.  ``Poly`` and ``Egf`` are the two pair types;
``_cleared`` puts a sequence of exact values in the layout.  Their base,
``_Exact``, is also that of :class:`whitney.grammar.XYPoly`: it makes the
values of the three exact algebras immutable, so safe to share, and holds
their one operator rule: ``+`` and ``-`` take a value of the same type,
``*`` that or an exact scalar, and anything else is ``NotImplemented``.

A ``Poly`` lists its numerators by ascending power of x, with no trailing
zero.  ``coeffs`` is its view, each coefficient canonical: an ``int`` when
integral, else a ``Fraction``; a tuple of ints is its own numerators, not a
copy.  ``_convolve`` is the integer product of ordinary coefficient
sequences under ``Poly`` and one of the two forms of the ``Egf`` product;
``lincomb``, the sum of scaled polynomials that the identity evaluators
and the derivative-series operators build their sides with, adds plain
ints read off each term's pair.
"""

from fractions import Fraction
from math import factorial, gcd, lcm
from numbers import Number

from .qformat import canonical, count, exact


def _reduced(nums, den):
    """nums / den with the common gcd divided out; den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _cleared(cs):
    """Integer numerators of the exact values cs over the lcm of their
    denominators, and that lcm; a sequence of ints is returned as it is,
    over 1.  The types are scanned once; a float or bool raises ValueError.

    The lcm of reduced denominators leaves no common factor, so the pair
    needs no gcd pass.
    """
    types = set(map(type, cs))
    if types <= {int}:
        return cs, 1
    if not types <= {int, Fraction}:
        cs = [exact(c) for c in cs]
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _convolve(a, b, n):
    """Coefficients 0..n of the product of two integer coefficient
    sequences; a missing coefficient reads as 0."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                out[j] += x * y
    return out


class _Exact:
    """Immutable values under one operator rule, as the module docstring sets
    out; a type supplies _plus(other, sign), _times(other) and _scaled(c)."""

    __slots__ = ()

    # not frozen dataclasses: hot constructors skip __init__; test_poly pins this message
    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other):
        if type(other) is type(self):
            return self._times(other)
        if not isinstance(other, Number):  # another algebra's value
            return NotImplemented
        return self._scaled(exact(other))

    __rmul__ = __mul__


class _Pair(_Exact):
    """Integer numerators `_n` over the denominator `_d`, in the layout the
    module docstring sets out, and `_v`, the view of the values, or None
    until it is built.  Equal only to a value of the same type."""

    __slots__ = ("_n", "_d", "_v")

    def _set(self, nums, den, view=None):
        object.__setattr__(self, "_n", nums)
        object.__setattr__(self, "_d", den)
        object.__setattr__(self, "_v", view)
        return self

    @classmethod
    def _of(cls, nums, den, view=None):
        """The value of a pair already canonical: a tuple of numerators
        over den > 0 with no common factor."""
        return object.__new__(cls)._set(nums, den, view)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._d == other._d and self._n == other._n
        return NotImplemented

    def __hash__(self):
        return hash((self._n, self._d))

    def __neg__(self):
        return self._of(tuple(-v for v in self._n), self._d)


def lincomb(terms) -> "Poly":
    """The polynomial sum of c * p over the (c, p) pairs of `terms`.

    Each p is a Poly, whose pair is read as it is.  The sum is kept as
    integer numerators over one running lcm of the terms' denominators,
    rescaled only when a term's denominator does not divide it, so the
    inner loop adds plain ints; the result is reduced once at the end.  A
    float or bool as c raises ValueError.
    """
    out, den = [], 1
    for c, p in terms:
        if not c:
            continue
        nums, d = p._n, p._d
        if type(c) is not int:
            c = exact(c)
            c, d = c.numerator, d * c.denominator
        if den % d:
            scale = d // gcd(den, d)
            out = [v * scale for v in out]
            den *= scale
        if den != d:
            c *= den // d
        if len(nums) > len(out):
            out.extend([0] * (len(nums) - len(out)))
        for i, a in enumerate(nums):
            out[i] += c * a
    return _make(out, den)


class Poly(_Pair):
    """Polynomial stored as integer numerators by ascending power of x over
    one positive denominator, as the module docstring sets out.

    No trailing zero is stored, so ``degree`` of the zero polynomial is -1.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        nums, d = _cleared(tuple(coeffs))
        if nums and not nums[-1]:
            nums = list(nums)
            while nums and not nums[-1]:
                nums.pop()
        self._set(tuple(nums), d)

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def coeffs(self) -> tuple:
        """The coefficients by ascending power, each an int when integral,
        else a Fraction; built on first read."""
        cs = self._v
        if cs is None:
            d = self._d
            cs = self._n if d == 1 else tuple(Fraction(v, d) if v % d else v // d for v in self._n)
            object.__setattr__(self, "_v", cs)
        return cs

    @property
    def degree(self) -> int:
        return len(self._n) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if count(i, "i") < len(self._n) else 0

    def __bool__(self) -> bool:
        return bool(self._n)

    def _plus(self, other, sign):
        return lincomb(((1, self), (sign, other)))

    def _times(self, other):
        return _make(_convolve(self._n, other._n, self.degree + other.degree),
                     self._d * other._d)

    def _scaled(self, c):
        return _make([c.numerator * v for v in self._n], self._d * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        out = Poly((1,))
        for _ in range(count(n, "exponent")):
            out = out * self
        return out

    def __call__(self, v):
        v, out = exact(v), 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def deriv(self) -> "Poly":
        return _make([i * v for i, v in enumerate(self._n)][1:], self._d)

    def shifted(self, a) -> "Poly":
        """p(x + a), by Horner's rule on x + a."""
        x_a, out = Poly((a, 1)), Poly()
        for c in reversed(self.coeffs):
            out = out * x_a + Poly((c,))
        return out

    def mul_xpow(self, j: int) -> "Poly":
        """x^j times the polynomial."""
        count(j, "j")
        if not self._n:
            return self
        return Poly._of((0,) * j + self._n, self._d)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)


def _make(nums, den) -> Poly:
    """The Poly of the numerators over den > 0, trailing zeros stripped and
    the common factor divided out by one gcd pass."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    nums, den = _reduced(nums, den)
    return Poly._of(tuple(nums), den)


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
    while vals:
        out.append(vals[0] / factorial(len(out)))
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return out


def from_falling_basis(cs) -> Poly:
    """Rebuild sum c_k x(x-1)...(x-k+1) as an ordinary polynomial."""
    return lincomb((c, stepped_product(k, 1, 0)) for k, c in enumerate(cs))

