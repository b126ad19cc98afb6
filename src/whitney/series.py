"""Truncated exponential generating functions over exact rationals.

An :class:`Egf` of order N stores coefficients a_0..a_N of the series
F(t) = sum_n a_n t^n / n!.  Every operation is exact; an operation on
series of different orders truncates to the smaller order, so precision
loss is always explicit in the result's ``order``.

Every product of two series, here and in :mod:`whitney.riordan`, goes
through the one convolution kernel ``_convolve`` in :mod:`whitney.poly`,
on ordinary coefficients; the kernel has its own oracle test.
:meth:`Egf.inv`, :meth:`Egf.exp` and :meth:`Egf.log` run one lower-triangular
recurrence, ``_triangular``, whose inner sums are plain integers over one
running denominator, with binomials read from one Pascal row stepped per
output; :meth:`Egf.inv` is the only reciprocal.
:meth:`Egf.compose` runs ``_ord_compose``.

Reversion is implemented twice on purpose: :meth:`Egf.reverse` runs Newton
iteration, doubling its precision each round, and :meth:`Egf.reverse_lagrange`
recomputes the inverse from the Lagrange coefficient formula.  The two share
nothing but ``_convolve``; the second path exists solely to check the first.
"""

import json
from fractions import Fraction
from math import factorial, lcm

from .errors import BadConstantTerm, NotInvertible, OrderExceeded
from .poly import _convolve
from .qformat import count, exact, parse_rat, rat_str


def _ord_compose(f, g, n):
    # Horner, f_0 + g (f_1 + g (f_2 + ...)); g[0] must be 0, so the value
    # at depth k is multiplied by g^k and matters only through order n - k
    top = min(len(f) - 1, n)
    out = [Fraction(f[top])]
    for k in range(top - 1, -1, -1):
        out = _convolve(out, g, n - k)
        out[0] += f[k]
    return out + [Fraction(0)] * (n + 1 - len(out))


def _triangular(x, u, d):
    """out_i = (x_i - sum_{j=1..i} C(i,j) u_j out_{i-j}) / d_i for each index of x.

    The one recurrence under inv, exp and log.  x and u are cleared of
    their denominators once; the outputs so far are kept as integer
    numerators over one running lcm, rescaled only when a new output's
    denominator does not divide it, so every inner sum is a plain int and
    each output is built as a single Fraction.  The binomials C(i, 0..i)
    are one Pascal row, stepped by one pass of additions per output.
    """
    n = len(x) - 1
    u = u[: n + 1]
    du, dx = lcm(*(c.denominator for c in u)), lcm(*(c.denominator for c in x))
    iu = [c.numerator * (du // c.denominator) for c in u]
    ix = [c.numerator * (dx // c.denominator) for c in x]
    out, nums, den = [], [], 1  # out[k] == nums[k] / den
    live = []  # the j <= i with u_j != 0, so a sparse u such as 1 + ct costs little
    row = [1]  # C(i, 0..i)
    for i in range(n + 1):
        s = sum(row[j] * iu[j] * nums[i - j] for j in live)
        c = Fraction((ix[i] * du * den - s * dx) * d[i].denominator, dx * du * den * d[i].numerator)
        if den % c.denominator:
            scale = lcm(den, c.denominator) // den
            nums = [v * scale for v in nums]
            den *= scale
        nums.append(c.numerator * (den // c.denominator))
        out.append(c)
        if i < n and iu[i + 1]:
            live.append(i + 1)
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    return out


class Egf:
    """Exponential generating function truncated at a fixed order."""

    __slots__ = ("a",)

    def __init__(self, coeffs):
        a = tuple(c if type(c) is Fraction else Fraction(exact(c)) for c in coeffs)
        if not a:
            raise ValueError("an Egf needs at least its constant term")
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Egf is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Egf":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Egf":
        return cls([1] + [0] * order)

    @classmethod
    def t(cls, order: int) -> "Egf":
        if order < 1:
            raise ValueError("order must be at least 1")
        return cls([0, 1] + [0] * (order - 1))

    @classmethod
    def exp_linear(cls, c, order: int) -> "Egf":
        """e^{ct}: coefficient a_n = c^n."""
        c, out = exact(c), [Fraction(1)]
        for _ in range(order):
            out.append(out[-1] * c)
        return cls(out)

    @classmethod
    def one_plus_ct(cls, c, order: int) -> "Egf":
        return cls([1, exact(c)][: order + 1] + [0] * (order - 1))

    @classmethod
    def from_ordinary(cls, coeffs) -> "Egf":
        return cls(c * factorial(i) for i, c in enumerate(coeffs))

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def coeff(self, n: int) -> Fraction:
        if n > self.order:
            raise OrderExceeded("coefficient %d beyond order %d" % (n, self.order))
        return self.a[n]

    def ordinary(self) -> tuple:
        return tuple(c / factorial(i) for i, c in enumerate(self.a))

    def truncate(self, order: int) -> "Egf":
        if order > self.order:
            raise OrderExceeded("cannot extend order %d to %d" % (self.order, order))
        return Egf(self.a[: order + 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, Egf):
            return self.a == other.a
        return NotImplemented

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return "Egf(%s)" % (", ".join(rat_str(c) for c in self.a))

    # -- ring operations ----------------------------------------------

    def _common(self, other):
        n = min(self.order, other.order)
        return n, self.a, other.a

    def __add__(self, other: "Egf") -> "Egf":
        n, a, b = self._common(other)
        return Egf(a[i] + b[i] for i in range(n + 1))

    def __sub__(self, other: "Egf") -> "Egf":
        n, a, b = self._common(other)
        return Egf(a[i] - b[i] for i in range(n + 1))

    def __neg__(self) -> "Egf":
        return Egf(-c for c in self.a)

    def __mul__(self, other):
        if isinstance(other, Egf):
            return self.mul(other)
        return Egf(c * other for c in self.a)

    __rmul__ = __mul__

    def mul(self, other: "Egf") -> "Egf":
        """Product of the underlying series: c_n = sum C(n,k) a_k b_{n-k}."""
        n = min(self.order, other.order)
        return Egf.from_ordinary(_convolve(self.ordinary(), other.ordinary(), n))

    def inv(self) -> "Egf":
        """Reciprocal series; needs a nonzero constant term."""
        if self.a[0] == 0:
            raise NotInvertible("reciprocal needs a nonzero constant term")
        n = self.order
        return Egf(_triangular([1] + [0] * n, self.a, [self.a[0]] * (n + 1)))

    def exp(self) -> "Egf":
        """exp of the series; the constant term must be 0.

        t E' = t F' E, so n e_n = sum_j C(n,j) (j a_j) e_{n-j}.
        """
        if self.a[0] != 0:
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        slopes = [-j * c for j, c in enumerate(self.a)]
        return Egf(_triangular([1] + [0] * n, slopes, [1] + list(range(1, n + 1))))

    def log(self) -> "Egf":
        """log of the series; the constant term must be 1.

        L' solves F L' = F', and the derivative of an EGF is its shift.
        """
        if self.a[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        return Egf([0] + _triangular(self.a[1:], self.a, [1] * n))

    def pow(self, q) -> "Egf":
        """(series)^q for rational q, via exp(q log); constant term must be 1."""
        if self.a[0] != 1:
            raise BadConstantTerm("pow needs constant term 1")
        return (Fraction(exact(q)) * self.log()).exp()

    def compose(self, inner: "Egf") -> "Egf":
        """self(inner(t)); the inner series must have constant term 0."""
        if inner.a[0] != 0:
            raise BadConstantTerm("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        return Egf.from_ordinary(_ord_compose(self.ordinary(), inner.ordinary(), n))

    def shift_down(self) -> "Egf":
        """Divide by t; the constant term must be 0.  Order drops by one."""
        if self.a[0] != 0:
            raise BadConstantTerm("division by t needs constant term 0")
        if self.order < 1:
            raise OrderExceeded("nothing left after dividing by t")
        return Egf(self.a[i + 1] / (i + 1) for i in range(self.order))

    # -- reversion ----------------------------------------------------

    def _check_reversible(self):
        if self.a[0] != 0 or self.order < 1 or self.a[1] == 0:
            raise NotInvertible("reversion needs a(0) = 0 and a(1) != 0")

    def reverse(self) -> "Egf":
        """Compositional inverse by Newton iteration (Brent and Kung, 1978).

        If G is right through order p, the step G <- G - (F(G) - t) G' is
        right through order 2p: G' stands in for 1/F'(G), which it equals
        to within order p - 1, so no reciprocal is needed.
        """
        self._check_reversible()
        n = self.order
        f = self.ordinary()
        g, p = [Fraction(0), 1 / f[1]], 1
        while p < n:
            p = min(2 * p, n)
            g += [Fraction(0)] * (p + 1 - len(g))
            err = _ord_compose(f, g, p)
            err[1] -= 1
            step = _convolve(err, [(i + 1) * g[i + 1] for i in range(p)], p)
            g = [gi - si for gi, si in zip(g, step)]
        return Egf.from_ordinary(g)

    def reverse_lagrange(self) -> "Egf":
        """Compositional inverse from the Lagrange formula.

        Ordinary coefficient n of the inverse is (1/n) [t^{n-1}] (t/F)^n.
        Test oracle for :meth:`reverse`; same exactness, different route.
        """
        self._check_reversible()
        n_max = self.order
        f = self.ordinary()
        q = Egf.from_ordinary(f[1:]).inv().ordinary()  # t/F
        out = [Fraction(0)] * (n_max + 1)
        power = [Fraction(1)] + [Fraction(0)] * (n_max - 1)
        for n in range(1, n_max + 1):
            power = _convolve(power, q, n_max - 1)
            out[n] = power[n - 1] / n
        return Egf.from_ordinary(out)

    # -- serialization ------------------------------------------------

    def to_csv(self) -> str:
        return ",".join(rat_str(c) for c in self.a) + "\n"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "egf_coeffs": [rat_str(c) for c in self.a]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Egf":
        data = json.loads(text)
        coeffs = [parse_rat(s) for s in data["egf_coeffs"]]
        if len(coeffs) != data["order"] + 1:
            raise ValueError("order field disagrees with coefficient count")
        return cls(coeffs)


def _first_kind_base(m, r, order: int) -> Egf:
    """(1 + mt)^{-r/m}, the column-0 series of the first-kind triangle."""
    count(m, "m", 1)
    return Egf.one_plus_ct(m, order).pow(Fraction(-exact(r), m))


def expm1_scaled(m, order: int) -> Egf:
    """(e^{mt} - 1)/m: a_0 = 0 and a_n = m^{n-1} for n >= 1."""
    m, out = exact(m), [Fraction(0)]
    if order >= 1:
        out.append(Fraction(1))
        for _ in range(order - 1):
            out.append(out[-1] * m)
    return Egf(out)


def log1p_scaled(m, order: int) -> Egf:
    """ln(1 + mt)/m: a_n = (-1)^(n-1) m^(n-1) (n-1)! for n >= 1."""
    m, out = exact(m), [Fraction(0)]
    sign = 1
    for n in range(1, order + 1):
        out.append(Fraction(sign * m ** (n - 1) * factorial(n - 1)))
        sign = -sign
    return Egf(out)
