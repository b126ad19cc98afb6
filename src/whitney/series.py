"""Truncated exponential generating functions over exact rationals.

An :class:`Egf` of order N stands for F(t) = sum_n a_n t^n / n! with exact
rational a_0..a_N.  It is a pair of :mod:`whitney.poly`: the EGF numerators
A_0..A_N over one denominator D, a_n = A_n / D.  :attr:`Egf.a`, its view,
holds the coefficients as plain Fractions, built on first read or handed
over ready-made by the recurrence that computed them; :meth:`Egf.coeff`
builds only the one coefficient asked for.  An operation on series of
different orders truncates to the smaller order, so precision loss is
always explicit in the result's ``order``.

Every product of two series, here and in :mod:`whitney.riordan`, goes
through ``_product``, which picks one of two forms per call from the
operands' sizes:

* the binomial sum c_n = sum C(n,k) A_k B_{n-k} on the EGF numerators,
  with binomials from one Pascal row, for series whose coefficients grow
  no faster than exponentially, such as e^{ct} and (e^{mt} - 1)/m;
* ``_convolve`` of :mod:`whitney.poly` on ordinary numerators, for series
  whose EGF coefficients grow like n!, such as ln(1 + mt) and
  (1 + mt)^q: each a_k / k! is reduced first, so the ordinary numerators
  over their lcm are far shorter than A_k times a binomial.

Both forms give the same exact product, and the choice costs a few bit
lengths.  A factor that recurs, a Riordan array's f or the inner series of
Horner's rule in :meth:`Egf.compose`, is an ``_Operand`` whose form is built
on first use and kept; a one-off product streams its rows.
:meth:`Egf.inv`, :meth:`Egf.exp` and :meth:`Egf.log` run one
lower-triangular recurrence, ``_triangular``, whose inner sums are plain
integers over one running denominator, with binomials read from one Pascal
row stepped per output; :meth:`Egf.inv` is the only reciprocal.

Reversion is implemented twice on purpose: :meth:`Egf.reverse` runs Newton
iteration through :meth:`Egf.compose`, at precisions ceil(n / 2^i) up to n,
and :meth:`Egf.reverse_lagrange` recomputes the inverse from the Lagrange
coefficient formula through :meth:`Egf.inv` and powers.  The two share
nothing but ``_product`` (and the canonical form every result is put in);
the second path exists solely to check the first.
"""

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from math import factorial, gcd, lcm, lgamma, log
from operator import add, mul

from .errors import BadConstantTerm, NotInvertible, OrderExceeded
from .poly import _Pair, _cleared, _convolve, _reduced
from .qformat import count, exact, rat_str


def _weighted_rows(B, n):
    """Rows i = 0..n, each an iterator read once, of the weights C(i,k)
    B_{i-k}, k = 0..i, so that the binomial sum's output i is sum_k A_k w_k;
    the binomials are one Pascal row, stepped by one pass of additions per row."""
    row = [1]
    for i in range(n + 1):
        yield map(mul, row, B[i::-1])
        row = list(map(add, row + [0], [0] + row))


def _ordinary_numerators(A, d, n):
    """Integers O_0..O_n and L with A_k / (d k!) = O_k / L, each ratio
    reduced before L, the lcm of their denominators, is taken."""
    nums, dens, f = [], [], 1
    for k in range(n + 1):
        if k:
            f *= k
        q = d * f
        g = gcd(A[k], q)
        nums.append(A[k] // g)
        dens.append(q // g)
    L = lcm(*dens)
    return [p * (L // q) for p, q in zip(nums, dens)], L


class _Operand:
    """B / db through order n (B holds n + 1 terms at least), a factor of
    repeated products: each form ``_product`` takes it in is kept once built."""

    def __init__(self, B, db, n):
        self.B, self.db, self.n = B, db, n

    @cached_property
    def rows(self):
        return [list(w) for w in _weighted_rows(self.B, self.n)]

    @cached_property
    def ordinary(self):
        return _ordinary_numerators(self.B, self.db, self.n)


def _product(A, da, B, db, n, prep=None):
    """EGF numerators and denominator, not yet reduced, of the product of
    A / da and B / db through order n; a missing coefficient reads as 0.
    `prep`, if given, is B / db as an ``_Operand`` through order n or more,
    kept across products with it; else B's rows are streamed.

    The form is picked by size.  The binomial sum multiplies A_k B_{n-k}
    by C(n,k), of up to n bits.  The ordinary form reduces each a_k / k!
    first: that takes about log2(k!) bits off a factor whose a_k grows
    like k!, but puts them on one that grows only exponentially.  So it
    pays off only when both operands grow like k!, that is when
    log2 max|a_k| + log2 max|b_k| exceeds 2 log2(n!); below order 30 the
    binomial sum, which takes no gcds, wins either way.
    """
    A = list(A[: n + 1]) + [0] * (n + 1 - len(A))
    B = list(B[: n + 1]) + [0] * (n + 1 - len(B))
    if n >= 30:
        grow = (max(map(int.bit_length, A)) - da.bit_length()
                + max(map(int.bit_length, B)) - db.bit_length())
        if grow > 2 * lgamma(n + 1) / log(2):
            oa, la = _ordinary_numerators(A, da, n)
            ob, lb = prep.ordinary if prep else _ordinary_numerators(B, db, n)
            out, f = _convolve(oa, ob, n), 1
            for i in range(1, n + 1):
                f *= i
                out[i] *= f
            return out, la * lb
    rows = prep.rows if prep else _weighted_rows(B, n)
    return [sum(map(mul, A, w)) for w in islice(rows, n + 1)], da * db


def _triangular(x, dx, u, du, d):
    """out_i = (x_i - sum_{j=1..i} C(i,j) u_j out_{i-j}) / d_i for each index of x.

    The one recurrence under inv, exp and log.  x and u are integer
    numerators over dx and du.  The outputs so far are kept as integer
    numerators over one running lcm, rescaled only when a new output's
    denominator does not divide it, so every inner sum is a plain int and
    each output is built as a single Fraction.  The binomials C(i, 0..i)
    are one Pascal row, stepped by one pass of additions per output.

    Returns the numerators, the lcm and the outputs as Fractions.  The lcm
    is that of the outputs' reduced denominators, so the pair is canonical.
    """
    n = len(x) - 1
    out, nums, den = [], [], 1  # out[k] == nums[k] / den
    live = []  # the j <= i with u_j != 0, so a sparse u such as 1 + ct costs little
    row = [1]  # C(i, 0..i)
    for i in range(n + 1):
        s = sum(row[j] * u[j] * nums[i - j] for j in live)
        c = Fraction((x[i] * du * den - s * dx) * d[i].denominator, dx * du * den * d[i].numerator)
        if den % c.denominator:
            scale = lcm(den, c.denominator) // den
            nums = [v * scale for v in nums]
            den *= scale
        nums.append(c.numerator * (den // c.denominator))
        out.append(c)
        if i < n and u[i + 1]:
            live.append(i + 1)
        row = list(map(add, row + [0], [0] + row))
    return nums, den, tuple(out)


class Egf(_Pair):
    """Exponential generating function truncated at a fixed order."""

    __slots__ = ()

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("an Egf needs at least its constant term")
        nums, d = _cleared(cs)
        self._set(tuple(nums), d, cs if {Fraction}.issuperset(map(type, cs)) else None)

    @classmethod
    def _make(cls, nums, den, a=None):
        """The Egf of the numerators over den > 0, reduced by one gcd pass;
        `a`, if given, is its coefficient tuple of plain Fractions."""
        nums, den = _reduced(nums, den)
        return cls._of(tuple(nums), den, a)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Egf":
        return cls._make([0] * (count(order, "order") + 1), 1)

    @classmethod
    def one(cls, order: int) -> "Egf":
        return cls._make([1] + [0] * count(order, "order"), 1)

    @classmethod
    def t(cls, order: int) -> "Egf":
        return cls._make([0, 1] + [0] * (count(order, "order", 1) - 1), 1)

    @classmethod
    def exp_linear(cls, c, order: int) -> "Egf":
        """e^{ct}: coefficient a_n = c^n, numerators p^n q^(N-n) over q^N for c = p/q."""
        c, order = exact(c), count(order, "order")
        p, q = c.numerator, c.denominator
        return cls._make([p ** n * q ** (order - n) for n in range(order + 1)], q ** order)

    # -- basics -------------------------------------------------------

    @property
    def a(self) -> tuple:
        """The coefficients a_0..a_N as plain Fractions, built on first read."""
        a = self._v
        if a is None:
            d = self._d
            a = tuple(Fraction(x, d) for x in self._n)
            object.__setattr__(self, "_v", a)
        return a

    @property
    def order(self) -> int:
        return len(self._n) - 1

    def coeff(self, n: int) -> Fraction:
        if count(n, "n") > self.order:
            raise OrderExceeded("coefficient %d beyond order %d" % (n, self.order))
        a = self._v
        return a[n] if a is not None else Fraction(self._n[n], self._d)

    def truncate(self, order: int) -> "Egf":
        if count(order, "order") > self.order:
            raise OrderExceeded("cannot extend order %d to %d" % (self.order, order))
        if order == self.order:
            return self
        a = self._v
        return Egf._make(self._n[: order + 1], self._d, a and a[: order + 1])

    def __repr__(self):
        return "Egf(%s)" % (", ".join(rat_str(c) for c in self.a))

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign):
        d = lcm(self._d, other._d)
        s, t = d // self._d, sign * (d // other._d)
        return Egf._make([x * s + y * t for x, y in zip(self._n, other._n)], d)

    def _times(self, other):
        return self.mul(other)

    def _scaled(self, c):
        return Egf._make([x * c.numerator for x in self._n], self._d * c.denominator)

    def mul(self, other: "Egf") -> "Egf":
        """Product of the underlying series, c_n = sum C(n,k) a_k b_{n-k}."""
        return Egf._make(*_product(self._n, self._d, other._n, other._d, min(self.order, other.order)))

    def inv(self) -> "Egf":
        """Reciprocal series; needs a nonzero constant term."""
        if not self._n[0]:
            raise NotInvertible("reciprocal needs a nonzero constant term")
        n = self.order
        a0 = Fraction(self._n[0], self._d)
        return Egf._make(*_triangular([1] + [0] * n, 1, self._n, self._d, [a0] * (n + 1)))

    def exp(self) -> "Egf":
        """exp of the series; the constant term must be 0.

        t E' = t F' E, so n e_n = sum_j C(n,j) (j a_j) e_{n-j}.
        """
        if self._n[0]:
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        slopes = [-j * x for j, x in enumerate(self._n)]
        return Egf._make(*_triangular([1] + [0] * n, 1, slopes, self._d, [1] + list(range(1, n + 1))))

    def log(self) -> "Egf":
        """log of the series; the constant term must be 1.

        L' solves F L' = F', and the derivative of an EGF is its shift.
        """
        if self._n[0] != self._d:
            raise BadConstantTerm("log needs constant term 1")
        nums, den, out = _triangular(self._n[1:], self._d, self._n, self._d, [1] * self.order)
        return Egf._make([0] + nums, den, (Fraction(0),) + out)

    def pow(self, q) -> "Egf":
        """(series)^q for rational q, via exp(q log); constant term must be 1."""
        if self._n[0] != self._d:
            raise BadConstantTerm("pow needs constant term 1")
        return (exact(q) * self.log()).exp()

    def compose(self, inner: "Egf") -> "Egf":
        """self(inner(t)); the inner series must have constant term 0.

        Horner, f_0 + G (f_1 + G (f_2 + ...)) with f_k = a_k / k!; G(0) = 0,
        so the value at depth k is multiplied by G^k and matters only
        through order n - k.
        """
        if inner._n[0]:
            raise BadConstantTerm("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        A, D, G = self._n, self._d, inner._n
        facts = list(accumulate(range(1, n + 1), mul, initial=1))
        prep = _Operand(G, inner._d, n)
        out, den = _reduced([A[n]], D * facts[n])
        for k in range(n - 1, -1, -1):
            out, pd = _product(out, den, G, inner._d, n - k, prep)
            q = D * facts[k]
            den = lcm(pd, q)
            out = [x * (den // pd) for x in out]
            out[0] += A[k] * (den // q)
            out, den = _reduced(out, den)
        return Egf._make(out, den)

    def shift_down(self) -> "Egf":
        """Divide by t; the constant term must be 0.  Order drops by one."""
        if self._n[0]:
            raise BadConstantTerm("division by t needs constant term 0")
        n = self.order
        if n < 1:
            raise OrderExceeded("nothing left after dividing by t")
        # coefficient i is a_{i+1} / (i + 1)
        L = lcm(*range(1, n + 1))
        return Egf._make([x * (L // i) for i, x in enumerate(self._n[1:], 1)], self._d * L)

    # -- reversion ----------------------------------------------------

    def _check_reversible(self):
        if self._n[0] or self.order < 1 or not self._n[1]:
            raise NotInvertible("reversion needs a(0) = 0 and a(1) != 0")

    def reverse(self) -> "Egf":
        """Compositional inverse by Newton iteration (Brent and Kung, 1978).

        If G is right through order p, the step G <- G - (F(G) - t) G' is
        right through order 2p: G' stands in for 1/F'(G), which it equals
        to within order p - 1, so no reciprocal is needed.  The EGF
        coefficients of G' are those of G shifted down by one.  Precisions
        run ceil(n / 2^i) up to n, so the last but one is about n/2.
        """
        self._check_reversible()
        n = self.order
        g = Egf((0, 1 / self.coeff(1)))
        for p in (-(-n >> i) for i in range((n - 1).bit_length() - 1, -1, -1)):
            g = Egf._make(g._n + (0,) * (p - g.order), g._d)
            err = self.truncate(p).compose(g)
            e = list(err._n)
            e[1] -= err._d  # F(G) - t
            step, sd = _product(e, err._d, g._n[1:], g._d, p)
            d = lcm(g._d, sd)
            g = Egf._make([x * (d // g._d) - y * (d // sd) for x, y in zip(g._n, step)], d)
        return g

    def reverse_lagrange(self) -> "Egf":
        """Compositional inverse from the Lagrange formula.

        Ordinary coefficient n of the inverse is (1/n) [t^{n-1}] (t/F)^n, so
        its EGF coefficient n is EGF coefficient n - 1 of (t/F)^n.
        Test oracle for :meth:`reverse`; same exactness, different route.
        """
        self._check_reversible()
        q = self.shift_down().inv()  # t/F
        out, power = [0], Egf.one(q.order)
        for n in range(1, self.order + 1):
            power = power.mul(q)
            out.append(power.coeff(n - 1))
        return Egf(out)


def expm1_scaled(m, order: int) -> Egf:
    """(e^{mt} - 1)/m: a_0 = 0 and a_n = m^{n-1} for n >= 1."""
    m = exact(m)
    return Egf([0] + [m ** (n - 1) for n in range(1, count(order, "order") + 1)])


def log1p_scaled(m, order: int) -> Egf:
    """ln(1 + mt)/m: a_n = (-1)^(n-1) m^(n-1) (n-1)! for n >= 1."""
    m, out = exact(m), [0]
    for n in range(1, count(order, "order") + 1):
        out.append((-m) ** (n - 1) * factorial(n - 1))
    return Egf(out)


def _binomial_scaled(m: int, r, order: int) -> Egf:
    """(1 + mt)^(-r/m) from its EGF coefficients g_n = (-r)(-r-m)...(-r-(n-1)m),
    not as a series power: for r = p/q, q^n g_n is the integer (-p)(-p-mq)...
    (-p-(n-1)mq), so g is those integers times q^(N-n) over q^N at order N.
    Its callers gate m and the order, in that order, before r is gated here."""
    r = exact(r)
    p, q = r.numerator, r.denominator
    nums = accumulate((-p - i * m * q for i in range(order)), mul, initial=1)
    return Egf._make([x * q ** (order - n) for n, x in enumerate(nums)], q ** order)
