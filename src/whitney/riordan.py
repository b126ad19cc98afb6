"""Exponential Riordan arrays, their group operations, and row recurrences.

:class:`ExpRiordan` is the exponential array <g, f> with entries
(n!/k!) [t^n] g f^k.  Its A-sequence, returned by
:meth:`ExpRiordan.a_sequence`, consists of the EGF coefficients of
t / fbar(t), fbar the compositional inverse of f.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import qformat
from .errors import NotInvertible, OrderExceeded
from .poly import Poly
from .series import Egf, _Operand, _binomial_scaled, _product, expm1_scaled, log1p_scaled


@dataclass(frozen=True, slots=True, eq=False)
class ExpRiordan:
    """Exponential Riordan array <g, f>; g(0) != 0, f(0) = 0, f'(0) != 0."""

    g: Egf
    f: Egf
    _cols: dict = field(init=False, repr=False)
    _fp: _Operand = field(init=False, repr=False)  # f as every column step's factor

    def __post_init__(self):
        order = min(self.g.order, self.f.order)
        g = self.g.truncate(order)
        f = self.f.truncate(order)
        if g.coeff(0) == 0:
            raise NotInvertible("g must not vanish at 0")
        if f.coeff(0) != 0:
            raise NotInvertible("f must vanish at 0")
        if order < 1 or f.coeff(1) == 0:
            raise NotInvertible("f must have a nonzero linear term")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_cols", {0: g})
        object.__setattr__(self, "_fp", _Operand(f._n, f._d, order))

    @property
    def order(self) -> int:
        return self.g.order

    def _col(self, k: int) -> Egf:
        # column k stores g f^k / k!: column k - 1 times f, with k multiplied
        # into the denominator, built in turn, so no index recurses; the
        # cache is idempotent, so a racing reader at worst recomputes
        cols, f = self._cols, self.f
        for j in range(len(cols), k + 1):
            nums, den = _product(cols[j - 1]._n, cols[j - 1]._d, f._n, f._d, self.order, self._fp)
            cols[j] = Egf._make(nums, den * j)
        return cols[k]

    def _direct(self, k: int) -> Egf:
        """Column k >= 1 read off g phi^k, phi = f / t = f_1 (phi / f_1) at
        order N - k: entry (n, k) is C(n, k) times its coefficient n - k."""
        phi = self.f.shift_down().truncate(self.order - k)
        f1 = phi.coeff(0)
        s = self.g.mul((phi * (1 / f1)).pow(k)) * f1 ** k
        return Egf._make([0] * k + [comb(n, k) * x for n, x in enumerate(s._n, k)], s._d)

    def column(self, k: int) -> Egf:
        """Column k as a series: its EGF coefficient n is entry (n, k).  With
        more than six columns up to it not yet built, it is read off g phi^k,
        which costs about five to ten steps, and not kept; entry and rows step."""
        if qformat.count(k, "k") > self.order:
            raise OrderExceeded("column %d beyond order %d" % (k, self.order))
        return self._direct(k) if k - len(self._cols) >= 6 else self._col(k)

    def entry(self, n: int, k: int) -> Fraction:
        if qformat.count(n, "n") > self.order or qformat.count(k, "k") > self.order:
            raise OrderExceeded("entry (%d,%d) beyond order %d" % (n, k, self.order))
        if k > n:
            return Fraction(0)
        return self._col(k).coeff(n)

    def rows(self, n: int = None) -> list:
        n = self.order if n is None else qformat.count(n, "n")
        if n > self.order:
            raise OrderExceeded("row %d beyond order %d" % (n, self.order))
        cols = [self._col(k) for k in range(n + 1)]
        return [[Fraction(col._n[i], col._d) for col in cols[: i + 1]] for i in range(n + 1)]

    def mul(self, other: "ExpRiordan") -> "ExpRiordan":
        """Group product: <g1, f1> * <g2, f2> = <g1 (g2 o f1), f2 o f1>."""
        return ExpRiordan(self.g.mul(other.g.compose(self.f)), other.f.compose(self.f))

    def inverse(self) -> "ExpRiordan":
        """Group inverse <1/(g o fbar), fbar>."""
        fbar = self.f.reverse()
        return ExpRiordan(self.g.compose(fbar).inv(), fbar)

    def a_sequence(self, j_max: int = None) -> list:
        """EGF coefficients 0..j_max of t / fbar(t)."""
        fbar = self.f.reverse()
        a = fbar.shift_down().inv()  # t/fbar, order drops by one
        if j_max is None:
            j_max = a.order
        if qformat.count(j_max, "j_max") > a.order:
            raise OrderExceeded("A-sequence available only through index %d" % a.order)
        return list(a.a[: j_max + 1])

    def __eq__(self, other):
        if isinstance(other, ExpRiordan):
            n = min(self.order, other.order)
            return (self.g.truncate(n) == other.g.truncate(n)
                    and self.f.truncate(n) == other.f.truncate(n))
        return NotImplemented


def identity_array(order: int) -> ExpRiordan:
    return ExpRiordan(Egf.one(order), Egf.t(order))


def whitney2_array(m: int, r, order: int) -> ExpRiordan:
    """<e^{rt}, (e^{mt} - 1)/m>: the second-kind triangle as a Riordan array."""
    qformat.count(m, "m", 1)
    return ExpRiordan(Egf.exp_linear(r, order), expm1_scaled(m, order))


def _dowling_egf(m: int, r, u, order: int) -> Egf:
    """exp(rt + u(e^{mt} - 1)/m): its EGF coefficient n is D_n(u)."""
    return (Egf([0, r] + [0] * (order - 1)) + u * expm1_scaled(m, order)).exp()


def whitney1_array(m: int, r, order: int) -> ExpRiordan:
    """<(1+mt)^{-r/m}, ln(1+mt)/m>: the first-kind triangle; its (g, f) is
    also the Sheffer pair of the Dowling family."""
    qformat.count(m, "m", 1)
    qformat.count(order, "order")
    return ExpRiordan(_binomial_scaled(m, r, order), log1p_scaled(m, order))


def sheffer_polys(g: Egf, f: Egf, count: int) -> list:
    """First ``count``+1 members of the family attached to the pair (g, f).

    The family with generating function e^{x fbar(t)} / g(fbar(t)) has the
    inverse array <g, f>^{-1} as its coefficient matrix.
    """
    qformat.count(count, "count")  # the parameter shadows the gate's name
    return [Poly(row) for row in ExpRiordan(g, f).inverse().rows(count)]


def _connection_arrays(source, l):
    """The function that gives, for a target series h, the array of
    :func:`connection_constants` from ``source`` to the target pair (h, l).

    The target delta series l is shared, so lbar = reverse(l) and the
    source's g(lbar) and f(lbar) are built once for every h.
    """
    g, f = source
    lbar = l.reverse()
    num, inner = g.compose(lbar), f.compose(lbar)
    return lambda h: ExpRiordan(num.mul(h.compose(lbar).inv()), inner)


def connection_constants(source, target) -> ExpRiordan:
    """Array a with target_n(x) = sum_k a(n,k) source_k(x).

    ``source`` and ``target`` are (g, f) pairs of Egf describing the two
    families as in :func:`sheffer_polys`.  The array is
    <g(lbar)/h(lbar), f(lbar)> for target pair (h, l), lbar = reverse(l).
    """
    h, l = target
    return _connection_arrays(source, l)(h)
