"""Exponential Riordan arrays, their group operations, and row recurrences.

Conventions (kept strictly apart):

* :class:`ExpRiordan` is the exponential array <g, f> with entries
  (n!/k!) [t^n] g f^k.  Its A-sequence, returned by
  :meth:`ExpRiordan.a_sequence`, consists of the EGF coefficients of
  t / fbar(t), fbar the compositional inverse of f.
* :class:`OrdRiordan` is the ordinary array (g, f) with entries
  [z^n] g f^k, its columns kept as integer numerators over one
  denominator.  Its Z-sequence, ordinary-normalized, characterizes column
  0 through d(n+1,0) = sum_j z_j d(n,j) and solves
  g = g(0) / (1 - z Z(f)).

Mixing the two normalizations is a type error at this API: each sequence
is only defined on its own array class.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import qformat
from .errors import NotInvertible, NotSolvable, OrderExceeded
from .poly import Poly, _cleared, _convolve
from .qformat import exact, rat_str
from .series import Egf, expm1_scaled, log1p_scaled


class ExpRiordan:
    """Exponential Riordan array <g, f>; g(0) != 0, f(0) = 0, f'(0) != 0."""

    __slots__ = ("g", "f", "_cols")

    def __init__(self, g: Egf, f: Egf):
        order = min(g.order, f.order)
        g = g.truncate(order)
        f = f.truncate(order)
        if g.coeff(0) == 0:
            raise NotInvertible("g must not vanish at 0")
        if f.coeff(0) != 0:
            raise NotInvertible("f must vanish at 0")
        if order < 1 or f.coeff(1) == 0:
            raise NotInvertible("f must have a nonzero linear term")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_cols", {0: g})

    def __setattr__(self, name, value):
        raise AttributeError("ExpRiordan is immutable")

    @property
    def order(self) -> int:
        return self.g.order

    def _col(self, k: int) -> Egf:
        # column k stores g f^k / k!: column k - 1 times f, with k multiplied
        # into the denominator, built in turn, so no index recurses; the
        # cache is idempotent, so a racing reader at worst recomputes
        cols = self._cols
        for j in range(len(cols), k + 1):
            cols[j] = cols[j - 1].mul(self.f, j)
        return cols[k]

    def column(self, k: int) -> Egf:
        """Column k as a series: its EGF coefficient n is entry (n, k)."""
        if qformat.count(k, "k") > self.order:
            raise OrderExceeded("column %d beyond order %d" % (k, self.order))
        return self._col(k)

    def entry(self, n: int, k: int) -> Fraction:
        if qformat.count(k, "k") > self.order or n > self.order:
            raise OrderExceeded("entry (%d,%d) beyond order %d" % (n, k, self.order))
        if k > n:
            return Fraction(0)
        return self._col(k).coeff(n)

    def rows(self, n: int = None) -> list:
        if n is None:
            n = self.order
        return [[self.entry(i, k) for k in range(i + 1)] for i in range(n + 1)]

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

    def to_ordinary(self) -> "OrdRiordan":
        """Reinterpret g and f as ordinary generating functions."""
        return OrdRiordan(self.g.ordinary(), self.f.ordinary())

    def to_csv(self, n: int = None) -> str:
        rows = self.rows(n)
        return "\n".join(",".join(rat_str(v) for v in row) for row in rows) + "\n"

    def to_json_dict(self, n: int = None) -> dict:
        rows = self.rows(n)
        return {
            "order": len(rows) - 1,
            "rows": [[rat_str(v) for v in row] for row in rows],
        }

    def to_json(self, n: int = None) -> str:
        return json.dumps(self.to_json_dict(n))

    def __eq__(self, other):
        if isinstance(other, ExpRiordan):
            n = min(self.order, other.order)
            return self.g.truncate(n) == other.g.truncate(n) and self.f.truncate(
                n
            ) == other.f.truncate(n)
        return NotImplemented

    def __repr__(self):
        return "ExpRiordan(g=%r, f=%r)" % (self.g, self.f)


class OrdRiordan:
    """Ordinary Riordan array (g, f) with entries [z^n] g f^k."""

    __slots__ = ("g", "f", "_f", "_cols")

    def __init__(self, g, f):
        g = tuple(Fraction(exact(c)) for c in g)
        f = tuple(Fraction(exact(c)) for c in f)
        if not g or not f:
            raise ValueError("empty coefficient sequence")
        if f[0] != 0:
            raise NotInvertible("f must vanish at 0")
        n = min(len(g), len(f))
        object.__setattr__(self, "g", g[:n])
        object.__setattr__(self, "f", f[:n])
        # f, and column k = g f^k for each k built so far, as integer
        # numerators over one denominator
        object.__setattr__(self, "_f", _cleared(f[:n]))
        object.__setattr__(self, "_cols", {0: _cleared(g[:n])})

    def __setattr__(self, name, value):
        raise AttributeError("OrdRiordan is immutable")

    @property
    def order(self) -> int:
        return len(self.g) - 1

    def _col(self, k: int) -> tuple:
        # column k is column k - 1 times f, built in turn as in ExpRiordan
        cols, (fn, fd) = self._cols, self._f
        for j in range(len(cols), k + 1):
            nums, d = cols[j - 1]
            cols[j] = _convolve(nums, fn, self.order), d * fd
        return cols[k]

    def entry(self, n: int, k: int) -> Fraction:
        if qformat.count(k, "k") > self.order or n > self.order:
            raise OrderExceeded("entry (%d,%d) beyond order %d" % (n, k, self.order))
        if k > n:
            return Fraction(0)
        nums, d = self._col(k)
        return Fraction(nums[n], d)

    def z_sequence(self, j_max: int = None) -> list:
        """Ordinary coefficients of the Z-sequence solving g = g(0)/(1 - z Z(f)).

        Needs g(0) != 0; f must be reversible.  The column-0 recurrence
        d(n+1,0) = sum_j z_j d(n,j) then holds for the ordinary entries.
        """
        if self.g[0] == 0:
            raise NotSolvable("Z-sequence needs g(0) != 0")
        if len(self.f) < 2 or self.f[1] == 0:
            raise NotInvertible("f must have a nonzero linear term")
        n = self.order
        if n < 1:
            raise OrderExceeded("array truncated too low for a Z-sequence")
        inv_g = Egf.from_ordinary(self.g).inv().ordinary()
        w = [-self.g[0] * c for c in inv_g]
        w[0] += 1  # w = 1 - g(0)/g, vanishes at 0
        hz = w[1:]  # (1 - g(0)/g) / z
        fbar = Egf.from_ordinary(self.f).reverse()
        z = Egf.from_ordinary(hz).compose(fbar).ordinary()
        if j_max is None:
            j_max = n - 1
        if qformat.count(j_max, "j_max") > n - 1:
            raise OrderExceeded("Z-sequence available only through index %d" % (n - 1))
        return list(z[: j_max + 1])


@dataclass(frozen=True)
class SeqAZ:
    """The two row-recurrence sequences of one array, conventions labeled.

    ``a`` is EGF-normalized and belongs to the exponential array; ``z`` is
    ordinary-normalized and belongs to the ordinary reinterpretation of
    the same (g, f).  a[0] is never zero.
    """

    a: tuple
    z: tuple

    def __post_init__(self):
        if not self.a or self.a[0] == 0:
            raise NotInvertible("an A-sequence starts with a nonzero term")


def seq_az(array: ExpRiordan, j_max: int = None) -> SeqAZ:
    """Both characteristic sequences of an exponential array."""
    if j_max is None:
        j_max = array.order - 1
    return SeqAZ(
        tuple(array.a_sequence(j_max)),
        tuple(array.to_ordinary().z_sequence(j_max)),
    )


def identity_array(order: int) -> ExpRiordan:
    return ExpRiordan(Egf.one(order), Egf.t(order))


def whitney2_array(m: int, r, order: int) -> ExpRiordan:
    """<e^{rt}, (e^{mt} - 1)/m>: the second-kind triangle as a Riordan array."""
    qformat.count(m, "m", 1)
    return ExpRiordan(Egf.exp_linear(r, order), expm1_scaled(m, order))


def whitney1_array(m: int, r, order: int) -> ExpRiordan:
    """<(1+mt)^{-r/m}, ln(1+mt)/m>: the first-kind triangle; its (g, f) is
    also the Sheffer pair of the Dowling family."""
    qformat.count(m, "m", 1)
    g = Egf.one_plus_ct(m, order).pow(Fraction(-exact(r), m))
    return ExpRiordan(g, log1p_scaled(m, order))


def sheffer_polys(g: Egf, f: Egf, count: int) -> list:
    """First ``count``+1 members of the family attached to the pair (g, f).

    The family with generating function e^{x fbar(t)} / g(fbar(t)) has the
    inverse array <g, f>^{-1} as its coefficient matrix.
    """
    qformat.count(count, "count")  # the parameter shadows the gate's name
    inv = ExpRiordan(g, f).inverse()
    if count > inv.order:
        raise OrderExceeded("pair truncated below the requested count")
    return [Poly([inv.entry(n, k) for k in range(n + 1)]) for n in range(count + 1)]


def connection_constants(source, target) -> ExpRiordan:
    """Array a with target_n(x) = sum_k a(n,k) source_k(x).

    ``source`` and ``target`` are (g, f) pairs of Egf describing the two
    families as in :func:`sheffer_polys`.  The array is
    <g(lbar)/h(lbar), f(lbar)> for target pair (h, l), lbar = reverse(l).
    """
    g, f = source
    h, l = target
    lbar = l.reverse()
    num = g.compose(lbar)
    den = h.compose(lbar)
    return ExpRiordan(num.mul(den.inv()), f.compose(lbar))
