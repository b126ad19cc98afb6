"""Number triangles, polynomial families, and the classical sequences they use.

Triangle rows
    whitney2_row    W(n,k):  W(n,k) = W(n-1,k-1) + (km+r) W(n-1,k)
    whitney1_row    w(n,k) = w(n-1,k-1) - (r+m(n-1)) w(n-1,k): row n holds the
                    coefficients of (x-r)(x-r-m)...(x-r-(n-1)m), and column k
                    has the series (1+mz)^(-r/m) ln^k(1+mz) / (m^k k!), which
                    whitney1_row_egf reads independently
    m_stirling2_row S(n,k) = S(n-1,k-1) + km S(n-1,k)   (= whitney2 at r=0)
    m_stirling1_row coefficients of x(x-m)...(x-(n-1)m)   (= whitney1 at r=0)

Polynomial families (by kind string)
    "touchard"          sum_k S(n,k) x^k
    "touchard-inverse"  x(x-m)...(x-(n-1)m)
    "dowling"           sum_k W(n,k) x^k
    "dowling-inverse"   (x-r)(x-r-m)...(x-r-(n-1)m)
    "bernoulli"         EGF t e^{xt}/(e^t - 1)
    "euler"             EGF 2 e^{xt}/(e^t + 1)

The parameter r is accepted as an arbitrary exact rational everywhere the
algebra allows it; only the enumeration oracles require an integer.
One table, ``_KINDS``, says which rows each triangle and family kind reads
and at which r; ``build_triangle`` and ``family`` both dispatch through it.
The family polynomials that the identity checks sum with are built once
each, beside the row store, up to the degree asked for.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .errors import WhitneyError
from .poly import Poly, _cleared, _make
from .qformat import canonical, count
from .riordan import whitney1_array, whitney2_array
from .series import Egf

TRIANGLE_KINDS = ("whitney2", "whitney1", "mstirling2", "mstirling1")
FAMILY_KINDS = (
    "touchard",
    "touchard-inverse",
    "dowling",
    "dowling-inverse",
    "bernoulli",
    "euler",
)
SEQUENCE_KINDS = ("bernoulli-numbers", "euler-zero-values", "cauchy1", "bell")
# kind -> (the row store it reads, or for an Appell kind the sequence of
# its numbers; whether it reads r, the others reading r = 0)
_KINDS = {
    "whitney2": ("whitney2", True), "dowling": ("whitney2", True),
    "mstirling2": ("whitney2", False), "touchard": ("whitney2", False),
    "whitney1": ("whitney1", True), "dowling-inverse": ("whitney1", True),
    "mstirling1": ("whitney1", False), "touchard-inverse": ("whitney1", False),
    "bernoulli": ("bernoulli-numbers", False), "euler": ("euler-zero-values", False),
}


# -- the row store ----------------------------------------------------
# Rows of W and w for every (m, r) seen so far, as immutable tuples.  Row
# n is built from row n-1 by the kind's step rule, so a row of any size
# needs no recursion; rows are appended, never rebuilt.


def _step_whitney2(m, r, n, prev):
    """Row n of W from row n-1: W(n,k) = W(n-1,k-1) + (km+r) W(n-1,k)."""
    return tuple(
        (prev[k - 1] if k else 0) + (k * m + r) * prev[k] for k in range(n)
    ) + prev[-1:]


def _step_whitney1(m, r, n, prev):
    """Row n of w from row n-1: w(n,k) = w(n-1,k-1) - (r+m(n-1)) w(n-1,k)."""
    fac = r + m * (n - 1)
    return tuple((prev[k - 1] if k else 0) - fac * prev[k] for k in range(n)) + prev[-1:]


_STEPS = {"whitney2": _step_whitney2, "whitney1": _step_whitney1}
_ROWS = {}  # (kind, m, r) -> [row 0, row 1, ...]
# (kind, m, r) -> [the Poly of row 0, of row 1, ...], grown only as far as
# a Poly is asked for; "bernoulli" and "euler" -> [P_0, P_1, ...]
_POLYS = {}


def _rows(kind, m, r, n):
    """The stored rows of `kind` at (m, r), grown until row n is among them."""
    count(m, "m", 1)
    # a bool or float r would compare equal to, and so share or poison, an
    # exact entry; an integral Fraction r is keyed and stepped as an int
    r = canonical(r)
    rows = _ROWS.setdefault((kind, m, r), [(1,)])
    step = _STEPS[kind]
    while len(rows) <= n:
        rows.append(step(m, r, len(rows), rows[-1]))
    return rows


def _polys(kind, m, r, n):
    """The row polynomials of `kind` at (m, r), built once each, until the
    one of row n is among them; an all-int row is its Poly's numerators."""
    polys = _POLYS.setdefault((kind, count(m, "m", 1), canonical(r)), [])
    if len(polys) <= count(n, "n"):
        polys.extend(Poly(row) for row in _rows(kind, m, r, n)[len(polys): n + 1])
    return polys


# -- second kind ------------------------------------------------------


def whitney2_row(m: int, r, n: int) -> list:
    return list(_rows("whitney2", m, r, count(n, "n"))[n])


def whitney2_row_egf(m: int, r, n: int) -> list:
    """Row n extracted from the column series e^{rz} ((e^{mz}-1)/m)^k / k!."""
    arr = whitney2_array(m, r, max(count(n, "n"), 1))  # an array needs order 1
    return [arr.entry(n, k) for k in range(n + 1)]


# -- first kind -------------------------------------------------------


def whitney1_row(m: int, r, n: int) -> list:
    return list(_rows("whitney1", m, r, count(n, "n"))[n])


def whitney1_row_egf(m: int, r, n: int) -> list:
    """Row n straight from the defining column series, as for the second kind."""
    arr = whitney1_array(m, r, max(count(n, "n"), 1))
    return [arr.entry(n, k) for k in range(n + 1)]


# -- r = 0 specializations ---------------------------------------------


def m_stirling2_row(m: int, n: int) -> list:
    return whitney2_row(m, 0, n)


def m_stirling1_row(m: int, n: int) -> list:
    return whitney1_row(m, 0, n)


# -- polynomial families ----------------------------------------------


def touchard_poly(m: int, n: int) -> Poly:
    return dowling_poly(m, 0, n)


def touchard_inverse_poly(m: int, n: int) -> Poly:
    return dowling_inverse_poly(m, 0, n)


def dowling_poly(m: int, r, n: int) -> Poly:
    return _polys("whitney2", m, r, n)[n]


def dowling_inverse_poly(m: int, r, n: int) -> Poly:
    return _polys("whitney1", m, r, n)[n]


# The longest Bernoulli and Euler tuples computed so far.  Each is exact
# term by term, so a longer build's prefix equals a shorter build, and
# every shorter request is served as a slice.
_PREFIXES = {}


def _prefix(name, n, build):
    count(n, "n")
    have = _PREFIXES.get(name, ())
    if len(have) <= n:
        have = _PREFIXES[name] = build(n)
    return have[: n + 1]


def _tangent_numbers(n):
    """T_1..T_n, T_k = tan^(2k-1)(0), by Brent and Harvey's in-place
    TangentNumbers recurrence: small-by-big integer products only."""
    t = [0, 1][: n + 1] + [0] * (n - 1)  # t[k] is T_k; t[0] is unused
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_numbers(n: int) -> list:
    """B_0..B_n of t/(e^t - 1), so B_1 = -1/2, from the tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) and B_odd = 0 from B_3 on
    (Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers", 2013)."""
    def build(n):
        out = [Fraction(1), Fraction(-1, 2)]
        for k, t in enumerate(_tangent_numbers(n // 2), 1):
            out += [Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1)), Fraction(0)]
        return tuple(out[: n + 1])
    return list(_prefix("bernoulli", n, build))


def _zigzag(n):
    """A_0..A_n, the zigzag numbers (n! [t^n] of sec t + tan t), from
    Seidel's boustrophedon: row i is the running sums, from 0, of row i - 1
    reversed, and ends with A_i."""
    row, out = [1], [1]
    for _ in range(n):
        row = list(accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return out


def euler_zero_values(n: int) -> list:
    """E_0(0)..E_n(0), the coefficients of 2/(e^t + 1) = 1 - tanh(t/2):
    E_0(0) = 1, E_2k(0) = 0 for k >= 1 and E_(2k-1)(0) = (-1)^k A_(2k-1) /
    2^(2k-1), from the zigzag numbers of Seidel's boustrophedon (Millar,
    Sloane and Young, "A new operation on sequences: the boustrophedon
    transform", J. Combin. Theory A 76, 1996)."""
    def build(n):
        return (Fraction(1),) + tuple(
            Fraction((-1) ** ((j + 1) // 2) * a, 2 ** j) if j % 2 else Fraction(0)
            for j, a in enumerate(_zigzag(n)[1:], 1))
    return list(_prefix("euler", n, build))


def _appell_polys(name, numbers, n):
    """P_0..P_n of an Appell family, P_j = sum_k C(j,k) a_{j-k} x^k, each
    built once from the numbers a_0..a_n cleared to one denominator."""
    polys = _POLYS.setdefault(name, [])
    if len(polys) <= count(n, "n"):
        nums, d = _cleared(numbers(n))
        polys.extend(_make([comb(j, k) * nums[j - k] for k in range(j + 1)], d)
                     for j in range(len(polys), n + 1))
    return polys


def bernoulli_poly(n: int) -> Poly:
    return _appell_polys("bernoulli", bernoulli_numbers, n)[n]


def euler_poly(n: int) -> Poly:
    return _appell_polys("euler", euler_zero_values, n)[n]


def cauchy_numbers(n: int) -> list:
    """c_0..c_n with c_j the integral of x(x-1)...(x-j+1) over [0, 1].

    Computed twice: by exact integration of the expanded product and as
    the coefficients of t/ln(1+t).  The two routes must agree.
    """
    count(n, "n")
    by_integral, cs, span = [], [1], 1
    for j in range(n + 1):
        if j:  # times (x - (j-1)): c_k <- c_{k-1} - (j-1) c_k
            cs = [lo - (j - 1) * hi for lo, hi in zip([0] + cs, cs + [0])]
        span = lcm(span, j + 1)  # the integral of x^k over [0, 1] is 1/(k+1)
        by_integral.append(Fraction(sum(c * (span // (k + 1)) for k, c in enumerate(cs)), span))
    series = Egf.one_plus_ct(1, n + 1).log().shift_down().inv()
    by_series = list(series.a)
    if by_integral != by_series:
        raise WhitneyError("internal inconsistency: Cauchy number routes disagree")
    return by_integral


def bell_numbers(n: int) -> list:
    """Row sums of the m = 1 second-kind rows, stepped here and not stored."""
    row, out = (1,), [1]
    for j in range(1, count(n, "n") + 1):
        row = _step_whitney2(1, 0, j, row)
        out.append(sum(row))
    return out


_SEQUENCES = {"bernoulli-numbers": bernoulli_numbers, "euler-zero-values": euler_zero_values,
              "cauchy1": cauchy_numbers, "bell": bell_numbers}


def family(kind: str, n: int, m: int = None, r=None) -> Poly:
    """Degree-n member of the named polynomial family, as stored."""
    if kind not in FAMILY_KINDS:
        raise ValueError("unknown family kind %r" % (kind,))
    store, reads_r = _KINDS[kind]
    if store in _STEPS:
        return _polys(store, m, r if reads_r else 0, n)[n]
    return _appell_polys(kind, _SEQUENCES[store], n)[n]


def classical_seq(kind: str, n: int) -> list:
    """First n+1 values of the named number sequence."""
    if kind not in _SEQUENCES:
        raise ValueError("unknown sequence kind %r" % (kind,))
    return _SEQUENCES[kind](n)


# -- triangle container -----------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular rows 0..N of one triangle or family kind, with parameters."""

    kind: str
    m: int
    r: object  # canonical exact rational (an int when integral); None for the r-free triangle kinds
    rows: tuple


def build_triangle(kind: str, m: int, r, n: int) -> Triangle:
    """Rows 0..n of a triangle kind, or of a family's coefficient triangle
    (row j: the degree-j member; a family reports r whether it uses r or not)."""
    count(n, "n")
    count(m, "m", 1)  # every kind, as m is written to the header
    if kind not in _KINDS:
        raise ValueError("unknown kind %r" % (kind,))
    store, reads_r = _KINDS[kind]
    if store in _STEPS:
        rows = _rows(store, m, r if reads_r else 0, n)[: n + 1]
    else:  # row j is the coefficients of the family's degree-j member
        rows = [p.coeffs for p in _appell_polys(kind, _SEQUENCES[store], n)[: n + 1]]
    r = None if kind.startswith("mstirling") or r is None else canonical(r)
    return Triangle(kind, m, r, tuple(rows))

