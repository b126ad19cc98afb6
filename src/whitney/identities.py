"""The identities the triangle families satisfy, declared for the registry.

Every entry states one identity as a pair of independently computed sides,
evaluated exactly over a finite parameter grid by the runner in
``whitney.registry``.  Polynomial statements are compared coefficient by
coefficient, never by sampling; scalar statements are compared at every
grid point.

Two entries ("dowling-to-bernoulli", "dowling-to-euler") are flagged: the
printed derivations they come from contain apparent slips, so each report
also carries the expansion with constants recomputed from the
connection-constant array, and passes only when both routes verify.
"""

import random
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import comb, factorial, prod
from operator import mul

from .errors import BadGrid
from .grammar import XYPoly, derive_n, whitney_grammar
from .operators import forward_difference_op, scaled_log_op, shift_op
from .poly import Poly, _cleared, lincomb
from .qformat import canonical, count, rat_str
from .registry import _identity
from .riordan import _connection_arrays, _dowling_egf, whitney1_array, whitney2_array
from .series import Egf, expm1_scaled, log1p_scaled
from .triangles import (
    _polys,
    _rows,
    bernoulli_numbers,
    bernoulli_poly,
    cauchy_numbers,
    dowling_inverse_poly,
    dowling_poly,
    euler_poly,
    euler_zero_values,
    touchard_inverse_poly,
    touchard_poly,
    whitney2_row,
)

# -- small helpers ------------------------------------------------------

_xpow = Poly.const(1).mul_xpow  # _xpow(n) is x^n


def exact_det(rows) -> Fraction:
    """Determinant by fraction-free Bareiss elimination on plain ints.

    Each row is scaled by the lcm of its denominators (a float or bool
    raises ValueError), so every entry is an int and every Bareiss division
    is exact; the scaled determinant is then divided by the scales' product.
    """
    a, scale = [], 1
    for row in rows:
        nums, d = _cleared(row)
        a.append(list(nums))
        scale *= d
    n = len(a)
    if n == 0:
        return Fraction(1)
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][i]), None)
            if j is None:
                return Fraction(0)
            a[i], a[j], sign = a[j], a[i], -sign
        pivot, top = a[i][i], a[i]
        for row in a[i + 1:]:
            lead = row[i]
            for k in range(i + 1, n):
                row[k] = (row[k] * pivot - lead * top[k]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def dowling_from_determinant(m, r, n) -> Poly:
    """(-1)^n det of the bordered first-kind matrix, expanded along the x-row.

    The matrix is (n+1) x (n+1): row 0 holds 1, x, ..., x^n and row i >= 1
    holds the first-kind entries w(j, i-1) for j = 0..n.
    """
    w = _rows("whitney1", m, r, n)
    coeffs = []
    for j in range(n + 1):
        minor = [[w[jj][i - 1] if jj >= i - 1 else 0 for jj in range(n + 1) if jj != j]
                 for i in range(1, n + 1)]
        coeffs.append((-1) ** j * exact_det(minor))
    return Poly(c * (-1) ** n for c in coeffs)


def _sheffer_pair_bernoulli(order):
    return (expm1_scaled(1, order + 1).shift_down(), Egf.t(order))


def _sheffer_pair_euler(order):
    return (Fraction(1, 2) * (Egf.exp_linear(1, order) + Egf.one(order)), Egf.t(order))


_MRN = ("m", "r", "n")
_OTHER = {"whitney2": "whitney1", "whitney1": "whitney2"}
_N1 = ("n", lambda grid: range(1, grid["max_n"] + 1))  # n from 1


def _sides(m, r, n, rhs, entrywise):
    """D_n against rhs or, entrywise, row n of W against rhs's coefficients, zero-padded."""
    if entrywise:
        row, cs = whitney2_row(m, r, n), list(rhs.coeffs)
        return row + [0] * (len(cs) - len(row)), cs + [0] * (len(row) - len(cs))
    return dowling_poly(m, r, n), rhs


_SUMS = []  # the memo of each printed sum below, emptied by clear_caches()


def _memo(fn):
    """fn(m, *key), a printed sum twin checks share, formed once per process;
    m is gated and the key made canonical, left to right, before the lookup,
    as `_rows` keys the store, so a bool or float neither hits nor poisons."""
    memo = lru_cache(maxsize=None)(fn)
    _SUMS.append(memo)
    return lambda m, *key: memo(count(m, "m", 1), *map(canonical, key))


# -- identities -----------------------------------------------------------
# Python's 0 ** 0 is 1, the empty-product reading the stated sums use.


@_identity("egf-whitney2",
           "column k series of the second-kind triangle is e^{rz}((e^{mz}-1)/m)^k/k!",
           ("m", "r", ("k", "max_n")), per=2)
def _egf_whitney2(grid, m, r):
    # an array needs order 1 at least; each column is cut back to order max_n
    n_max = grid["max_n"]
    rows = _rows("whitney2", m, r, n_max)[: n_max + 1]
    arr = whitney2_array(m, r, max(n_max, 1))
    return lambda k: (list(arr.column(k).a[: n_max + 1]),
                      [row[k] if k < len(row) else 0 for row in rows])


@_identity("egf-dowling", "exp(rt + u(e^{mt}-1)/m) generates the Dowling row polynomials",
           ("m", "r", "u"), grid={"u": (0, 1, 2, 3)}, per=2)
def _egf_dowling(grid, m, r):
    # the series is the one `series dowling-egf` prints
    n_max = grid["max_n"]
    D = _polys("whitney2", m, r, n_max)[: n_max + 1]
    return lambda u: (list(_dowling_egf(m, r, u, n_max).a), [p(u) for p in D])


@_identity("lemma-grammar-dowling",
           "n-th grammar derivative of y x^r equals y x^r times the Dowling polynomial at x^m",
           _MRN, per=2)
def _lemma_grammar_dowling(grid, m, r):
    # the derivatives are carried along n, each one grammar step from the last;
    # the whole grid is checked at the first (m, r), before any point
    negative = [x for x in grid["r"] if x < 0]  # y x^r is a monomial only for r >= 0
    if negative:
        raise BadGrid("identity 'lemma-grammar-dowling': r must be nonnegative, got %s"
                      % rat_str(negative[0]))
    g, rows = whitney_grammar(m), _rows("whitney2", m, r, grid["max_n"])
    derivs = [XYPoly.monomial(1, r)]
    for _ in range(grid["max_n"]):
        derivs.append(derive_n(g, derivs[-1], 1))
    return lambda n: (derivs[n], XYPoly({(1, m * k + r): w for k, w in enumerate(rows[n])}))


@_identity("dowling-shift-l1", "D_{m,r+1}(n,u) = sum_k C(n,k) D_{m,r}(k,u)",
           _MRN, bind={"l": 1})
@_identity("dowling-shift", "D_{m,r+l}(n,u) = sum_k C(n,k) l^{n-k} D_{m,r}(k,u)",
           ("m", "r", "l", "n"), grid={"l": (0, 1, 2, 3)})
def _dowling_shift(m, r, l, n):
    # r-shift-s read at (r + l, r)
    return _r_shift_s(m, r + l, r, n, entrywise=False)


@_identity("spivey", "D(n+h,u) = sum_{k,j} C(n,k) D(k,u) W(h,j) u^j (jm)^{n-k}",
           _MRN + (("h", "max_h"),), grid={"max_h": 8}, bind={"entrywise": False}, per=3)
@_identity("whitney-convolution", "W(n+h,s) = sum_{k,j} C(n,k) W(h,j) W(k,s-j) (jm)^{n-k}",
           _MRN + (("h", "max_h"),), grid={"max_h": 8}, bind={"entrywise": True}, per=3)
def _spivey(grid, m, r, n, entrywise):
    sums = _spivey_sums(m, r, n, grid["max_h"])
    return lambda h: _sides(m, r, n + h, sums[h], entrywise)


@_memo
def _spivey_sums(m, r, n, max_h):
    # the printed double sum at h = 0..max_h, summed over k first: inner[j] =
    # sum_k C(n,k) (jm)^{n-k} D_k does not depend on h, and is held times u^j,
    # as the outer sum takes it; its u^t coefficient is the entrywise sum
    d, D = _rows("whitney2", m, r, max_h), _polys("whitney2", m, r, n)
    inner = [lincomb((comb(n, k) * (j * m) ** (n - k), D[k]) for k in range(n + 1)).mul_xpow(j)
             for j in range(max_h + 1)]
    return tuple(lincomb((d[h][j], inner[j]) for j in range(h + 1)) for h in range(max_h + 1))


@_identity("dowling-recurrence", "D(n+1,u) = r D(n,u) + u sum_j C(n,j) m^{n-j} D(j,u)",
           _MRN, bind={"entrywise": False})
@_identity("whitney-recurrence", "W(n+1,k) = r W(n,k) + sum_j C(n,j) m^{n-j} W(j,k-1)",
           _MRN, bind={"entrywise": True})
def _dowling_recurrence(m, r, n, entrywise):
    return _sides(m, r, n + 1, _recurrence_sum(m, r, n), entrywise)


@_memo
def _recurrence_sum(m, r, n):
    # u times the sum is taken inside it, one x-shifted row a term
    D = _polys("whitney2", m, r, n)
    terms = [(comb(n, j) * m ** (n - j), D[j].mul_xpow(1)) for j in range(n + 1)]
    return lincomb([(r, D[n])] + terms)


@_identity("r-shift-s", "D_{m,r}(n,u) = sum_j C(n,j) (r-s)^{n-j} D_{m,s}(j,u)",
           ("m", "r", "s", "n"), grid={"s": (0, 1, 2, 3)},
           bind={"entrywise": False})
@_identity("whitney-r-shift", "W_{m,r}(n,k) = sum_j C(n,j) (r-s)^{n-j} W_{m,s}(j,k)",
           ("m", "r", "s", "n"), grid={"s": (0, 1, 2, 3)},
           bind={"entrywise": True})
def _r_shift_s(m, r, s, n, entrywise):
    return _sides(m, r, n, _shift_sum(m, s, r, n), entrywise)


@_memo
def _shift_sum(m, s, r, n):
    # keyed s first: the sum reads D_{m,s} before it reads r
    D = _polys("whitney2", m, s, n)
    return lincomb((comb(n, j) * (r - s) ** (n - j), D[j]) for j in range(n + 1))


@_identity("touchard-binomial", "the generalized Touchard family is of binomial type",
           ("m", "n"), bind={"r": 0})
@_identity("sheffer-binomial-D", "D_n(x+y) = sum_k C(n,k) D_k(x) T_{n-k}(y)",
           _MRN)
def _sheffer_binomial(m, r, n):
    # at r = 0 the Dowling family is the Touchard family itself; a key
    # (i, j) is x^i y^j, x the Dowling and y the Touchard variable
    d = [p.coeffs for p in _polys("whitney2", m, r, n)[: n + 1]]  # D_k has degree k
    t = [p.coeffs for p in _polys("whitney2", m, 0, n)[n::-1]]  # T_{n-k} has degree n-k
    lhs = XYPoly({(i, k - i): c * comb(k, i) for k, c in enumerate(d[n]) for i in range(k + 1)})
    rhs = XYPoly({
        (i, j): sum(comb(n, k) * d[k][i] * t[k][j] for k in range(i, n - j + 1))
        for i in range(n + 1) for j in range(n - i + 1)
    })
    return lhs, rhs


@_identity("umbral-inverse-T",
           "umbral composition of the Touchard family with its inverse gives x^n",
           ("m", "n", ("direction", ("inverse-into-touchard", "touchard-into-inverse"))))
def _umbral_inverse_touchard(m, n, direction):
    kind = "whitney2" if direction == "inverse-into-touchard" else "whitney1"
    return _umbral(kind, m, 0, n, n + 1), _xpow(n)


@_identity("delta-ops",
           "(E^m-I)/m lowers the inverse family; ln(1+mD)/m lowers the Touchard family",
           ("m", _N1, ("operator", ("forward-difference", "scaled-log"))))
def _delta_ops(m, n, operator):
    if operator == "forward-difference":
        op, family = forward_difference_op(m, n), touchard_inverse_poly
    else:
        op, family = scaled_log_op(m, n), touchard_poly
    return op(family(m, n)), n * family(m, n - 1)


@_identity("binomial-recurrences", "That_n(x) = x That_{n-1}(x-m) and T_n(x) = x(1+mD) T_{n-1}(x)",
           ("m", _N1, ("family", ("touchard-inverse", "touchard"))))
def _binomial_recurrences(m, n, family):
    if family == "touchard-inverse":
        return touchard_inverse_poly(m, n), touchard_inverse_poly(m, n - 1).shifted(-m).mul_xpow(1)
    prev = touchard_poly(m, n - 1)
    return touchard_poly(m, n), (prev + m * prev.deriv()).mul_xpow(1)


def _umbral(kind, m, r, n, upto):
    """sum_{k < upto} E(n,k) P_k(x): E the `kind` triangle, P_k row k of the other kind."""
    e = _rows(kind, m, r, n)[n]
    return lincomb(zip(e[:upto], _polys(_OTHER[kind], m, r, n)))


@_memo
def _power_sum(m, r, n):
    # x^n = sum_k w(n,k) D_k(x), in power-in-dowling and dowling-umbral-inverse
    return _umbral("whitney1", m, r, n, n + 1)


@_identity("dowling-umbral-inverse",
           "the inverse Dowling family is the r-shifted stepped product; compositions give x^n",
           _MRN + (("part", ("shifted-product", "second-into-inverse", "first-into-dowling")),))
def _dowling_umbral_inverse(m, r, n, part):
    if part == "shifted-product":
        return dowling_inverse_poly(m, r, n), shift_op(-r, n)(touchard_inverse_poly(m, n))
    if part == "second-into-inverse":
        return _umbral("whitney2", m, r, n, n + 1), _xpow(n)
    return _power_sum(m, r, n), _xpow(n)


@_identity("power-in-dowling", "x^n = sum_k w(n,k) D_k(x) and its rearrangement",
           _MRN + (("part", ("power-expansion", "rearranged")),))
def _power_in_dowling(m, r, n, part):
    if part == "power-expansion":
        return _power_sum(m, r, n), _xpow(n)
    return dowling_poly(m, r, n), _xpow(n) - _umbral("whitney1", m, r, n, n)


@_identity("dowlstir", "D_n(x) = sum_k r(r-m)...(r-(k-1)m)/k! times the k-th derivative of T_n",
           _MRN, per=1)
def _dowlstir(grid, m):
    # the derivatives of T_n depend on (m, n), the falling values on (m, r)
    n_max = grid["max_n"]
    derivs = [[touchard_poly(m, n)] for n in range(n_max + 1)]
    for n, ds in enumerate(derivs):
        for _ in range(n):
            ds.append(ds[-1].deriv())

    falling = cache(lambda r: [Fraction(prod(r - j * m for j in range(k)), factorial(k))
                               for k in range(n_max + 1)])  # r(r-m)...(r-(k-1)m)/k!
    return _expansion(grid, m, lambda r, W, n: zip(falling(r), derivs[n]))


@_identity("bernoulli-to-dowling",
           "Bernoulli polynomials expanded in the Dowling family through first-kind entries",
           _MRN, bind={"numbers": bernoulli_numbers, "family": bernoulli_poly})
@_identity("euler-to-dowling",
           "Euler polynomials expanded in the Dowling family through first-kind entries",
           _MRN, bind={"numbers": euler_zero_values, "family": euler_poly})
def _family_to_dowling(numbers, family, m, r, n):
    # the numbers over one denominator d: the sum is formed on the numerators
    # and divided by d once
    c, d = _cleared(numbers(n))
    cn = [comb(n, l) * c[n - l] for l in range(n + 1)]
    w, D = _rows("whitney1", m, r, n), _polys("whitney2", m, r, n)
    rhs = lincomb((sum(cn[l] * w[l][k] for l in range(k, n + 1)), D[k]) for k in range(n + 1))
    return family(n), Fraction(1, d) * rhs


def _expansion(grid, m, terms):
    """The sides at (r, n) of an expansion of D_n: D_n and the sum of the (c, p)
    pairs of terms(r, W, n), W the second-kind rows, read with D once per r."""
    n_max = grid["max_n"]
    rows = cache(lambda r: (_rows("whitney2", m, r, n_max), _polys("whitney2", m, r, n_max)))

    def sides(r, n):
        W, D = rows(r)
        return D[n], lincomb(terms(r, W, n))
    return sides


def _corrected(grid, m, source, family):
    # correction route: the constants straight off the connection-constant
    # array between the two Sheffer pairs.  The source pair is built, and the
    # target's delta series ln(1+mt)/m, shared by every r, reversed and
    # composed into it, once per m.  Order 1 at least: Egf.t has no order-0
    # form, and max_n = 0 still has one point
    n_max = grid["max_n"]
    order = max(n_max, 1)
    fam = [family(k) for k in range(n_max + 1)]
    array_to = _connection_arrays(source(order), log1p_scaled(m, order))
    rows = cache(lambda r: array_to(whitney1_array(m, r, order).g).rows(n_max))
    return _expansion(grid, m, lambda r, W, n: zip(rows(r)[n], fam))


@_identity("dowling-to-bernoulli",
           "Dowling polynomials expanded in Bernoulli polynomials (literal stated form)",
           _MRN, grid={"max_n": 6}, per=1,
           variant=partial(_corrected, source=_sheffer_pair_bernoulli, family=bernoulli_poly))
def _dowling_to_bernoulli(grid, m):
    # the sum over s depends on (m, l) alone: one integer per l, on the
    # Bernoulli numerators over their one denominator d, formed once per m
    n_max = grid["max_n"]
    b, d = _cleared(bernoulli_numbers(n_max))
    fam = [bernoulli_poly(k) for k in range(n_max + 1)]
    t_one = [sum(row) for row in _rows("whitney2", m, 0, n_max + 1)[: n_max + 2]]  # T_s(1)
    inner = [sum(comb(l + 1, s + 1) * m ** (l - s) * t_one[s + 1] * b[l - s]
                 for s in range(l + 1)) for l in range(n_max + 1)]

    def terms(r, W, n):
        return zip((Fraction(sum(comb(n + 1, l + 1) * W[n - l][k] * inner[l]
                                 for l in range(n - k + 1)), (n + 1) * d)
                    for k in range(n + 1)), fam)
    return _expansion(grid, m, terms)


@_identity("dowling-to-euler",
           "Dowling polynomials expanded in Euler polynomials (literal stated form)",
           _MRN, per=1, variant=partial(_corrected, source=_sheffer_pair_euler, family=euler_poly))
def _dowling_to_euler(grid, m):
    n_max = grid["max_n"]
    fam = [euler_poly(k) for k in range(n_max + 1)]
    t_one = [sum(row) for row in _rows("whitney2", m, 0, n_max)[: n_max + 1]]  # T_l(1)

    def terms(r, W, n):
        # (1/2) sum + (1/2) W(n, k), as one Fraction
        return zip((Fraction(sum(comb(n, l) * W[n - l][k] * t_one[l]
                                 for l in range(n - k + 1)) + W[n][k], 2)
                    for k in range(n + 1)), fam)
    return _expansion(grid, m, terms)


def _az_sides(kind, cleared, m, r, n, identity):
    """One of three row recurrences of the `kind` array at (m, r, n).

    `cleared` holds the numbers of its A-sequence as integer numerators
    over one denominator: Cauchy numbers for the second kind, Bernoulli
    numbers for the first.  The other two recurrences weight row l by
    m^(n-l), or by (-m)^(n-l) (n-l)! for the first kind.
    """
    e = _rows(kind, m, r, n + 1)  # e(l, k) is 0 for k > l, read as such below

    def weight(d):
        return m ** d if kind == "whitney2" else (-m) ** d * factorial(d)

    if identity == "a-sequence-row":
        # (n+1)/(k+1) and the denominator d of c come out of the sum over j
        c, d = cleared
        lhs = [e[n + 1][k + 1] for k in range(n + 1)]
        rhs = [
            Fraction((n + 1) * sum(comb(k + j, j) * c[j] * m ** j * e[n][k + j]
                                   for j in range(n - k + 1)), (k + 1) * d)
            for k in range(n + 1)
        ]
        return lhs, rhs
    if identity == "column-scale":
        lhs, top = [k * e[n][k] for k in range(n + 1)], n
    elif kind == "whitney2":
        lhs, top = [e[n][k] - (r * e[n - 1][k] if k < n else 0) for k in range(n + 1)], n - 1
    else:
        lhs = [
            e[n][k] + r * sum(comb(n - 1, l) * weight(n - l - 1) * e[l][k] for l in range(k, n))
            for k in range(n + 1)
        ]
        top = n - 1
    rhs = [0] + [
        sum(comb(top, l - 1) * weight(n - l) * e[l - 1][k - 1] for l in range(k, n + 1))
        for k in range(1, n + 1)
    ]
    return lhs, rhs


# (n, identity) in the order the row recurrences are visited
_AZ = ("m", "r", (("n", "identity"), lambda g: [(n, "a-sequence-row") for n in range(g["max_n"])]
                  + [(n, i) for n in range(1, g["max_n"] + 1) for i in ("g-shift", "column-scale")]))


@_identity("az-recurrences-W2",
           "three row recurrences of the second-kind array (Cauchy-number A-sequence)",
           _AZ, bind={"kind": "whitney2", "numbers": cauchy_numbers}, per=0)
@_identity("az-recurrences-W1",
           "three row recurrences of the first-kind array (Bernoulli-number A-sequence)",
           _AZ, bind={"kind": "whitney1", "numbers": bernoulli_numbers}, per=0)
def _az_recurrences(grid, kind, numbers):
    # stateless per point, but the A-sequence numbers are computed once
    # per walk: the Cauchy numbers are not cached
    return partial(_az_sides, kind, _cleared(numbers(grid["max_n"])))


@_identity("orthogonality", "the two triangles are mutually inverse, entrywise",
           _MRN + (("direction", ("second-first", "first-second")),),
           grid={"max_n": 12})
def _orthogonality(m, r, n, direction):
    W, w = _rows("whitney2", m, r, n), _rows("whitney1", m, r, n)
    a, b = (W, w) if direction == "second-first" else (w, W)
    lhs = [sum(a[n][i] * b[i][s] for i in range(s, n + 1)) for s in range(n + 1)]
    return lhs, [1 if s == n else 0 for s in range(n + 1)]


def _apply(e, f):
    """The sequence n -> sum_s e(n, s) f[s], e given by its rows."""
    return [sum(map(mul, e[n], f)) for n in range(len(f))]


@_identity("inverse-relation",
           "f = w * g holds exactly when g = W * f, on random integer sequences",
           ("m", "r", ("seed", lambda grid: grid["seeds"]),
            ("direction", ("second-then-first", "first-then-second"))),
           grid={"max_n": 10, "seeds": (0, 1, 2)}, per=3)
def _inverse_relation(grid, m, r, seed):
    # both directions draw, in turn, from one generator per (m, r, seed)
    n_max = grid["max_n"]
    W, w = _rows("whitney2", m, r, n_max), _rows("whitney1", m, r, n_max)
    rng = random.Random("inverse-relation-%d-%s-%d" % (m, r, seed))

    def sides(direction):
        first, second = (W, w) if direction == "second-then-first" else (w, W)
        f = [rng.randint(-9, 9) for _ in range(n_max + 1)]
        return _apply(second, _apply(first, f)), f
    return sides


@_identity("determinantal", "(-1)^n times the bordered first-kind determinant equals D_n(x)",
           _MRN, grid={"m": (1, 2), "r": (0, 1, 2)})
def _determinantal(m, r, n):
    return dowling_poly(m, r, n), dowling_from_determinant(m, r, n)
