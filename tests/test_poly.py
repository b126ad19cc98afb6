import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.poly import (
    Poly,
    falling_basis_expand,
    from_falling_basis,
    stepped_product,
)
from whitney.series import Egf
from whitney.triangles import dowling_poly, whitney2_row


def test_constructor_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree == -1
    assert not Poly([0])
    assert Poly([3]).degree == 0


def test_arithmetic_basics():
    p = Poly([1, 2])  # 1 + 2x
    q = Poly([0, 0, 3])  # 3x^2
    assert p + q == Poly([1, 2, 3])
    assert p - p == Poly()
    assert p * q == Poly([0, 0, 3, 6])
    assert 2 * p == Poly([2, 4])
    assert p ** 2 == Poly([1, 4, 4])
    assert (p * q)(2) == p(2) * q(2)
    assert Poly([1, 1]).shifted(1) == Poly([2, 1])
    assert Poly([0, 0, 1]).shifted(-3) == Poly([9, -6, 1])
    assert Poly([0, 0, 1]).deriv() == Poly([0, 2])
    assert Poly([1, 2]).mul_xpow(2) == Poly([0, 0, 1, 2])


def test_falling_basis_constant():
    assert falling_basis_expand(Poly([1])) == [1]


def test_falling_basis_x_squared():
    # x^2 = x(x-1) + x, expanded by hand
    assert falling_basis_expand(Poly([0, 0, 1])) == [0, 1, 1]


def test_falling_basis_worked_square():
    # (2x+3)^2 = 4x^2 + 12x + 9; dividing c_k by 2^k gives row [9, 8, 1]
    cs = falling_basis_expand(Poly([3, 2]) ** 2)
    assert cs == [9, 16, 4]
    assert [cs[k] / 2 ** k for k in range(3)] == whitney2_row(2, 3, 2)


def test_falling_basis_round_trip_random():
    rng = random.Random(7)
    for _ in range(60):
        deg = rng.randint(0, 10)
        p = Poly([rng.randint(-9, 9) for _ in range(deg + 1)])
        assert from_falling_basis(falling_basis_expand(p)) == p


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_falling_basis_defines_second_kind_rows(m, r):
    for n in range(11):
        cs = falling_basis_expand(Poly([r, m]) ** n)
        row = [cs[k] / Fraction(m) ** k for k in range(n + 1)]
        assert row == whitney2_row(m, r, n)


def test_stepped_product_empty():
    assert stepped_product(0, 5, 7) == Poly([1])


def test_stepped_product_two_step():
    # x(x-2) = x^2 - 2x
    assert stepped_product(2, 2, 0) == Poly([0, -2, 1])


def test_stepped_product_shift_matches_taylor_shift():
    # (x-r)(x-r-1) is the falling factorial moved by r
    for r in (0, 1, Fraction(5, 2)):
        assert stepped_product(2, 1, r) == stepped_product(2, 1, 0).shifted(-r)


def test_stepped_product_rejects_negative():
    with pytest.raises(ValueError):
        stepped_product(-1, 1, 0)


@pytest.mark.parametrize("call", [
    lambda: Poly([1, 2]) * True,
    lambda: True * Poly([1, 2]),
    lambda: Poly([1, 2]) * 0.5,
    lambda: 0.5 * Poly([1, 2]),
    lambda: Poly([1, 1]).shifted(True),
    lambda: Poly([1, 1]).shifted(0.5),
    lambda: Poly([1, 2]).mul_xpow(-1),
    lambda: Poly([1, 2]).mul_xpow(True),
    lambda: Poly([1, 2]).mul_xpow(1.0),
    lambda: Poly().mul_xpow(-1),
    lambda: Poly([1, 2])(0.5),
    lambda: Poly([1, 2])(True),
    lambda: dowling_poly(2, 1, 3)(0.5),
    # coeff(True) used to read coefficient 1, coeff(1.5) raised a bare
    # TypeError and coeff(-1) read 0
    lambda: Poly([1, 2, 3]).coeff(True),
    lambda: Poly([1, 2, 3]).coeff(1.5),
    lambda: Poly([1, 2, 3]).coeff(-1),
])
def test_inexact_scalars_and_bad_exponents_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_coeff_past_the_degree_reads_zero():
    p = Poly([1, Fraction(1, 2), 3])
    assert [p.coeff(i) for i in range(5)] == [1, Fraction(1, 2), 3, 0, 0]
    assert Poly().coeff(0) == 0


def test_poly_and_egf_share_the_pair_layout_but_not_equality():
    p, e = Poly([1]), Egf([1])
    assert (p._n, p._d) == (e._n, e._d)
    assert p != e and e != p
    for v in (Poly([1, Fraction(-1, 2)]), Egf([1, Fraction(-1, 2)])):
        assert -(-v) == v and -v != v
        assert v != v * 2 and v != Fraction(1, 2) * v
        assert hash(-(-v)) == hash(v)
        with pytest.raises(AttributeError, match="^%s is immutable$" % type(v).__name__):
            v._n = (1,)


def test_exact_scalars_still_scale():
    assert Poly([1, 2]) * Fraction(1, 2) == Poly([Fraction(1, 2), 1])
    assert Fraction(2, 1) * Poly([1, 2]) == Poly([2, 4])
    assert Poly([1, 2]) * 0 == Poly()
    assert Poly([1, 1]).shifted(Fraction(1, 2)) == Poly([Fraction(3, 2), 1])
    assert Poly([1, 2]).mul_xpow(0) == Poly([1, 2])
    assert dowling_poly(2, 1, 3)(Fraction(1, 2)) == Fraction(79, 8)


# small values, so that two independent draws are often equal
values = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=3),
    st.integers(-3, 3).map(Fraction),  # an integral Fraction
)
coeff_lists = st.lists(values, max_size=4)


def retyped(cs):
    """The same values, each integral one as an int or a Fraction, with trailing zeros."""
    def one(c):
        c = Fraction(c)
        return st.sampled_from((c, c.numerator)) if c.denominator == 1 else st.just(c)

    return st.tuples(*map(one, cs)).flatmap(
        lambda t: st.lists(st.sampled_from((0, Fraction(0))), max_size=2).map(lambda z: list(t) + z))


def stripped(cs):
    vals = [Fraction(c) for c in cs]
    while vals and vals[-1] == 0:
        vals.pop()
    return vals


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(coeff_lists, coeff_lists),
    coeff_lists.flatmap(lambda a: st.tuples(st.just(a), retyped(a))),
))
def test_the_pair_form_is_canonical(pair):
    a, b = pair
    p, q = Poly(a), Poly(b)
    assert (p == q) == (stripped(a) == stripped(b))
    if p == q:
        assert hash(p) == hash(q)
    for poly, cs in ((p, a), (q, b)):
        assert list(poly.coeffs) == stripped(cs)
        assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                   for c in poly.coeffs)
        # the stored pair: no trailing zero, a positive denominator, no common factor
        nums, den = poly._n, poly._d
        assert den > 0 and gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, values, st.integers(0, 3))
def test_pair_arithmetic_is_the_written_out_arithmetic(a, b, c, j):
    fa, fb = stripped(a), stripped(b)
    p, q = Poly(a), Poly(b)
    prod = [sum((fa[i] * fb[k - i] for i in range(len(fa)) if 0 <= k - i < len(fb)), Fraction(0))
            for k in range(len(fa) + len(fb) - 1)]
    assert p * q == Poly(prod)
    assert c * p == p * c == Poly([c * x for x in fa])
    assert p.deriv() == Poly([i * x for i, x in enumerate(fa)][1:])
    assert p.mul_xpow(j) == Poly([0] * j + fa if fa else [])
    assert -p == Poly([-x for x in fa])
    width = max(len(fa), len(fb))
    pad = lambda v: v + [Fraction(0)] * (width - len(v))  # noqa: E731
    assert p + q == Poly([x + y for x, y in zip(pad(fa), pad(fb))])
    assert p - q == Poly([x - y for x, y in zip(pad(fa), pad(fb))])
