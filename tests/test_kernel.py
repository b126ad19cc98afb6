"""The one product kernel and the inv/exp/log recurrence, checked against
sums written out here; Newton reversion, checked against the Lagrange
route; and the exactness gate that every stored coefficient passes."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.poly import Poly, _convolve, stepped_product
from whitney.riordan import OrdRiordan
from whitney.series import Egf

FEW = settings(max_examples=40, deadline=None)

ints = st.integers(-40, 40)
rats = st.one_of(ints, st.fractions(-40, 40, max_denominator=12))


def naive_product(a, b, n):
    return [
        sum((a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b)), 0)
        for k in range(n + 1)
    ]


@FEW
@given(st.lists(rats, max_size=9), st.lists(rats, max_size=9), st.integers(0, 20))
def test_convolve_is_the_double_sum(a, b, n):
    got = _convolve(a, b, n)
    assert got == naive_product(a, b, n)
    if any(isinstance(x, Fraction) for x in a[: n + 1] + b[: n + 1]):
        assert all(type(c) is Fraction for c in got)


@FEW
@given(st.lists(ints, max_size=9), st.lists(ints, max_size=9), st.integers(0, 20))
def test_convolve_keeps_integers(a, b, n):
    assert all(type(c) is int for c in _convolve(a, b, n))


@FEW
@given(st.lists(rats, min_size=1, max_size=9), st.lists(rats, min_size=1, max_size=9))
def test_egf_mul_is_the_binomial_sum(a, b):
    n = min(len(a), len(b)) - 1
    want = [sum(comb(k, j) * a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]
    assert list((Egf(a) * Egf(b)).a) == want


@FEW
@given(st.integers(0, 8), st.integers(1, 4), rats, st.integers(-10, 10))
def test_stepped_product_is_the_product_of_its_factors(n, m, s, x):
    assert stepped_product(n, m, s)(x) == prod(x - s - j * m for j in range(n))


@settings(max_examples=15, deadline=None)
@given(
    st.one_of(st.integers(1, 3), st.integers(-3, -1), st.fractions(-3, 3, max_denominator=3)).filter(bool),
    st.lists(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)), min_size=0, max_size=11),
)
def test_reverse_agrees_with_lagrange(a1, rest):
    f = Egf([0, a1] + rest)
    rev = f.reverse()
    assert rev == f.reverse_lagrange()
    assert f.compose(rev) == Egf.t(f.order)


def fraction_inv(a):
    out = [1 / a[0]]
    for i in range(1, len(a)):
        out.append(-sum(comb(i, j) * a[j] * out[i - j] for j in range(1, i + 1)) / a[0])
    return out


def fraction_exp(a):
    out = [Fraction(1)]
    for i in range(len(a) - 1):
        out.append(sum(comb(i, k) * a[k + 1] * out[i - k] for k in range(i + 1)))
    return out


def fraction_log(a):
    out = [Fraction(0)]
    for i in range(len(a) - 1):
        out.append(a[i + 1] - sum(comb(i, k) * out[k + 1] * a[i - k] for k in range(i)))
    return out


tails = st.lists(rats, max_size=15)
units = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=7)).filter(bool)


@FEW
@given(units, tails)
def test_inv_is_the_fraction_recurrence(a0, rest):
    x = Egf([a0] + rest)
    assert list(x.inv().a) == fraction_inv([Fraction(a0)] + [Fraction(c) for c in rest])
    assert x.inv() * x == Egf.one(x.order)


@FEW
@given(tails)
def test_exp_and_log_are_the_fraction_recurrences(rest):
    a = [Fraction(c) for c in rest]
    assert list(Egf([0] + a).exp().a) == fraction_exp([Fraction(0)] + a)
    assert list(Egf([1] + a).log().a) == fraction_log([Fraction(1)] + a)


@pytest.mark.parametrize("order", range(1, 34))
def test_newton_reverse_at_every_order(order):
    # orders 1..33 cross the precision doublings at 2^k and 2^k +- 1
    f = Egf([0, Fraction(-3, 2), 2, Fraction(1, 3), -1, 5] + [Fraction(1, k) for k in range(1, order - 4)])
    f = f.truncate(order)
    rev = f.reverse()
    assert rev == f.reverse_lagrange()
    assert f.compose(rev) == Egf.t(order)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Egf([0.1]),
        lambda: Egf.exp_linear(0.5, 3),
        lambda: Egf([1, True]),
        lambda: Poly([0.5]),
        lambda: Poly([True]),
        lambda: Poly([1, 2]) * 0.5,
        lambda: OrdRiordan([1], [0, 0.5]),
    ],
    ids=[
        "egf-float", "egf-exp-linear-float", "egf-bool", "poly-float", "poly-bool", "poly-times-float",
        "ord-riordan-float",
    ],
)
def test_inexact_coefficients_are_refused(build):
    with pytest.raises(ValueError):
        build()
