"""The one product kernel and the inv/exp/log recurrence, checked against
sums written out here, at low order and at the high orders where a
binomial row that goes wrong late would show; Newton reversion, checked
against the Lagrange route; and the exactness gate that every stored
coefficient and every series parameter passes."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.errors import BadParameter, WhitneyError
from whitney.grammar import whitney_row_from_grammar
from whitney.identities import run_check
from whitney.operators import binomial_power_op, forward_difference_op, scaled_log_op
from whitney.poly import Poly, _convolve, stepped_product
from whitney.riordan import OrdRiordan, whitney1_array
from whitney.series import Egf, expm1_scaled, log1p_scaled
from whitney.triangles import (
    bernoulli_numbers,
    cauchy_numbers,
    dowling_inverse_poly,
    euler_zero_values,
    touchard_inverse_poly,
    whitney1_row_egf,
    whitney2_row,
    whitney2_row_egf,
)

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


def test_bernoulli_numbers_at_high_order():
    b = bernoulli_numbers(255)
    assert b[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
    for n in range(1, 256):
        assert sum(comb(n + 1, j) * b[j] for j in range(n + 1)) == 0, n


def test_euler_zero_values_at_high_order():
    e = euler_zero_values(251)
    for n in range(252):  # (e^t + 1) E(t) = 2
        assert sum(comb(n, j) * e[j] for j in range(n + 1)) + e[n] == (2 if n == 0 else 0), n


def test_inv_exp_log_at_high_order():
    dense = [Fraction((-1) ** i * (3 * i + 1), i % 7 + 2) for i in range(1, 61)]
    assert list(Egf([2] + dense).inv().a) == fraction_inv([Fraction(2)] + dense)
    assert list(Egf([0] + dense).exp().a) == fraction_exp([Fraction(0)] + dense)
    assert list(Egf([1] + dense).log().a) == fraction_log([Fraction(1)] + dense)


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
        lambda: Egf([1.0]),
        lambda: Egf([True]),
        lambda: Egf(["1"]),
        lambda: Egf.exp_linear(0.5, 3),
        lambda: Egf.exp_linear(True, 3),
        lambda: Egf([1, True]),
        lambda: Egf([1, 2, 3]).pow(0.1),
        lambda: Egf([1, 2, 3]).pow(True),
        lambda: Egf.one_plus_ct(0.5, 0),
        lambda: whitney1_row_egf(2, 0.1, 2),
        lambda: whitney1_row_egf(2, 0.1, 0),
        lambda: whitney1_array(2, 0.1, 2),
        lambda: whitney2_row_egf(2, 0.1, 2),
        lambda: whitney2_row_egf(2, True, 2),
        lambda: expm1_scaled(True, 3),
        lambda: log1p_scaled(0.5, 3),
        lambda: log1p_scaled(True, 3),
        lambda: Poly([0.5]),
        lambda: Poly([True]),
        lambda: Poly([1, 2]) * 0.5,
        lambda: OrdRiordan([1], [0, 0.5]),
    ],
    ids=[
        "egf-float", "egf-integral-float", "egf-lone-bool", "egf-str", "egf-exp-linear-float",
        "egf-exp-linear-bool", "egf-bool", "egf-pow-float", "egf-pow-bool", "egf-one-plus-ct-float-order0",
        "whitney1-row-egf-float", "whitney1-row-egf-float-n0", "whitney1-array-float", "whitney2-row-egf-float",
        "whitney2-row-egf-bool", "expm1-bool", "log1p-float", "log1p-bool", "poly-float", "poly-bool",
        "poly-times-float", "ord-riordan-float",
    ],
)
def test_inexact_coefficients_are_refused(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: forward_difference_op(0, 3),
        lambda: scaled_log_op(0, 3),
        lambda: binomial_power_op(0, 1, 3),
        lambda: scaled_log_op(-2, 3),
        lambda: whitney_row_from_grammar(True, 1, 3),
        lambda: whitney_row_from_grammar(2.0, 1, 3),
        lambda: whitney2_row(2, 1, True),
        lambda: whitney2_row(2, 1, 3.0),
        lambda: whitney2_row_egf(2, 1, -1),
        lambda: whitney1_row_egf(2, 1, -1),
        lambda: cauchy_numbers(-1),
        lambda: touchard_inverse_poly(0, 3),
        lambda: dowling_inverse_poly(-1, 1, 3),
        lambda: run_check("spivey", {"max_n": True}),
    ],
    ids=[
        "forward-difference-m0", "scaled-log-m0", "binomial-power-m0", "scaled-log-negative-m",
        "grammar-bool-m", "grammar-float-m", "whitney2-row-bool-n", "whitney2-row-float-n",
        "whitney2-row-egf-negative-n", "whitney1-row-egf-negative-n", "cauchy-negative-n",
        "touchard-inverse-m0", "dowling-inverse-negative-m", "identity-bool-max-n",
    ],
)
def test_bad_parameters_are_refused(build):
    # m must be a positive int and n, k, max_n nonnegative ints, at every entry point
    with pytest.raises(BadParameter) as info:
        build()
    assert isinstance(info.value, WhitneyError) and isinstance(info.value, ValueError)


def test_count_gate_leaves_rational_steps_and_shifts():
    # a stepped product's step and a grammar's r are exact rationals, not counts
    assert stepped_product(2, Fraction(1, 2), Fraction(5, 2)) == Poly([Fraction(15, 2), Fraction(-11, 2), 1])
    row = whitney_row_from_grammar(2, Fraction(3), 3)
    assert row == whitney2_row(2, 3, 3) and all(type(c) is int for c in row)


def test_egf_stores_a_fraction_subclass_as_a_plain_fraction():
    class Sub(Fraction):
        pass

    a = Egf([Sub(1, 2), Fraction(3, 4), 5]).a
    assert a == (Fraction(1, 2), Fraction(3, 4), 5)
    assert all(type(c) is Fraction for c in a)
