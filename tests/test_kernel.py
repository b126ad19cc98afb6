"""The product kernels, in both forms of the series product, and the
inv/exp/log recurrence, checked against sums written out here, at low
order and at the high orders where a binomial row that goes wrong late
would show; Newton reversion, checked against the Lagrange route; the
canonical form of a series; and the exactness and parameter gates that
every stored coefficient and every series parameter passes."""

import io
import json
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import series
from whitney.errors import BadParameter, WhitneyError
from whitney.grammar import whitney_row_from_grammar
from whitney.operators import binomial_power_op, forward_difference_op, scaled_log_op, shift_op
from whitney.poly import Poly, _convolve, stepped_product
from whitney.qformat import parse_rat, write
from whitney.registry import run_check
from whitney.riordan import OrdRiordan, seq_az, sheffer_polys, whitney1_array, whitney2_array
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
@given(st.lists(ints, max_size=9), st.lists(ints, max_size=9), st.integers(0, 20))
def test_convolve_is_the_double_sum(a, b, n):
    assert _convolve(a, b, n) == naive_product(a, b, n)


@FEW
@given(st.lists(ints, max_size=9), st.lists(ints, max_size=9), st.integers(0, 20))
def test_convolve_keeps_integers(a, b, n):
    assert all(type(c) is int for c in _convolve(a, b, n))


def fraction_product(a, b):
    n = min(len(a), len(b)) - 1
    return [sum(comb(k, j) * a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]


@FEW
@given(st.lists(rats, min_size=1, max_size=9), st.lists(rats, min_size=1, max_size=9))
def test_egf_mul_is_the_binomial_sum(a, b):
    assert list((Egf(a) * Egf(b)).a) == fraction_product(a, b)


def factorial_shape(m, rs, order):
    # a_k = r_k * m^k * k!: EGF coefficients growing like k!, as in ln(1 + mt)
    return [rs[k % len(rs)] * m ** k * factorial(k) for k in range(order + 1)]


def exponential_shape(m, rs, order):
    # a_k = r_k * m^k: EGF coefficients growing exponentially, as in e^{mt}
    return [rs[k % len(rs)] * m ** k for k in range(order + 1)]


SHAPES = {"first-kind": factorial_shape, "second-kind": exponential_shape}
nonzero_rats = st.one_of(st.integers(1, 9), st.fractions(-9, 9, max_denominator=5).filter(bool))


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(sorted(SHAPES)),
    st.integers(1, 3),
    st.lists(nonzero_rats, min_size=1, max_size=4),
    st.lists(nonzero_rats, min_size=1, max_size=4),
    st.integers(0, 60),
)
def test_egf_product_of_structured_shapes_is_the_fraction_double_sum(shape, m, ra, rb, order):
    a, b = SHAPES[shape](m, ra, order), SHAPES[shape](m + 1, rb, order)
    assert list((Egf(a) * Egf(b)).a) == fraction_product([Fraction(c) for c in a], [Fraction(c) for c in b])


@pytest.mark.parametrize("shape, ordinary", [("first-kind", True), ("second-kind", False)])
def test_each_product_form_runs_on_its_shape(monkeypatch, shape, ordinary):
    # at order 45 factorial-growth operands take the ordinary form and
    # exponential ones the binomial sum; both give the Fraction double sum
    calls = []
    real = series._ordinary_numerators
    monkeypatch.setattr(series, "_ordinary_numerators", lambda *args: calls.append(1) or real(*args))
    a = SHAPES[shape](2, [1, Fraction(-3, 2)], 45)
    b = SHAPES[shape](3, [Fraction(1, 3), 2, -1], 45)
    got = Egf(a).mul(Egf(b))
    assert bool(calls) is ordinary
    assert list(got.a) == fraction_product([Fraction(c) for c in a], [Fraction(c) for c in b])


@pytest.mark.parametrize("order", [27, 30, 31, 33, 34])
def test_reverse_agrees_with_lagrange_where_the_product_form_flips(monkeypatch, order):
    # ln(1 + 2t)/2 plus a rational tail: Newton's compose and the Lagrange
    # powers run products on both sides of the order-30 switch
    used = set()
    real = series._ordinary_numerators
    monkeypatch.setattr(series, "_ordinary_numerators", lambda A, d, n: used.add(n) or real(A, d, n))
    f = log1p_scaled(2, order) + Egf([0, 0] + [Fraction((-1) ** k, k + 2) for k in range(order - 1)])
    rev = f.reverse()
    assert rev == f.reverse_lagrange()
    assert f.compose(rev) == Egf.t(order)
    assert bool(used) is (order >= 30) and all(n >= 30 for n in used)


def _json_round_trip(series):
    out = io.StringIO()
    write(out, "json", series.a, {"order": series.order}, "egf_coeffs", flat=True)
    return Egf([parse_rat(v) for v in json.loads(out.getvalue())["egf_coeffs"]])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40), st.integers(0, 40))
def test_equal_series_built_by_different_routes_are_equal_and_hash_equal(m, order, cut):
    cut = min(cut, order)
    routes = [
        expm1_scaled(m, order),
        Fraction(1, m) * (Egf.exp_linear(m, order) - Egf.one(order)),
        Egf([0] + [m ** (k - 1) for k in range(1, order + 1)]),
        Egf.from_ordinary(Egf([0] + [Fraction(m ** (k - 1)) for k in range(1, order + 1)]).ordinary()),
        _json_round_trip(expm1_scaled(m, order + 3).truncate(order)),
    ]
    assert all(r == routes[0] and hash(r) == hash(routes[0]) for r in routes)
    logs = [log1p_scaled(m, order), Fraction(1, m) * Egf.one_plus_ct(m, order).log()]
    if order:
        logs.append(expm1_scaled(m, order).reverse())
        logs.append(expm1_scaled(m, order).reverse_lagrange())
    assert all(r == logs[0] and hash(r) == hash(logs[0]) for r in logs)
    e = Egf.exp_linear(Fraction(m, 3), order)
    assert e.truncate(cut) == Egf.exp_linear(Fraction(m, 3), cut)
    assert hash(e.truncate(cut)) == hash(Egf([Fraction(m, 3) ** k for k in range(cut + 1)]))


def test_coefficients_read_as_plain_fractions():
    f, g = Egf.exp_linear(3, 40), log1p_scaled(2, 40)
    h = Egf([1, Fraction(1, 2), 3])
    results = [
        f, g, h, f * g, f * f, g * g, g.mul(g.shift_down().truncate(40 - 1)), f + g, f - g, -g, Fraction(2, 3) * f,
        f.inv(), (f - Egf.one(40)).exp(), f.log(), h.pow(Fraction(1, 3)), f.compose(g), g.reverse(),
        g.reverse_lagrange(), g.shift_down(), f.truncate(7), Egf.zero(3), Egf.t(3), Egf.one_plus_ct(2, 5),
    ]
    for r in results:
        assert all(type(c) is Fraction for c in r.a)
        assert type(r.coeff(r.order)) is Fraction


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
        lambda: stepped_product(2, True),
        lambda: stepped_product(2, 0.5),
    ],
    ids=[
        "egf-float", "egf-integral-float", "egf-lone-bool", "egf-str", "egf-exp-linear-float",
        "egf-exp-linear-bool", "egf-bool", "egf-pow-float", "egf-pow-bool", "egf-one-plus-ct-float-order0",
        "whitney1-row-egf-float", "whitney1-row-egf-float-n0", "whitney1-array-float", "whitney2-row-egf-float",
        "whitney2-row-egf-bool", "expm1-bool", "log1p-float", "log1p-bool", "poly-float", "poly-bool",
        "poly-times-float", "ord-riordan-float", "stepped-product-bool-step", "stepped-product-float-step",
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
        lambda: Egf.one(-2),
        lambda: Egf.zero(-1),
        lambda: Egf.t(True),
        lambda: Egf.t(0),
        lambda: Egf.exp_linear(2, -1),
        lambda: Egf.one_plus_ct(2, -1),
        lambda: expm1_scaled(2, -1),
        lambda: log1p_scaled(2, -3),
        lambda: forward_difference_op(2, -1),
        lambda: shift_op(1, -1),
        lambda: expm1_scaled(2, 5).coeff(-1),
        lambda: expm1_scaled(2, 5).coeff(1.5),
        lambda: whitney2_array(2, 1, 4).a_sequence(-1),
        lambda: OrdRiordan([1, 1, 1], [0, 1, 1]).z_sequence(-1),
        lambda: seq_az(whitney2_array(2, 1, 4), -1),
        lambda: sheffer_polys(Egf.one(4), Egf.t(4), 1.5),
        lambda: sheffer_polys(Egf.one(4), Egf.t(4), -1),
    ],
    ids=[
        "forward-difference-m0", "scaled-log-m0", "binomial-power-m0", "scaled-log-negative-m",
        "grammar-bool-m", "grammar-float-m", "whitney2-row-bool-n", "whitney2-row-float-n",
        "whitney2-row-egf-negative-n", "whitney1-row-egf-negative-n", "cauchy-negative-n",
        "touchard-inverse-m0", "dowling-inverse-negative-m", "identity-bool-max-n",
        "egf-one-negative-order", "egf-zero-negative-order", "egf-t-bool-order", "egf-t-order0",
        "exp-linear-negative-order", "one-plus-ct-negative-order", "expm1-negative-order",
        "log1p-negative-order", "forward-difference-negative-order", "shift-op-negative-order",
        "egf-coeff-negative-index", "egf-coeff-float-index", "a-sequence-negative-index",
        "z-sequence-negative-index", "seq-az-negative-index", "sheffer-polys-float-count",
        "sheffer-polys-negative-count",
    ],
)
def test_bad_parameters_are_refused(build):
    # m must be a positive int and n, k, max_n and series orders nonnegative
    # ints (t's order positive), at every entry point
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
