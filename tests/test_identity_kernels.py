"""The kernels under the identity evaluators, each against a sum written
out here: ``lincomb`` and the derivative-series operators against plain
Fraction sums, the integer Bareiss determinant against a cofactor
expansion, and the factored sides of whitney-convolution, spivey,
dowling-to-bernoulli, dowling-to-euler, the Bernoulli/Euler expansions in
the Dowling family and the A-sequence rows against their printed sums."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.identities import exact_det
from whitney.operators import DiffOpSeries
from whitney.poly import Poly, lincomb
from whitney.registry import REGISTRY
from whitney.series import Egf
from whitney.triangles import (
    bernoulli_numbers,
    bernoulli_poly,
    cauchy_numbers,
    dowling_poly,
    euler_poly,
    euler_zero_values,
    m_stirling2_row,
    whitney1_row,
    whitney2_row,
)

FEW = settings(max_examples=30, deadline=None)

ints = st.integers(-9, 9)
rats = st.one_of(ints, st.fractions(-9, 9, max_denominator=7))
# mostly zeros: leading zeros that need a row swap, and singular matrices
sparse = st.sampled_from((0, 0, 0, 1, -2, Fraction(1, 3)))
small_r = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))


# a coefficient sequence, zeros included, and its Poly
coeff_lists = st.lists(st.one_of(rats, st.just(0)), max_size=6)
polys = coeff_lists.map(Poly)
int_polys = st.lists(ints, max_size=6).map(Poly)


def fraction_sum(terms):
    """sum c * p, coefficient by coefficient, in Fractions."""
    width = max((len(p.coeffs) for _, p in terms), default=0)
    out = [Fraction(0)] * width
    for c, p in terms:
        for i, a in enumerate(p.coeffs):
            out[i] += Fraction(c) * Fraction(a)
    return Poly(out)


@FEW
@given(st.lists(st.tuples(st.one_of(rats, st.just(0)), polys), max_size=6))
def test_lincomb_is_the_written_out_sum(terms):
    got = lincomb(iter(terms))
    assert got == fraction_sum(terms)
    # every coefficient is canonical: an int when integral, else a Fraction
    assert all(type(a) is (int if Fraction(a).denominator == 1 else Fraction) for a in got.coeffs)


@FEW
@given(st.lists(st.tuples(ints, int_polys), max_size=6))
def test_lincomb_of_int_terms_stays_int(terms):
    got = lincomb(terms)
    assert got == fraction_sum(terms)
    assert all(type(a) is int for a in got.coeffs)


@pytest.mark.parametrize("terms", [[(1.5, Poly((1,)))], [(True, Poly((1,)))]])
def test_lincomb_refuses_inexact_values(terms):
    with pytest.raises(ValueError):
        lincomb(terms)


@FEW
@given(st.lists(rats, min_size=1, max_size=7), coeff_lists)
def test_diffop_series_is_the_written_out_sum(b, cs):
    # sum_k b_k / k! D^k p, where D^k x^(i+k) = (i+k)!/i! x^i
    cs = cs[: len(b)]  # degree within the operator's order
    want = [
        sum((Fraction(b[k], factorial(k)) * Fraction(factorial(i + k), factorial(i)) * cs[i + k]
             for k in range(len(b)) if i + k < len(cs)), Fraction(0))
        for i in range(len(cs))
    ]
    assert DiffOpSeries(Egf(b))(Poly(cs)) == Poly(want)


def cofactor_det(rows):
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, v in enumerate(rows[0]):
        total += (-1) ** j * Fraction(v) * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
    return total


def square(entries, least=0):
    return st.integers(least, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@FEW
@given(st.one_of(square(ints), square(rats), square(sparse)))
def test_exact_det_is_the_cofactor_expansion(rows):
    got = exact_det(rows)
    assert type(got) is Fraction and got == cofactor_det(rows)


@FEW
@given(square(rats, least=3), ints, ints)
def test_exact_det_of_a_dependent_row_is_zero(rows, a, b):
    # the last row a combination of the first two
    rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    assert exact_det(rows) == 0


def walk(name, m, r, n, h=None):
    """Every (params, lhs, rhs) the registered evaluator yields at a one-point m and r."""
    grid = dict(REGISTRY[name].grid, max_n=n, m=(m,), r=(r,))
    if h is not None:
        grid["max_h"] = h
    return list(REGISTRY[name].evaluate(grid))


def W(m, r, n, k):
    return whitney2_row(m, r, n)[k] if 0 <= k <= n else 0


@FEW
@given(st.integers(1, 3), small_r, st.integers(0, 4), st.integers(0, 4))
def test_convolution_is_the_printed_double_sum(m, r, n, h):
    points = walk("whitney-convolution", m, r, n, h)
    assert len(points) == (n + 1) * (h + 1)
    for p, lhs, rhs in points:
        n_, h_ = p["n"], p["h"]
        want = [
            sum(
                comb(n_, k) * W(m, r, h_, j) * W(m, r, k, s - j) * (j * m) ** (n_ - k)
                for k in range(n_ + 1)
                for j in range(h_ + 1)
            )
            for s in range(n_ + h_ + 1)
        ]
        assert rhs == want and lhs == whitney2_row(m, r, n_ + h_)


@FEW
@given(st.integers(1, 3), small_r, st.integers(0, 4), st.integers(0, 4))
def test_spivey_is_the_printed_double_sum(m, r, n, h):
    points = walk("spivey", m, r, n, h)
    want_order = [(a, b) for a in range(n + 1) for b in range(h + 1)]
    assert [(p["n"], p["h"]) for p, _, _ in points] == want_order
    for p, lhs, rhs in points:
        n_, h_ = p["n"], p["h"]
        want = Poly()
        for k in range(n_ + 1):
            for j in range(h_ + 1):
                c = comb(n_, k) * W(m, r, h_, j) * (j * m) ** (n_ - k)
                want = want + c * dowling_poly(m, r, k).mul_xpow(j)
        assert rhs == want and lhs == dowling_poly(m, r, n_ + h_)


@FEW
@given(st.integers(1, 4), small_r, st.integers(0, 5))
def test_dowling_to_bernoulli_is_the_printed_triple_sum(m, r, n):
    p, lhs, rhs = walk("dowling-to-bernoulli", m, r, n)[-1]
    assert p == {"m": m, "r": r, "n": n}
    b = bernoulli_numbers(n + 1)
    want = Poly()
    for k in range(n + 1):
        const = Fraction(
            sum(
                comb(n + 1, l + 1) * comb(l + 1, s + 1) * W(m, r, n - l, k)
                * Fraction(m) ** (l - s) * sum(m_stirling2_row(m, s + 1)) * b[l - s]
                for l in range(n - k + 1)
                for s in range(l + 1)
            ),
            n + 1,
        )
        want = want + const * bernoulli_poly(k)
    assert rhs == want and lhs == dowling_poly(m, r, n)


@FEW
@given(st.integers(1, 4), small_r, st.integers(0, 5))
def test_family_expansions_and_dowling_to_euler_are_the_printed_sums(m, r, n):
    for name, numbers, family in (
        ("bernoulli-to-dowling", bernoulli_numbers, bernoulli_poly),
        ("euler-to-dowling", euler_zero_values, euler_poly),
    ):
        p, lhs, rhs = walk(name, m, r, n)[-1]
        c = numbers(n)
        w = [whitney1_row(m, r, l) for l in range(n + 1)]
        want = Poly()
        for k in range(n + 1):
            const = sum(comb(n, l) * c[n - l] * w[l][k] for l in range(k, n + 1))
            want = want + const * dowling_poly(m, r, k)
        assert p == {"m": m, "r": r, "n": n} and rhs == want and lhs == family(n)
    p, lhs, rhs = walk("dowling-to-euler", m, r, n)[-1]
    t_one = [sum(m_stirling2_row(m, s)) for s in range(n + 1)]
    want = Poly()
    for k in range(n + 1):
        const = Fraction(1, 2) * sum(
            comb(n, l) * W(m, r, n - l, k) * t_one[l] for l in range(n - k + 1)
        ) + Fraction(1, 2) * W(m, r, n, k)
        want = want + const * euler_poly(k)
    assert rhs == want and lhs == dowling_poly(m, r, n)


@FEW
@given(st.integers(1, 4), small_r, st.integers(1, 5))
def test_a_sequence_rows_are_the_printed_sums(m, r, n_max):
    for name, numbers, row in (
        ("az-recurrences-W2", cauchy_numbers, whitney2_row),
        ("az-recurrences-W1", bernoulli_numbers, whitney1_row),
    ):
        c = numbers(n_max)
        points = [pt for pt in walk(name, m, r, n_max) if pt[0]["identity"] == "a-sequence-row"]
        assert [p["n"] for p, _, _ in points] == list(range(n_max))
        for p, lhs, rhs in points:
            n, e = p["n"], row(m, r, p["n"])
            want = [
                sum(Fraction(n + 1, k + 1) * comb(k + j, j) * c[j] * Fraction(m) ** j * e[k + j]
                    for j in range(n - k + 1))
                for k in range(n + 1)
            ]
            assert rhs == want and lhs == row(m, r, n + 1)[1:]
