"""The integer Bareiss determinant against a cofactor expansion, and the
factored sides of whitney-convolution, spivey and dowling-to-bernoulli
against their printed double and triple sums, written out here."""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.identities import REGISTRY, exact_det
from whitney.poly import Poly
from whitney.triangles import (
    bernoulli_numbers,
    bernoulli_poly,
    dowling_poly,
    m_stirling2_row,
    whitney2_row,
)

FEW = settings(max_examples=30, deadline=None)

ints = st.integers(-9, 9)
rats = st.one_of(ints, st.fractions(-9, 9, max_denominator=7))
# mostly zeros: leading zeros that need a row swap, and singular matrices
sparse = st.sampled_from((0, 0, 0, 1, -2, Fraction(1, 3)))
small_r = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))


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
