import random
from fractions import Fraction

import pytest

from oracle_helpers import set_partitions, stirling2_brute
from whitney.errors import StrayMonomial
from whitney.grammar import (
    XYPoly,
    derive_n,
    derive_once,
    row_from_derivative,
    stirling_grammar,
    whitney_grammar,
    whitney_row_from_grammar,
)
from whitney.triangles import dowling_poly, whitney2_row


def mono(a, b, c=1):
    return XYPoly.monomial(a, b, c)


def test_xypoly_normalization():
    assert XYPoly({(1, 2): 0}) == XYPoly.zero()
    assert mono(1, 2) + mono(1, 2, -1) == XYPoly.zero()
    assert mono(1, 0) * mono(0, 3, 2) == mono(1, 3, 2)
    with pytest.raises(ValueError):
        XYPoly({(-1, 0): 1})
    assert repr(XYPoly.monomial(1, Fraction(1, 2), 3)) == "XYPoly(3*y^1*x^1/2)"


@pytest.mark.parametrize("call", [
    lambda: XYPoly({(1, 2): 0.5}),
    lambda: XYPoly({(1, 2): True}),
    lambda: XYPoly.monomial(1, 2, 0.5),
    lambda: XYPoly.monomial(1, 2) * 0.5,
    lambda: 0.5 * XYPoly.monomial(1, 2),
    lambda: XYPoly.monomial(1, 2) * True,
    # exponents are gated as coefficients are
    lambda: XYPoly({(1, 0.5): 1}),
    lambda: XYPoly({(True, 2): 1}),
    lambda: XYPoly.monomial(1, 2.0),
])
def test_xypoly_refuses_inexact_coefficients(call):
    with pytest.raises(ValueError):
        call()


def test_xypoly_operations_keep_the_normal_form():
    # sums, products and derivatives build their dict already merged; the
    # result must be what the checked public constructor would store
    p = XYPoly({(0, 1): 2, (1, 0): Fraction(1, 2), (2, 3): -1})
    q = XYPoly({(0, 1): -2, (1, 1): 3})
    results = [p + q, q + p, p - p, p * q, p * (q - q), 0 * p, q * Fraction(2, 3),
               derive_once(whitney_grammar(2), p), derive_once(stirling_grammar(), q)]
    for got in results:
        assert got == XYPoly(got.terms)
        assert list(got.terms) == list(XYPoly(got.terms).terms)
        assert all(c != 0 for c in got.terms.values())
    assert p + q == XYPoly({(1, 0): Fraction(1, 2), (2, 3): -1, (1, 1): 3})
    assert (p - p).terms == {} and not (0 * p)
    assert derive_once(stirling_grammar(), mono(1, 1) - mono(1, 1)) == XYPoly.zero()


def test_whitney_rule_on_y():
    g = whitney_grammar(2)
    assert derive_once(g, mono(1, 0)) == mono(1, 2)


def test_whitney_first_derivative_of_y_x3():
    g = whitney_grammar(2)
    assert derive_once(g, mono(1, 3)) == mono(1, 5) + mono(1, 3, 3)


def test_stirling_rule_leibniz_on_xy():
    g = stirling_grammar()
    assert derive_once(g, mono(1, 1)) == mono(1, 2) + mono(1, 1)


def test_derive_zero_times_is_identity():
    g = whitney_grammar(3)
    p = mono(1, 2, 5) + mono(0, 4, -1)
    assert derive_n(g, p, 0) == p


def test_second_derivative_m2_r3():
    g = whitney_grammar(2)
    got = derive_n(g, mono(1, 3), 2)
    assert got == mono(1, 7) + mono(1, 5, 8) + mono(1, 3, 9)


def test_stirling_rows_from_brute_force():
    g = stirling_grammar()
    got = derive_n(g, mono(1, 0), 3)
    assert got == mono(1, 3) + mono(1, 2, 3) + mono(1, 1, 1)
    # [m]=1, r=0 rows are plain second-kind Stirling rows
    assert whitney_row_from_grammar(1, 0, 4) == [0, 1, 7, 6, 1]
    assert stirling2_brute(4, 2) == 7
    for n in range(6):
        row = whitney_row_from_grammar(1, 0, n)
        for k in range(n + 1):
            assert row[k] == stirling2_brute(n, k)


def test_row_base_case_and_worked_example():
    assert whitney_row_from_grammar(2, 2, 0) == [1]
    assert whitney_row_from_grammar(2, 2, 2) == [4, 6, 1]
    assert whitney_row_from_grammar(2, 3, 2) == [9, 8, 1]


def test_leibniz_property_random():
    rng = random.Random(23)
    for m in (1, 2, 3):
        g = whitney_grammar(m)
        for _ in range(15):
            p = XYPoly(
                {(rng.randint(0, 2), rng.randint(0, 3)): rng.randint(-3, 3) for _ in range(3)}
            )
            q = XYPoly(
                {(rng.randint(0, 2), rng.randint(0, 3)): rng.randint(-3, 3) for _ in range(3)}
            )
            assert derive_once(g, p * q) == derive_once(g, p) * q + p * derive_once(g, q)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_derivative_equals_row_polynomial_in_xm(m, r):
    g = whitney_grammar(m)
    state = XYPoly.monomial(1, r)
    for n in range(9):
        d = dowling_poly(m, r, n)
        want = XYPoly({(1, m * k + r): d.coeff(k) for k in range(n + 1)})
        assert state == want
        state = derive_once(g, state)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_grammar_rows_match_recurrence(m, r):
    for n in range(11):
        assert whitney_row_from_grammar(m, r, n) == whitney2_row(m, r, n)


def test_stray_monomial_detected():
    # reading a derivative against the wrong (m, r) must fail loudly
    p = derive_n(whitney_grammar(2), mono(1, 1), 2)
    with pytest.raises(StrayMonomial):
        row_from_derivative(p, 2, 0, 2)
    with pytest.raises(StrayMonomial):
        row_from_derivative(mono(2, 0), 1, 0, 1)


def test_partition_oracle_consistency():
    # the brute-force partition generator itself is sane: Bell(4) = 15
    assert sum(1 for _ in set_partitions(range(4))) == 15
