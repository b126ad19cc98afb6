import random
from fractions import Fraction

import pytest

from whitney.poly import (
    Poly,
    falling_basis_expand,
    from_falling_basis,
    stepped_product,
)
from whitney.triangles import whitney2_row


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
    assert Poly([0, 1]).integral_01() == Fraction(1, 2)
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
