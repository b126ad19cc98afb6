"""sympy as an external oracle for the classical cases m = 1, r = 0.

sympy is a test-only dependency; nothing under src/ imports it.
"""

from fractions import Fraction

import pytest

from whitney.triangles import bell_numbers, bernoulli_numbers, euler_zero_values, whitney2_row

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

N = 30


def rat(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def test_bernoulli_numbers_against_sympy():
    got = bernoulli_numbers(N)
    # sympy takes B_1 = +1/2; whitney keeps t/(e^t - 1), where B_1 = -1/2
    assert rat(sympy.bernoulli(1)) == Fraction(1, 2)
    assert got[1] == Fraction(-1, 2)
    assert got[:1] + got[2:] == [rat(sympy.bernoulli(n)) for n in range(N + 1) if n != 1]


def test_euler_zero_values_against_sympy():
    assert euler_zero_values(N) == [rat(sympy.euler(n, 0)) for n in range(N + 1)]


def test_whitney2_at_m1_r0_is_stirling2():
    for n in range(N + 1):
        assert whitney2_row(1, 0, n) == [int(stirling(n, k)) for k in range(n + 1)]


def test_bell_numbers_against_sympy():
    assert bell_numbers(N) == [int(sympy.bell(n)) for n in range(N + 1)]
