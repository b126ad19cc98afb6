import io
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from oracle_helpers import bell_recurrence
from whitney.errors import BadConstantTerm, BadParameter, NotInvertible, OrderExceeded
from whitney.qformat import parse_rat, write
from whitney.series import Egf, expm1_scaled, log1p_scaled
from whitney.triangles import dowling_poly


def test_mul_exp_squares():
    e = Egf.exp_linear(1, 8)
    assert (e * e).a == tuple(Fraction(2) ** n for n in range(9))


def test_mul_t_times_t():
    t = Egf.t(4)
    assert (t * t).a == (0, 0, 2, 0, 0)


def test_mul_reciprocal_pair_is_one():
    # t/(e^t - 1) times (e^t - 1)/t
    base = (Egf.exp_linear(1, 11) - Egf.one(11)).shift_down()
    assert base.inv() * base == Egf.one(10)


def test_exp_of_t_is_exponential():
    assert Egf.t(8).exp() == Egf.exp_linear(1, 8)


def test_log_of_one_plus_t():
    got = Egf.one_plus_ct(1, 8).log()
    want = [0] + [(-1) ** (n - 1) * factorial(n - 1) for n in range(1, 9)]
    assert list(got.a) == want


def test_pow_binomial_series():
    got = Egf.one_plus_ct(2, 4).pow(Fraction(-3, 2))
    assert got.a[1] == -3
    assert got.a[2] == 15
    assert got.a[3] == -105


def test_pow_one_is_identity():
    f = Egf([1, 2, -3, 4, 5])
    assert f.pow(1) == f


def test_bad_constant_term_errors():
    with pytest.raises(BadConstantTerm):
        Egf.one(4).exp()
    with pytest.raises(BadConstantTerm):
        Egf.t(4).log()
    with pytest.raises(BadConstantTerm):
        (2 * Egf.one(4)).pow(Fraction(1, 2))
    with pytest.raises(BadConstantTerm):
        Egf.t(4).compose(Egf.one(4))
    with pytest.raises(NotInvertible):
        Egf.t(4).inv()


def test_compose_identity_inner():
    f = Egf([1, 5, -2, 7, 0, 3])
    assert f.compose(Egf.t(5)) == f


def test_compose_bell_numbers():
    # exp(e^t - 1) generates the Bell numbers
    inner = Egf.exp_linear(1, 10) - Egf.one(10)
    got = Egf.exp_linear(1, 10).compose(inner)
    assert list(got.a) == bell_recurrence(10)


def test_compose_inverse_pair_gives_t():
    comp = expm1_scaled(2, 12).compose(log1p_scaled(2, 12))
    assert comp == Egf.t(12)
    comp = log1p_scaled(2, 12).compose(expm1_scaled(2, 12))
    assert comp == Egf.t(12)


def test_reverse_identity():
    assert Egf.t(6).reverse() == Egf.t(6)


def test_reverse_exp_minus_one():
    got = (Egf.exp_linear(1, 10) - Egf.one(10)).reverse()
    want = [0] + [(-1) ** (n - 1) * factorial(n - 1) for n in range(1, 11)]
    assert list(got.a) == want
    assert got.compose(Egf.exp_linear(1, 10) - Egf.one(10)) == Egf.t(10)


def test_reverse_scaled_pair():
    got = expm1_scaled(2, 6).reverse()
    assert got.a[1] == 1 and got.a[2] == -2 and got.a[3] == 8
    assert got == log1p_scaled(2, 6)


def test_reverse_errors():
    with pytest.raises(NotInvertible):
        Egf.one(4).reverse()
    with pytest.raises(NotInvertible):
        Egf([0, 0, 1, 0]).reverse()


def test_reverse_matches_lagrange_and_round_trips():
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [0, rng.choice([1, -1, 2])] + [rng.randint(-4, 4) for _ in range(9)]
        f = Egf(coeffs)
        rev = f.reverse()
        assert rev == f.reverse_lagrange()
        assert f.compose(rev) == Egf.t(10)
        assert rev.compose(f) == Egf.t(10)


def test_mul_commutative_associative_random():
    rng = random.Random(5)
    for _ in range(20):
        a = Egf([rng.randint(-5, 5) for _ in range(9)])
        b = Egf([rng.randint(-5, 5) for _ in range(9)])
        c = Egf([rng.randint(-5, 5) for _ in range(9)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_exp_log_round_trip_random():
    rng = random.Random(3)
    for _ in range(20):
        f = Egf([0] + [rng.randint(-4, 4) for _ in range(8)])
        assert f.exp().log() == f
        g = Egf([1] + [rng.randint(-4, 4) for _ in range(8)])
        assert g.log().exp() == g


@pytest.mark.parametrize("m,r", [(1, 0), (2, 3), (3, 1)])
def test_dowling_series_matches_row_polynomials(m, r):
    # exp(rt + u (e^{mt}-1)/m) at u = 1, 2, 3 against the triangle rows
    for u in (1, 2, 3):
        arg = Egf([0, r] + [0] * 9) + u * expm1_scaled(m, 10)
        series = arg.exp()
        for n in range(11):
            assert series.a[n] == dowling_poly(m, r, n)(u)


def test_mixed_orders_truncate_to_min():
    a = Egf([1, 1, 1, 1])
    b = Egf([1, 1])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_coeff_and_truncate_bounds():
    f = Egf([1, 2, 3])
    assert f.coeff(2) == 3
    with pytest.raises(OrderExceeded):
        f.coeff(3)
    assert f.truncate(1).a == (1, 2)
    with pytest.raises(OrderExceeded):
        f.truncate(5)


@pytest.mark.parametrize("order", [True, 1.5, -1, Fraction(1)])
def test_truncate_gates_the_order(order):
    # True used to act as 1, and 1.5 to raise a bare TypeError
    with pytest.raises(BadParameter):
        Egf([1, 2, 3]).truncate(order)


def test_json_round_trip():
    f = Egf([1, Fraction(-1, 2), Fraction(1, 6), 0])
    out = io.StringIO()
    write(out, "json", f.a, {"order": f.order}, "egf_coeffs", flat=True)
    text = out.getvalue()
    assert '"order": 3' in text
    assert Egf([parse_rat(v) for v in json.loads(text)["egf_coeffs"]]) == f
