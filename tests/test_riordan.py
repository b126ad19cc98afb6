import inspect
import io
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import bernoulli_recurrence, csv_rows, falling_integral
from whitney.errors import (
    BadConstantTerm,
    BadParameter,
    NotInvertible,
    OrderExceeded,
)
from whitney.grammar import whitney_grammar, whitney_row_from_grammar
from whitney.operators import shift_op
from whitney.poly import Poly
from whitney.qformat import write
from whitney.riordan import (
    ExpRiordan,
    _connection_arrays,
    connection_constants,
    identity_array,
    sheffer_polys,
    whitney1_array,
    whitney2_array,
)
from whitney import series
from whitney.series import Egf, expm1_scaled, log1p_scaled
from whitney.triangles import (
    _rows,
    bernoulli_poly,
    dowling_poly,
    euler_poly,
    whitney1_row,
    whitney2_row,
)


def test_identity_array_entries():
    ident = identity_array(6)
    for n in range(7):
        for k in range(7):
            assert ident.entry(n, k) == (1 if n == k else 0)


def test_whitney_array_entries_match_rows():
    w2 = whitney2_array(2, 3, 8)
    w1 = whitney1_array(2, 3, 8)
    assert w2.entry(2, 1) == 8
    assert w1.entry(2, 0) == 15
    for n in range(9):
        assert [w2.entry(n, k) for k in range(n + 1)] == whitney2_row(2, 3, n)
        assert [w1.entry(n, k) for k in range(n + 1)] == whitney1_row(2, 3, n)


def test_entry_bounds():
    arr = identity_array(4)
    assert arr.entry(2, 4) == 0
    with pytest.raises(OrderExceeded):
        arr.entry(5, 0)


@pytest.mark.parametrize("call", [
    lambda: whitney2_array(1, 0, 5).column(True),
    lambda: whitney2_array(1, 0, 5).column(-1),
    lambda: whitney2_array(1, 0, 5).entry(3, True),
    lambda: whitney2_array(1, 0, 5).entry(3, 1.0),
    lambda: whitney2_array(1, 0, 5).column(1.5),
    lambda: whitney2_array(1, 0, 5).column(Fraction(1)),
    lambda: whitney2_array(1, 0, 5).entry(3, -1),
    lambda: whitney2_array(1, 0, 5).a_sequence(True),
    lambda: whitney2_array(1, 0, 5).a_sequence(1.5),
    lambda: whitney2_array(1, 0, 5).entry(True, 0),
    lambda: whitney2_array(1, 0, 5).entry(1.5, 1),
    lambda: whitney2_array(1, 0, 5).entry(-1, 0),
    lambda: whitney2_array(2, 1, 5).rows(-1),
    lambda: whitney2_array(2, 1, 5).rows(True),
    lambda: whitney2_array(2, 1, 5).rows(1.5),
])
def test_columns_gate_k(call):
    # column(True) used to return column 1; entry(True, 0) read row 1,
    # entry(1.5, 1) raised a bare TypeError and entry(-1, 0) returned 0;
    # rows(-1) returned [], rows(True) two rows and rows(1.5) a bare TypeError
    with pytest.raises(BadParameter):
        call()


def test_constructor_validation():
    with pytest.raises(NotInvertible):
        ExpRiordan(Egf.t(4), Egf.t(4))  # g vanishes at 0
    with pytest.raises(NotInvertible):
        ExpRiordan(Egf.one(4), Egf.one(4))  # f does not vanish
    with pytest.raises(NotInvertible):
        ExpRiordan(Egf.one(4), Egf([0, 0, 1, 0, 0]))  # f'(0) = 0


@pytest.mark.parametrize(
    "value, attr",
    [
        (whitney_grammar(2), "y_image"),
        (shift_op(1, 3), "series"),
        (identity_array(3), "g"),
    ],
)
def test_values_refuse_attribute_assignment(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, getattr(value, attr))


def test_mul_with_identity():
    w2 = whitney2_array(3, 2, 8)
    ident = identity_array(8)
    assert w2.mul(ident).rows(8) == w2.rows(8)
    assert ident.mul(w2).rows(8) == w2.rows(8)


def test_pascal_square():
    pascal = ExpRiordan(Egf.exp_linear(1, 8), Egf.t(8))
    square = pascal.mul(pascal)
    for n in range(9):
        for k in range(n + 1):
            assert square.entry(n, k) == comb(n, k) * 2 ** (n - k)


def test_matrix_of_product_is_product_of_matrices():
    rng = random.Random(17)
    for _ in range(6):
        g1 = Egf([rng.choice([1, 2])] + [rng.randint(-3, 3) for _ in range(8)])
        f1 = Egf([0, rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(7)])
        g2 = Egf([rng.choice([1, -1])] + [rng.randint(-3, 3) for _ in range(8)])
        f2 = Egf([0, rng.choice([1, 2])] + [rng.randint(-3, 3) for _ in range(7)])
        r1, r2 = ExpRiordan(g1, f1), ExpRiordan(g2, f2)
        prod = r1.mul(r2)
        n = prod.order
        for i in range(n + 1):
            for k in range(i + 1):
                want = sum(r1.entry(i, j) * r2.entry(j, k) for j in range(k, i + 1))
                assert prod.entry(i, k) == want


def test_inverse_of_identity():
    ident = identity_array(6)
    assert ident.inverse().rows(6) == ident.rows(6)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_inverse_of_second_kind_is_first_kind(m, r):
    w2 = whitney2_array(m, r, 10)
    w1 = whitney1_array(m, r, 10)
    assert w2.inverse().rows(10) == w1.rows(10)
    assert w1.mul(w2).rows(10) == identity_array(10).rows(10)


@pytest.mark.parametrize("order", [36, 37])
@pytest.mark.parametrize("m, r", [(m, r) for m in (2, 3) for r in range(1, 5)])
def test_inverse_of_second_kind_is_first_kind_at_the_benchmark_orders(m, r, order):
    assert whitney2_array(m, r, order).inverse() == whitney1_array(m, r, order)


def test_inverse_g_part_coefficient():
    inv = ExpRiordan(Egf.exp_linear(3, 8), expm1_scaled(2, 8)).inverse()
    assert inv.g.a[1] == -3  # (1+2t)^{-3/2} starts 1 - 3t + ...


def test_a_sequence_identity_array():
    assert identity_array(6).a_sequence(5) == [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_sequences_are_scaled_cauchy_and_bernoulli(m):
    cauchy = [falling_integral(j) for j in range(9)]
    bern = bernoulli_recurrence(8)
    a2 = whitney2_array(m, 1, 10).a_sequence(8)
    a1 = whitney1_array(m, 1, 10).a_sequence(8)
    assert a2 == [cauchy[j] * m ** j for j in range(9)]
    assert a1 == [bern[j] * m ** j for j in range(9)]


def test_a_sequence_worked_values():
    assert whitney2_array(2, 3, 6).a_sequence(2) == [1, 1, Fraction(-2, 3)]
    assert whitney1_array(2, 3, 6).a_sequence(2) == [1, -1, Fraction(2, 3)]


def test_a_sequence_through_index_four():
    w2 = whitney2_array(2, 3, 8)
    assert w2.a_sequence(4) == [1, 1, Fraction(-2, 3), 2, Fraction(-152, 15)]
    assert w2.a_sequence(4) == w2.a_sequence()[:5]


def test_row_recurrences_hold_to_ten():
    from whitney.registry import run_check

    overrides = {"max_n": 10, "m": (1, 2), "r": (0, 1, 2)}
    assert run_check("az-recurrences-W2", overrides).status == "pass"
    assert run_check("az-recurrences-W1", overrides).status == "pass"


# -- export, refusals and equality -----------------------------------------


def test_array_export_round_trip():
    import json

    w1 = whitney1_array(2, 3, 3)
    csv, text = io.StringIO(), io.StringIO()
    write(csv, "csv", w1.rows(), {})
    write(text, "json", w1.rows(), {"order": w1.order})
    assert csv_rows(csv.getvalue())[2] == [15, -8, 1]
    data = json.loads(text.getvalue())
    assert data["order"] == 3
    assert data["rows"][3] == ["-105", "71", "-15", "1"]


@pytest.mark.parametrize("call, error", [
    (lambda: whitney2_array(1, 0, 3).column(4), OrderExceeded),
    (lambda: whitney2_array(1, 0, 3).a_sequence(3), OrderExceeded),  # t/fbar has order 2
    (lambda: Egf([1, 1]) * 0.5, ValueError),
    (lambda: Egf([0]).reverse(), NotInvertible),  # no linear term to invert
    (lambda: whitney2_array(1, 0, 3).entry(2, 4), OrderExceeded),  # k past the order
    (lambda: Egf([1, 1]).reverse_lagrange(), NotInvertible),  # f(0) != 0
    (lambda: whitney2_array(1, 0, 3).rows(4), OrderExceeded),
    (lambda: sheffer_polys(Egf.one(3), Egf.t(3), 4), OrderExceeded),
    (lambda: Egf(()), ValueError),
    (lambda: Egf([1, 1]).shift_down(), BadConstantTerm),
    (lambda: Egf([0]).shift_down(), OrderExceeded),
    (lambda: whitney_row_from_grammar(2, -1, 3), BadParameter),
])
def test_refusals_past_the_order_or_off_the_domain(call, error):
    with pytest.raises(error):
        call()


def test_exp_arrays_are_equal_up_to_the_common_order():
    assert whitney2_array(2, 3, 8) == whitney2_array(2, 3, 5)
    assert whitney2_array(2, 3, 8) != whitney2_array(2, 2, 8)
    assert whitney2_array(2, 3, 8) != object()
    with pytest.raises(TypeError):
        hash(whitney2_array(2, 3, 5))


# -- Sheffer families and connection constants -----------------------------


def _bernoulli_pair(order):
    return (expm1_scaled(1, order + 1).shift_down(), Egf.t(order))


def _euler_pair(order):
    return (Fraction(1, 2) * (Egf.exp_linear(1, order) + Egf.one(order)), Egf.t(order))


def _dowling_pair(m, r, order):
    g = Egf.one_plus_ct(m, order).pow(-Fraction(r) / m)
    return (g, log1p_scaled(m, order))


def test_sheffer_polys_reproduce_known_families():
    g, f = _bernoulli_pair(8)
    polys = sheffer_polys(g, f, 6)
    for n in range(7):
        assert polys[n] == bernoulli_poly(n)
    g, f = _dowling_pair(2, 3, 8)
    polys = sheffer_polys(g, f, 6)
    for n in range(7):
        assert polys[n] == dowling_poly(2, 3, n)


def test_connection_constants_source_equals_target():
    pair = _dowling_pair(2, 1, 8)
    arr = connection_constants(pair, pair)
    assert arr.rows(8) == identity_array(8).rows(8)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_connection_constants_reconstruct_all_four_directions(m, r):
    order = 8
    dow = _dowling_pair(m, r, order)
    for src_pair, src_family, tgt_pair, tgt_family in (
        (dow, lambda n: dowling_poly(m, r, n), _bernoulli_pair(order), bernoulli_poly),
        (dow, lambda n: dowling_poly(m, r, n), _euler_pair(order), euler_poly),
        (_bernoulli_pair(order), bernoulli_poly, dow, lambda n: dowling_poly(m, r, n)),
        (_euler_pair(order), euler_poly, dow, lambda n: dowling_poly(m, r, n)),
    ):
        arr = connection_constants(src_pair, tgt_pair)
        for n in range(7):
            rebuilt = Poly()
            for k in range(n + 1):
                rebuilt = rebuilt + arr.entry(n, k) * src_family(k)
            assert rebuilt == tgt_family(n)


def test_bernoulli_into_dowling_row_one():
    # expanding the degree-1 Bernoulli member: constants are [-1/2 - r, 1]
    arr = connection_constants(_dowling_pair(2, 3, 6), _bernoulli_pair(6))
    assert arr.entry(1, 0) == Fraction(-1, 2) - 3
    assert arr.entry(1, 1) == 1
    assert bernoulli_poly(1) == (Fraction(-1, 2) - 3) * dowling_poly(2, 3, 0) + dowling_poly(
        2, 3, 1
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7)), min_size=1, max_size=4),
       st.integers(1, 8), st.sampled_from((_bernoulli_pair, _euler_pair)))
def test_shared_delta_series_gives_each_target_its_own_array(m, rs, order, pair):
    # the helper reverses l and composes it into the source once for every h
    source, l = pair(order), log1p_scaled(m, order)
    hs = [whitney1_array(m, r, order).g for r in rs]
    array_to = _connection_arrays(source, l)
    got = [array_to(h) for h in hs]
    for arr, h in zip(got, hs):
        want = connection_constants(source, (h, l))
        assert (arr.g, arr.f) == (want.g, want.f) and arr.rows() == want.rows()


@pytest.mark.parametrize("build", [whitney1_array, whitney2_array, whitney1_row, whitney2_row])
@pytest.mark.parametrize("m", [0, -2, True, 2.0, Fraction(2)])
def test_arrays_gate_m_as_the_row_store_does(build, m):
    # m = 0 used to divide by zero in whitney1_array and give the Pascal
    # array in whitney2_array
    with pytest.raises(ValueError, match="m must be a positive integer"):
        build(m, 1, 3)


def test_columns_are_built_without_recursion():
    # column k is stepped from column k - 1 in a loop, so a high column
    # needs no stack frame per k below it; entry always steps, and so does
    # column(k) once the columns below it are built
    arr = whitney2_array(1, 0, 100)
    rows = _rows("whitney2", 1, 0, 100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        assert arr.entry(100, 55) == rows[100][55]
        col = arr.column(60)  # five columns missing: stepped
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(arr._cols) == list(range(61))
    assert list(col.a) == [rows[n][60] if n >= 60 else 0 for n in range(101)]


def test_a_high_column_is_read_off_g_phi_k_and_not_kept():
    # with no column below it built, column 60 comes from one power of
    # phi = f / t, so no column is stepped and none is stored
    for build, kind in ((whitney2_array, "whitney2"), (whitney1_array, "whitney1")):
        arr = build(2, Fraction(-1, 3), 100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            col = arr.column(60)
        finally:
            sys.setrecursionlimit(limit)
        assert list(arr._cols) == [0]
        rows = _rows(kind, 2, Fraction(-1, 3), 100)
        assert list(col.a) == [rows[n][60] if n >= 60 else 0 for n in range(101)]


def test_column_300_at_order_600_is_direct_and_fast():
    # stepping 300 full-order products took seconds; the row store is the oracle
    rows = _rows("whitney2", 1, 0, 600)
    start = time.perf_counter()
    col = whitney2_array(1, 0, 600).column(300)
    elapsed = time.perf_counter() - start
    assert list(col.a) == [rows[n][300] if n >= 300 else 0 for n in range(601)]
    assert elapsed < 2.0


def _scaled_array(m, r, order):
    # f'(0) = -3/2, so phi / f_1 and f_1^k are not the identity
    return ExpRiordan(Egf.exp_linear(r, order), Fraction(-3, 2) * log1p_scaled(m, order))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((whitney1_array, whitney2_array, _scaled_array)), st.integers(1, 4),
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)), st.data())
def test_direct_column_equals_the_stepped_one(build, m, r, data):
    order = data.draw(st.integers(1, 40), label="order")
    k = data.draw(st.integers(0, order), label="k")
    stepped = build(m, r, order)
    want = stepped._col(k)
    got = build(m, r, order).column(k)
    assert got == want
    assert list(got.a) == list(want.a) and list(map(type, got.a)) == list(map(type, want.a))
    assert stepped.column(k) is want  # a built column is read back, not rebuilt


@pytest.mark.parametrize("arr", [whitney2_array(3, Fraction(1, 3), 12), whitney1_array(2, -5, 12),
                                 whitney1_array(3, 2, 33).inverse()])
def test_rows_are_the_entries_as_fractions(arr):
    rows = arr.rows()
    assert [len(row) for row in rows] == list(range(1, arr.order + 2))
    assert all(type(v) is Fraction for row in rows for v in row)
    assert rows == [[arr.entry(i, k) for k in range(i + 1)] for i in range(arr.order + 1)]
    assert arr.rows(5) == rows[:6]


def test_each_array_prepares_f_once(monkeypatch):
    # the ordinary numerators of f, and of compose's inner series, are built
    # on first use and kept; only the other factor's are built per product
    seen = []
    real = series._ordinary_numerators
    monkeypatch.setattr(series, "_ordinary_numerators", lambda A, d, n: seen.append(tuple(A)) or real(A, d, n))
    arr = whitney1_array(2, 1, 40)
    arr.rows()
    assert seen.count(arr.f._n) == 1 and len(seen) > 10  # a column per ordinary-form step
    seen.clear()
    fbar = expm1_scaled(3, 37).reverse()  # ln(1 + 3t)/3, as in whitney2_array(3, 2, 37).inverse()
    Egf.exp_linear(2, 37).compose(fbar)
    assert seen.count(fbar._n) == 1 and len(seen) > 2


fracs = st.fractions(-5, 5, max_denominator=6)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), fracs, st.integers(1, 8))
def test_rows_are_the_entries_at_a_rational_r(m, r, order):
    # the connection-constant route reads its rows this way, never through entry
    w1 = whitney1_array(m, r, order)
    for arr in (whitney2_array(m, r, order), w1, w1.inverse()):
        rows = arr.rows()
        assert all(type(v) is Fraction for row in rows for v in row)
        assert rows == [[arr.entry(n, k) for k in range(n + 1)] for n in range(order + 1)]
