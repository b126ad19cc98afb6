import io
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import bernoulli_recurrence, csv_rows, falling_integral
from whitney.errors import BadParameter, NotInvertible, NotSolvable, OrderExceeded
from whitney.poly import Poly
from whitney.qformat import write
from whitney.riordan import (
    ExpRiordan,
    OrdRiordan,
    SeqAZ,
    _connection_arrays,
    connection_constants,
    identity_array,
    seq_az,
    sheffer_polys,
    whitney1_array,
    whitney2_array,
)
from whitney.series import Egf, expm1_scaled, log1p_scaled
from whitney.triangles import (
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
    lambda: OrdRiordan([1, 1, 1], [0, 1, 1]).entry(2, True),
    lambda: OrdRiordan([1, 1, 1], [0, 1, 1]).entry(2, -1),
    lambda: OrdRiordan([1, 2, 3], [0, 1, 1]).entry(True, 0),
    lambda: OrdRiordan([1, 2, 3], [0, 1, 1]).entry(1.5, 1),
    lambda: OrdRiordan([1, 2, 3], [0, 1, 1]).entry(-1, 0),
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


def test_row_recurrences_hold_to_ten():
    from whitney.registry import run_check

    overrides = {"max_n": 10, "m": (1, 2), "r": (0, 1, 2)}
    assert run_check("az-recurrences-W2", overrides).status == "pass"
    assert run_check("az-recurrences-W1", overrides).status == "pass"


# -- ordinary arrays and the Z-sequence -----------------------------------


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


def test_z_sequence_identity():
    arr = OrdRiordan([1] + [0] * 8, [0, 1] + [0] * 7)
    assert arr.z_sequence(5) == [0] * 6


def test_z_sequence_pascal():
    geom = [1] * 9
    arr = OrdRiordan(geom, [0] + [1] * 8)  # (1/(1-z), z/(1-z))
    assert arr.z_sequence(5) == [1, 0, 0, 0, 0, 0]


def test_z_sequence_all_ones_column():
    arr = OrdRiordan([1] * 9, [0, 1] + [0] * 7)  # (1/(1-z), z)
    assert arr.z_sequence(5) == [1, 0, 0, 0, 0, 0]


def test_z_sequence_column_recurrence():
    rng = random.Random(29)
    for _ in range(6):
        g = [Fraction(rng.choice([1, 2, -1]))] + [
            Fraction(rng.randint(-3, 3)) for _ in range(8)
        ]
        f = [Fraction(0), Fraction(rng.choice([1, -1, 2]))] + [
            Fraction(rng.randint(-3, 3)) for _ in range(7)
        ]
        arr = OrdRiordan(g, f)
        z = arr.z_sequence()
        for n in range(arr.order - 1):
            want = sum(z[j] * arr.entry(n, j) for j in range(n + 1))
            assert arr.entry(n + 1, 0) == want


def test_z_sequence_needs_nonzero_g0():
    with pytest.raises(NotSolvable):
        OrdRiordan([0, 1, 1], [0, 1, 0]).z_sequence(1)


def test_seq_az_pairs_both_conventions():
    pair = seq_az(whitney2_array(2, 3, 8), 4)
    assert isinstance(pair, SeqAZ)
    assert pair.a == (1, 1, Fraction(-2, 3), 2, Fraction(-152, 15))
    # z belongs to the ordinary reinterpretation of the same (g, f)
    conv = whitney2_array(2, 3, 8).to_ordinary()
    assert pair.z == tuple(conv.z_sequence(4))
    with pytest.raises(NotInvertible):
        SeqAZ((0, 1), (1,))


def test_exponential_to_ordinary_conversion():
    w2 = whitney2_array(2, 3, 8)
    conv = w2.to_ordinary()
    # same analytic g, f: ordinary coefficients are EGF coefficients / n!
    assert conv.g[2] == Fraction(9, 2)
    z = conv.z_sequence()
    for n in range(conv.order - 1):
        want = sum(z[j] * conv.entry(n, j) for j in range(n + 1))
        assert conv.entry(n + 1, 0) == want


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
    got = list(_connection_arrays(source, l, hs))
    assert len(got) == len(hs)
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


def test_ord_columns_are_built_without_recursion():
    # the columns used to recurse one frame per k, past the recursion limit
    assert OrdRiordan([1] + [0] * 1500, [0, 1] + [0] * 1499).entry(1500, 1500) == 1


def ord_entry(g, f, n, k):
    """[z^n] g f^k, f^k by k ordinary double sums."""
    power = [1] + [0] * n
    for _ in range(k):
        power = [sum(power[i] * f[j - i] for i in range(j + 1)) for j in range(n + 1)]
    return sum(g[i] * power[n - i] for i in range(n + 1))


fracs = st.fractions(-5, 5, max_denominator=6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8).flatmap(lambda order: st.tuples(
    st.lists(fracs, min_size=order + 1, max_size=order + 1),
    st.lists(fracs, min_size=order, max_size=order))))
def test_ord_entries_are_the_double_sum(gf):
    g, f = gf[0], [0] + gf[1]
    arr = OrdRiordan(g, f)
    for n in range(len(g)):
        for k in range(n + 1):
            got = arr.entry(n, k)
            assert type(got) is Fraction and got == ord_entry(g, f, n, k)



@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), fracs, st.integers(1, 8))
def test_row_numerators_are_the_entries_over_one_denominator(m, r, order):
    # the connection-constant route reads its rows this way, never through entry
    w1 = whitney1_array(m, r, order)
    for arr in (whitney2_array(m, r, order), w1, w1.inverse()):
        for n in range(order + 1):
            nums, den = arr._row_numerators(n)
            assert all(type(v) is int for v in nums) and type(den) is int and den > 0
            assert [Fraction(v, den) for v in nums] == [arr.entry(n, k) for k in range(n + 1)]
