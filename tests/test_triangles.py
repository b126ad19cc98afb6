import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (
    bell_recurrence,
    bernoulli_recurrence,
    csv_rows,
    euler_zero_recurrence,
    falling_integral,
    stirling2_brute,
)
from whitney import triangles
from whitney.errors import BadParameter, WhitneyError
from whitney.poly import Poly, stepped_product
from whitney.qformat import parse_rat, rat_str, write
from whitney.series import Egf, log1p_scaled
from whitney.triangles import (
    FAMILY_KINDS,
    TRIANGLE_KINDS,
    Triangle,
    bell_numbers,
    bernoulli_numbers,
    bernoulli_poly,
    build_triangle,
    cauchy_numbers,
    classical_seq,
    dowling_inverse_poly,
    dowling_poly,
    euler_poly,
    euler_zero_values,
    family,
    m_stirling1_row,
    m_stirling2_row,
    touchard_inverse_poly,
    touchard_poly,
    whitney1_row,
    whitney1_row_egf,
    whitney2_row,
    whitney2_row_egf,
)

# -- second kind --------------------------------------------------------


def test_second_kind_worked_rows():
    assert whitney2_row(2, 3, 0) == [1]
    assert whitney2_row(2, 3, 1) == [3, 1]
    assert whitney2_row(2, 3, 2) == [9, 8, 1]
    assert whitney2_row(2, 3, 3) == [27, 49, 15, 1]
    assert whitney2_row(2, 2, 2) == [4, 6, 1]


def test_second_kind_stirling_specialization():
    assert whitney2_row(1, 0, 5)[2] == 15
    assert whitney2_row(1, 0, 5)[2] == stirling2_brute(5, 2)


def test_known_published_sequences():
    # classical Stirling, both kinds (OEIS A008277 / A008275)
    assert whitney2_row(1, 0, 5) == [0, 1, 15, 25, 10, 1]
    assert whitney1_row(1, 0, 5) == [0, 24, -50, 35, -10, 1]
    # Whitney numbers of the rank-n Dowling lattices over a 2-element
    # group (OEIS A039755) and their row sums (A007405)
    assert whitney2_row(2, 1, 3) == [1, 13, 9, 1]
    assert whitney2_row(2, 1, 4) == [1, 40, 58, 16, 1]
    assert [sum(whitney2_row(2, 1, n)) for n in range(7)] == [1, 2, 6, 24, 116, 648, 4088]
    # 2-Stirling numbers (A143494, shifted indexing)
    assert [whitney2_row(1, 2, n) for n in range(4)] == [
        [1],
        [2, 1],
        [4, 5, 1],
        [8, 19, 9, 1],
    ]


def test_second_kind_diagonal_and_column_zero():
    for m in (1, 2, 3):
        for r in (0, 1, 2, Fraction(1, 2)):
            for n in range(9):
                row = whitney2_row(m, r, n)
                assert row[n] == 1
                assert row[0] == r ** n
                if isinstance(r, int):
                    assert all(isinstance(v, int) and v >= 0 for v in row)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 3, Fraction(1, 2)])
def test_second_kind_series_extraction_agrees(m, r):
    for n in range(11):
        assert whitney2_row_egf(m, r, n) == whitney2_row(m, r, n)


# -- first kind ---------------------------------------------------------


def test_first_kind_row_one():
    for m in (1, 2, 3):
        for r in (0, 1, 2, 3):
            assert whitney1_row(m, r, 1) == [-r, 1]


def test_first_kind_worked_rows():
    # from the defining series: w(2,0) = r(r+m) = 15 and w(2,1) = -(2r+m) = -8
    assert whitney1_row(2, 3, 2) == [15, -8, 1]
    assert whitney1_row(2, 3, 3) == [-105, 71, -15, 1]


def test_first_kind_orthogonality_spot():
    row2 = whitney2_row(2, 3, 2)
    w_col0 = [whitney1_row(2, 3, i)[0] for i in range(3)]
    assert row2[0] * w_col0[0] + row2[1] * w_col0[1] + row2[2] * w_col0[2] == 0
    assert [w_col0[0], w_col0[1], w_col0[2]] == [1, -3, 15]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 3, Fraction(1, 2)])
def test_first_kind_recurrence_validated_against_series(m, r):
    for n in range(13):
        assert whitney1_row(m, r, n) == whitney1_row_egf(m, r, n)


# -- r = 0 specializations ----------------------------------------------


def test_m_stirling2_values():
    assert m_stirling2_row(2, 2)[1] == 2
    assert m_stirling2_row(2, 3) == [0, 4, 6, 1]
    for m in (1, 2, 3):
        for n in range(9):
            assert m_stirling2_row(m, n)[n] == 1
            assert m_stirling2_row(m, n) == whitney2_row(m, 0, n)


def test_m_stirling1_values():
    assert m_stirling1_row(2, 2) == [0, -2, 1]
    assert m_stirling1_row(2, 3) == [0, 8, -6, 1]
    for m in (1, 2, 3):
        for n in range(9):
            assert m_stirling1_row(m, n)[n] == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_m_stirling1_table_rows(m):
    # row j of the table is a snapshot of one stepped list after j factors;
    # it must equal the row built alone and the product multiplied out here
    rows = build_triangle("mstirling1", m, None, 20).rows
    product = Poly((1,))
    for j, row in enumerate(rows):
        assert row == tuple(m_stirling1_row(m, j)) == product.coeffs
        assert all(type(v) is int for v in row)
        product = product * Poly((-j * m, 1))
    assert len(rows) == 21


@pytest.mark.parametrize("m", [1, 2, 3])
def test_scaling_law(m):
    for n in range(13):
        plain2 = m_stirling2_row(1, n)
        plain1 = m_stirling1_row(1, n)
        assert m_stirling2_row(m, n) == [m ** (n - k) * plain2[k] for k in range(n + 1)]
        assert m_stirling1_row(m, n) == [m ** (n - k) * plain1[k] for k in range(n + 1)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_m_stirling_triangles_are_inverse(m):
    for n in range(13):
        for k in range(n + 1):
            s = sum(
                m_stirling2_row(m, n)[i] * m_stirling1_row(m, i)[k]
                for i in range(k, n + 1)
            )
            assert s == (1 if n == k else 0)


# -- polynomial families -------------------------------------------------


def test_family_leading_coefficients_monic():
    for kind in ("touchard", "touchard-inverse", "dowling", "dowling-inverse"):
        for n in range(1, 8):
            p = family(kind, n, m=2, r=3)
            assert p.degree == n and p.coeff(n) == 1


def test_dowling_degree_one():
    assert dowling_poly(2, 3, 0) == Poly([1])
    assert dowling_poly(2, 3, 1) == Poly([3, 1])


def test_touchard_binomial_recurrences():
    for m in (1, 2, 3):
        for n in range(1, 11):
            prev = touchard_poly(m, n - 1)
            assert touchard_poly(m, n) == Poly.x() * (prev + m * prev.deriv())
            assert touchard_inverse_poly(m, n) == Poly.x() * touchard_inverse_poly(
                m, n - 1
            ).shifted(-m)


def test_dowling_inverse_is_shifted_inverse_touchard():
    for m in (1, 2):
        for r in (0, 1, 3):
            for n in range(7):
                assert dowling_inverse_poly(m, r, n) == touchard_inverse_poly(m, n).shifted(-r)


def test_touchard_at_one_is_bell():
    assert touchard_poly(1, 3)(1) == 5
    assert bell_numbers(8) == bell_recurrence(8)


def test_bell_numbers_are_touchard_values_at_one():
    # bell_numbers steps its own rows; touchard_poly reads the row store
    assert bell_numbers(30) == [touchard_poly(1, j)(1) for j in range(31)]


def test_bernoulli_polynomials():
    assert bernoulli_poly(2) == Poly([Fraction(1, 6), -1, 1])
    b = bernoulli_numbers(3)
    assert b == [1, Fraction(-1, 2), Fraction(1, 6), 0]
    assert bernoulli_numbers(12) == bernoulli_recurrence(12)
    for n in range(9):
        assert bernoulli_poly(n)(0) == bernoulli_numbers(n)[n]


def test_euler_polynomials():
    assert euler_zero_values(4) == [1, Fraction(-1, 2), 0, Fraction(1, 4), 0]
    assert euler_zero_values(12) == euler_zero_recurrence(12)
    for n in range(9):
        assert euler_poly(n)(0) == euler_zero_values(n)[n]


@pytest.mark.parametrize("numbers", [bernoulli_numbers, euler_zero_values])
def test_classical_numbers_refuse_negative_n(numbers):
    with pytest.raises(ValueError):
        numbers(-1)


def test_cauchy_numbers_dual_route():
    got = cauchy_numbers(6)
    assert got[:4] == [1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 4)]
    for n in range(7):
        assert got[n] == falling_integral(n)


def test_cauchy_routes_are_compared(monkeypatch):
    # the series route starts from ln(1 + t) through order n + 1; one slipped
    # coefficient there must be caught by the comparison with the integrals
    calls = []

    def slipped(m, order):
        calls.append((m, order))
        return log1p_scaled(m, order) + Egf([0] * order + [1])

    monkeypatch.setattr(triangles, "log1p_scaled", slipped)
    with pytest.raises(WhitneyError, match="Cauchy number routes disagree"):
        cauchy_numbers(6)
    assert calls == [(1, 7)]


def test_classical_seq_dispatch():
    assert classical_seq("bell", 4) == [1, 1, 2, 5, 15]
    assert classical_seq("bernoulli-numbers", 1) == [1, Fraction(-1, 2)]
    assert classical_seq("cauchy1", 0) == [1]
    assert classical_seq("euler-zero-values", 1) == [1, Fraction(-1, 2)]
    with pytest.raises(ValueError):
        classical_seq("nope", 3)
    with pytest.raises(ValueError):
        family("nope", 3)


def test_rational_r_everywhere_algebraic():
    r = Fraction(2, 3)
    row = whitney2_row(2, r, 2)
    assert row == [r * r, 2 * r + 2, 1]
    assert whitney1_row(2, r, 2) == whitney1_row_egf(2, r, 2)



# -- row store ---------------------------------------------------------------


@pytest.mark.parametrize(
    "build, m, r",
    [(whitney2_row, 5, 7), (whitney1_row, 5, 7), (lambda m, r, n: dowling_poly(m, r, n).coeffs, 4, 9)],
    ids=["whitney2_row", "whitney1_row", "dowling_poly"],
)
def test_cold_rows_at_600_need_no_recursion(build, m, r):
    # (5, 7) and (4, 9) appear in no other test, so the rows start cold
    row = build(m, r, 600)
    assert len(row) == 601
    assert row[600] == 1


@pytest.mark.parametrize("bad_r", [0.1, 1.0, True, False])
def test_store_rejects_inexact_r(bad_r):
    # r = 1 and r = 0 rows are stored first: True, 1.0 and False compare
    # equal to them and must still be refused
    whitney2_row(2, 1, 3)
    whitney2_row(2, 0, 3)
    for call in (whitney2_row, whitney1_row, dowling_poly):
        with pytest.raises(ValueError):
            call(2, bad_r, 3)


# -- container and export -------------------------------------------------


def _written(tri, fmt):
    out = io.StringIO()
    r = None if tri.r is None else rat_str(tri.r)
    write(out, fmt, tri.rows, {"kind": tri.kind, "m": tri.m, "r": r})
    return out.getvalue()


def _read(text):
    """The Triangle of a JSON table or poly output, read back."""
    data = json.loads(text)
    r = None if data["r"] is None else parse_rat(data["r"])
    return Triangle(data["kind"], data["m"], r, tuple(tuple(map(parse_rat, row)) for row in data["rows"]))


def test_triangle_csv_round_trip():
    tri = build_triangle("whitney1", 2, 3, 3)
    text = _written(tri, "csv")
    assert text.splitlines()[2] == "15,-8,1"
    assert csv_rows(text) == [list(row) for row in tri.rows]


def test_triangle_json_round_trip():
    tri = build_triangle("whitney2", 2, Fraction(1, 2), 3)
    back = _read(_written(tri, "json"))
    assert back == tri
    assert isinstance(back, Triangle)


@pytest.mark.parametrize("kind", TRIANGLE_KINDS + FAMILY_KINDS)
@pytest.mark.parametrize("n", [0, 4])
def test_every_kind_passes_the_shape_gate(kind, n):
    # row i of every table and family output holds i + 1 values
    tri = build_triangle(kind, 2, Fraction(-5, 3), n)
    back = _read(_written(tri, "json"))
    assert back == tri and [len(row) for row in back.rows] == list(range(1, n + 2))


def test_triangle_kinds_without_r():
    tri = build_triangle("mstirling1", 2, None, 3)
    assert tri.r is None
    assert tri.rows[3] == (0, 8, -6, 1)
    with pytest.raises(ValueError):
        build_triangle("nope", 1, 0, 2)


@pytest.mark.parametrize("kind, m, r", [("bernoulli", 1.5, 1), ("euler", True, None)])
def test_build_triangle_gates_m_for_every_kind(kind, m, r):
    # the Appell kinds never read m, and wrote "m": 1.5 and "m": true
    with pytest.raises(BadParameter):
        build_triangle(kind, m, r, 2)


# -- properties at rational r ----------------------------------------------

SOME = settings(max_examples=25, deadline=None)
ms = st.integers(1, 4)
ns = st.integers(0, 10)
ps = st.integers(-7, 7)
qs = st.integers(1, 7)


@SOME
@given(ms, ps, qs, ns)
def test_first_kind_row_is_the_stepped_product(m, p, q, n):
    # the row store against the product multiplied out independently
    r = Fraction(p, q)
    prod = stepped_product(n, m, r)
    assert whitney1_row(m, r, n) == [prod.coeff(i) for i in range(n + 1)]


@SOME
@given(ms, ps, qs, ns)
def test_series_rows_are_the_recurrence_rows(m, p, q, n):
    r = Fraction(p, q)
    assert whitney2_row_egf(m, r, n) == whitney2_row(m, r, n)
    assert whitney1_row_egf(m, r, n) == whitney1_row(m, r, n)


@SOME
@given(ms, ps, qs, ns)
def test_scaling_law_at_rational_r(m, p, q, n):
    # q^(n-k) W_{m,p/q}(n,k) = W_{qm,p}(n,k), and the same for the first kind
    for row in (whitney2_row, whitney1_row):
        scaled = [q ** (n - k) * v for k, v in enumerate(row(m, Fraction(p, q), n))]
        assert scaled == row(q * m, p, n)
