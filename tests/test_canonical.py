"""An integral r gives the same values and element types whatever type it
arrives as: an int, an integral Fraction, or a command-line string, cold
or after the same rows were built at another type.  The grammar route
canonicalizes its own r, apart from the row store."""

from fractions import Fraction

import pytest

from whitney import cli, clear_caches
from whitney.grammar import whitney_row_from_grammar
from whitney.poly import stepped_product
from whitney.qformat import canonical, parse_rat, rat_str
from whitney.triangles import (
    FAMILY_KINDS,
    TRIANGLE_KINDS,
    build_triangle,
    dowling_inverse_poly,
    dowling_poly,
    family,
    whitney1_row,
    whitney2_row,
)


def _parsed(verb_argv, text):
    value = cli._build_parser().parse_args(verb_argv + ["--r=" + text]).r
    return value[0] if isinstance(value, list) else value


ARRIVALS = {
    "int": lambda r: r,
    "Fraction": Fraction,
    "table": lambda r: _parsed(["table", "whitney2", "--n", "0"], str(r)),
    "poly-unreduced": lambda r: _parsed(["poly", "dowling", "--n", "0"], "%d/2" % (2 * r)),
    "series": lambda r: _parsed(["series", "whitney2-column", "--order", "1"], str(r)),
    "verify-unreduced": lambda r: _parsed(["verify", "all"], "%d/2" % (2 * r)),
}


def snapshot(r):
    out = []
    for m in (1, 2, 3):
        for n in range(9):
            out.append(whitney2_row(m, r, n))
            out.append(whitney1_row(m, r, n))
            out.append(dowling_poly(m, r, n).coeffs)
            out.append(dowling_inverse_poly(m, r, n).coeffs)
            out.append(stepped_product(n, m, r).coeffs)
            out.extend(family(kind, n, m=m, r=r).coeffs for kind in FAMILY_KINDS)
            if r >= 0:  # the grammar route takes a nonnegative r only
                out.append(whitney_row_from_grammar(m, r, n))
        for kind in TRIANGLE_KINDS + FAMILY_KINDS:
            out.append(build_triangle(kind, m, r, 8))
    return repr(out)  # repr tells an int from an equal Fraction


@pytest.mark.parametrize("r", [0, 3, -2])
def test_arrival_type_makes_no_difference(r):
    clear_caches()
    want = snapshot(r)
    for name, arrive in ARRIVALS.items():
        clear_caches()
        assert snapshot(arrive(r)) == want, name  # cold
        for before in (r, Fraction(r)):  # after the same rows at either type
            clear_caches()
            snapshot(before)
            assert snapshot(arrive(r)) == want, (name, "after", repr(before))
    clear_caches()


def test_canonical_form():
    assert type(canonical(Fraction(6, 2))) is int and canonical(Fraction(6, 2)) == 3
    assert canonical(Fraction(1, 2)) == Fraction(1, 2)
    assert type(parse_rat("-4/2")) is int and parse_rat("-4/2") == -2
    assert parse_rat(" 3/6 ") == Fraction(1, 2)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError):
            canonical(bad)

    class Sub(Fraction):
        pass

    values = (7, -7, Fraction(6, 3), Fraction(-1, 2), Fraction(-5, 3), Sub(-5, 3), True)
    assert [rat_str(v) for v in values] == ["7", "-7", "2", "-1/2", "-5/3", "-5/3", "1"]
