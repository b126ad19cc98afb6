import contextlib
import io
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_helpers import csv_rows
from whitney import cli, registry, triangles
from whitney.registry import CheckReport
from whitney.poly import stepped_product
from whitney.qformat import canonical, parse_rat, rat_str, write
from whitney.triangles import whitney1_row


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rat_round_trip():
    for v in (Fraction(3), Fraction(-8), Fraction(15, 7), Fraction(-1, 2)):
        assert parse_rat(rat_str(v)) == v
    assert rat_str(Fraction(4, 2)) == "2"


@settings(max_examples=8, deadline=None)
@given(st.integers(4000, 20000), st.integers(1, 20000), st.booleans(), st.integers(0, 2 ** 32))
def test_rat_round_trip_beyond_the_digit_limit(digits, den_digits, negative, seed):
    # Python's int <-> str conversion refuses more than 4300 digits by default
    rng = random.Random(seed)
    p = rng.randrange(10 ** (digits - 1), 10 ** digits)
    q = rng.randrange(10 ** (den_digits - 1), 10 ** den_digits)
    v = canonical(Fraction(-p if negative else p, q))
    assert parse_rat(rat_str(v)) == v


def test_decimal_strings_beyond_the_digit_limit():
    # the split pieces keep their leading zeros
    assert rat_str(10 ** 9000 + 7) == "1" + "0" * 8998 + "07"
    assert rat_str(Fraction(-1, 10 ** 5000)) == "-1/1" + "0" * 5000
    assert parse_rat("1" * 5000) == (10 ** 5000 - 1) // 9
    assert parse_rat(" -" + "0" * 4400 + "6/4 ") == Fraction(-3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rat("1" * 5000 + "/0")
    with pytest.raises(ValueError):
        parse_rat("1" * 5000 + "x")


EXACTS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)),
)


def _written(*args, **kwargs):
    out = io.StringIO()
    write(out, *args, **kwargs)
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(EXACTS, min_size=1, max_size=6), min_size=1, max_size=6), st.integers(0, 99))
@example([[5]], 0)  # a single row, as at n = 0
def test_the_writer_matches_json_dumps_and_reads_back(rows, at):
    # one value past the int/str digit limit, at a drawn place
    row = rows[at % len(rows)]
    row[at % len(row)] = -(10 ** 4400) - 7
    header = {"kind": "whitney1", "m": 2, "r": "-5/3"}
    want = dict(header, rows=[[rat_str(v) for v in row] for row in rows])
    assert _written("json", rows, header) == json.dumps(want) + "\n"
    assert csv_rows(_written("csv", rows, header)) == rows
    flat = {"order": len(rows[0]) - 1, "egf_coeffs": want["rows"][0]}
    assert _written("json", rows[0], {"order": flat["order"]}, "egf_coeffs", flat=True) == json.dumps(flat) + "\n"
    assert csv_rows(_written("csv", rows[0], {}, flat=True)) == rows[:1]


def test_series_beyond_the_digit_limit_round_trips(capsys):
    # column 0 of the m = 1, r = 10 array is e^{10t}: coefficient n is 10^n
    argv = ("series", "whitney2-column", "--m", "1", "--r", "10", "--k", "0", "--order", "4301")
    want = [10 ** n for n in range(4302)]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and not err
    assert csv_rows(out) == [want]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and not err
    assert [parse_rat(v) for v in json.loads(out)["egf_coeffs"]] == want


def test_table_csv_worked_example(capsys):
    code, out, _ = run_cli(capsys, "table", "whitney2", "--m", "2", "--r", "3", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "1\n3,1\n9,8,1\n"
    assert csv_rows(out) == [[1], [3, 1], [9, 8, 1]]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "whitney1", "--m", "2", "--r", "3", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "whitney1" and data["m"] == 2 and data["r"] == "3"
    rows = [[parse_rat(v) for v in row] for row in data["rows"]]
    assert rows == [whitney1_row(2, 3, n) for n in range(4)]


def test_table_rational_r(capsys):
    code, out, _ = run_cli(capsys, "table", "whitney2", "--m", "2", "--r", "1/2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[2] == "1/4,3,1"


def test_poly_csv(capsys):
    code, out, _ = run_cli(capsys, "poly", "dowling", "--m", "2", "--r", "3", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "1\n3,1\n9,8,1\n"


def test_poly_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "poly", "bernoulli", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[2] == "1/6,-1,1"


@pytest.mark.parametrize(
    "kind, kernel, size", [("bernoulli", "_tangent_numbers", 6), ("euler", "_zigzag", 12)], ids=["bernoulli", "euler"]
)
def test_poly_builds_its_numbers_once(capsys, monkeypatch, kind, kernel, size):
    # every lower degree is served from the top degree's prefix, and each
    # family runs only its own integer kernel
    calls = {"_tangent_numbers": [], "_zigzag": []}
    monkeypatch.setattr(triangles, "_PREFIXES", {})
    for name, sizes in calls.items():
        real = getattr(triangles, name)
        monkeypatch.setattr(triangles, name, lambda n, real=real, sizes=sizes: sizes.append(n) or real(n))
    code, out, _ = run_cli(capsys, "poly", kind, "--n", "12", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 13
    assert calls == {"_tangent_numbers": [], "_zigzag": [], kernel: [size]}


def test_series_json(capsys):
    code, out, _ = run_cli(capsys, "series", "bernoulli-numbers", "--order", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 4, "egf_coeffs": ["1", "-1/2", "1/6", "0", "-1/30"]}


# a prime above every prime that divides a denominator through order 1000:
# those of B_n are at most n + 1 (von Staudt-Clausen), those of E_n(0) are 2
_P = 2 ** 127 - 1


def _pascal_rows_mod(n):
    row = [1]
    for _ in range(n + 1):
        yield row
        row = [(x + y) % _P for x, y in zip(row + [0], [0] + row)]


@pytest.mark.parametrize("kind", ["bernoulli-numbers", "euler-zero-values"])
def test_series_classical_numbers_at_order_1000(capsys, monkeypatch, kind):
    monkeypatch.setattr(triangles, "_PREFIXES", {})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "series", kind, "--order", "1000", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 0.5
    values = [Fraction(v) for v in json.loads(out)["egf_coeffs"]]
    assert len(values) == 1001
    # the identities in residues mod _P: exact sums of 1001 terms of up
    # to a few thousand digits would take seconds
    v = [x.numerator * pow(x.denominator, -1, _P) % _P for x in values]
    for i, row in enumerate(_pascal_rows_mod(1001)):  # row i is C(i, 0..i) mod _P
        if kind == "bernoulli-numbers" and i >= 2:  # sum_{j<i} C(i, j) B_j = 0
            assert sum(map(mul, row[:i], v)) % _P == 0, i
        elif kind == "euler-zero-values" and i <= 1000:  # (e^t + 1) E(t) = 2
            assert (sum(map(mul, row, v)) + v[i]) % _P == (2 if i == 0 else 0), i


def test_series_column(capsys):
    code, out, _ = run_cli(
        capsys, "series", "whitney2-column", "--m", "2", "--r", "3", "--k", "1", "--order", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "0,1,8,49,272\n"


def test_series_dowling_egf(capsys):
    code, out, _ = run_cli(
        capsys, "series", "dowling-egf", "--m", "2", "--r", "3", "--u", "1", "--order", "3", "--format", "csv"
    )
    assert code == 0
    assert out == "1,4,18,92\n"


def test_verify_single_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "orthogonality", "--max-n", "12", "--m", "2", "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["name"] == "orthogonality"
    assert data[0]["status"] == "pass"
    assert data[0]["counterexample"] is None


def test_verify_rational_r(capsys):
    code, out, _ = run_cli(capsys, "verify", "orthogonality", "--r", "1/2", "--max-n", "3")
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


@pytest.mark.parametrize("given, rendered", [("1/2", "1/2"), ("6/2", 3)])
def test_verify_rational_r_counterexample(capsys, monkeypatch, given, rendered):
    # a non-integer r renders as "p/q"; an integral one stays a JSON integer
    def failing(grid):
        for r in grid["r"]:
            yield {"m": 1, "r": r, "n": 0}, Fraction(1), Fraction(2)

    check = registry.REGISTRY["orthogonality"]
    monkeypatch.setitem(registry.REGISTRY, "orthogonality", replace(check, evaluate=failing))
    code, out, _ = run_cli(capsys, "verify", "orthogonality", "--r", given)
    assert code == 1
    assert json.loads(out)[0]["counterexample"]["params"] == {"m": 1, "r": rendered, "n": 0}


def test_verify_pretty(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "determinantal", "--max-n", "3", "--format", "pretty"
    )
    assert code == 0
    assert "determinantal" in out and "PASS" in out


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus-identity")
    assert code == 2
    assert "unknown identity" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    report = CheckReport(
        name="synthetic",
        grid_size=1,
        status="fail",
        counterexample={"params": {"n": 1}, "lhs": "1", "rhs": "2"},
        elapsed_ms=0,
    )
    monkeypatch.setattr(registry, "run_all", lambda overrides=None: [report])
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "pretty")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_oracle_compare_agrees(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", "2", "--k", "1", "--m", "2", "--r", "3")
    assert code == 0
    assert out == "recurrence=8 grammar=8 egf=8 pairs=8 mr=8 AGREE\n"


def test_oracle_compare_disagreement_exit_code(capsys, monkeypatch):
    from whitney import triangles

    monkeypatch.setattr(
        triangles, "whitney2_row_egf", lambda m, r, n: [0] * (n + 1)
    )
    code, out, _ = run_cli(capsys, "oracle-compare", "--n", "2", "--k", "1", "--m", "2", "--r", "3")
    assert code == 1
    assert out.endswith("DISAGREE\n")
    assert "egf=0" in out


def test_verify_pretty_shows_flag_notes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "dowling-to-euler", "--max-n", "2", "--format", "pretty"
    )
    assert code == 0
    assert "literal statement" in out


def test_oracle_compare_cap(capsys):
    code, _, err = run_cli(capsys, "oracle-compare", "--n", "11", "--k", "1", "--m", "2", "--r", "3")
    assert code == 2
    assert "WHITNEY_ORACLE_MAX_LABELS" in err


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "table", "whitney2")  # missing --n
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "whitney2", "--n", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_verify_all_reduced_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "2", "--m", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert [rep["name"] for rep in data] == registry.registry_names()
    assert all(rep["status"] == "pass" for rep in data)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "spivey", "--max-n", "-1"), "max_n must be a nonnegative integer"),
        (("verify", "egf-dowling", "--max-n", "-1"), "max_n must be a nonnegative integer"),
        (("verify", "spivey", "--m", "0"), "must be a positive integer"),
        (("table", "whitney2", "--m", "0", "--n", "3"), "must be a positive integer"),
        (("series", "whitney2-column", "--m", "0", "--order", "3"), "must be a positive integer"),
        (("oracle-compare", "--n", "600", "--k", "1", "--m", "2", "--r", "0"), "WHITNEY_ORACLE_MAX_LABELS"),
        (("verify", "spivey", "--r", "1/0"), "argument --r"),
        (("table", "whitney2", "--r", "1/0", "--n", "3"), "argument --r"),
        (("series", "whitney2-column", "--k", "-1", "--order", "4"), "--k must be between 0 and --order"),
        (("series", "whitney1-column", "--k", "-1", "--order", "4"), "--k must be between 0 and --order"),
        (("verify", "lemma-grammar-dowling", "--r", "-1"), "'lemma-grammar-dowling': r must be nonnegative, got -1"),
        (("verify", "all", "--r", "-1"), "'lemma-grammar-dowling': r must be nonnegative, got -1"),
        (("verify", "all", "--r", "2", "--r=-5/3"), "'lemma-grammar-dowling': r must be nonnegative, got -5/3"),
        (("oracle-compare", "--n", "-1", "--k", "0", "--m", "1", "--r", "0"), "n must be a nonnegative integer"),
        (("oracle-compare", "--n", "3", "--k", "-1", "--m", "1", "--r", "0"), "k must be a nonnegative integer"),
        (("oracle-compare", "--n", "3", "--k", "1", "--m", "1", "--r", "-1"), "r must be a nonnegative integer"),
    ],
    ids=[
        "verify-negative-n", "verify-negative-n-egf", "verify-m0", "table-m0", "series-m0",
        "oracle-over-cap", "verify-r-zero-denominator", "table-r-zero-denominator",
        "series-w2-negative-k", "series-w1-negative-k", "verify-grammar-negative-r",
        "verify-all-negative-r", "verify-all-negative-rational-r",
        "oracle-negative-n", "oracle-negative-k", "oracle-negative-r",
    ],
)
def test_bad_input_exits_2_without_output(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_append_options_do_not_leak_between_calls(capsys):
    # one parser serves every call in a process; each call's --m and --r
    # must come from its own argv alone
    assert cli._build_parser() is cli._build_parser()
    grids = [
        (("--m", "2", "--m", "3", "--r", "1/2", "--r", "4"), (2, 3), (Fraction(1, 2), 4)),
        (("--m", "1", "--r", "5"), (1,), (5,)),
        ((), (1, 2, 3), (0, 1, 2, 3)),
    ]
    for options, m, r in grids:
        code, out, _ = run_cli(capsys, "verify", "orthogonality", "--max-n", "2", *options)
        want = registry.run_check("orthogonality", {"max_n": 2, "m": m, "r": r})
        assert code == 0
        assert json.loads(out)[0]["grid_size"] == want.grid_size == 3 * 2 * len(m) * len(r)


@pytest.mark.parametrize("kind", ["touchard-inverse", "dowling-inverse"])
@pytest.mark.parametrize("r", ["0", "3", "1/2", "-5/3"])
@pytest.mark.parametrize("m", [1, 3])
def test_poly_inverse_rows_are_stepped_products(capsys, kind, r, m):
    n = 9
    code, out, _ = run_cli(capsys, "poly", kind, "--m", str(m), "--r=" + r, "--n", str(n), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["kind"], data["m"], data["r"]) == (kind, m, r)
    shift = parse_rat(r) if kind == "dowling-inverse" else 0
    for j, row in enumerate(data["rows"]):
        p = stepped_product(j, m, shift)
        assert [parse_rat(v) for v in row] == [p.coeff(i) for i in range(j + 1)]
    assert len(data["rows"]) == n + 1


def test_poly_dowling_inverse_steps_one_list(capsys):
    # every degree read from one pass of the row store: O(n^2), not a
    # product per degree
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "poly", "dowling-inverse", "--m", "3", "--r", "2", "--n", "210", "--format", "csv")
    elapsed = time.perf_counter() - start
    assert code == 0 and len(out.splitlines()) == 211
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv, option",
    [
        (("table", "whitney2", "--m", "2", "--n", "4", "--format", "csv"), "--r"),
        (("poly", "dowling-inverse", "--m", "3", "--n", "4", "--format", "json"), "--r"),
        (("series", "dowling-egf", "--m", "2", "--order", "5"), "--r"),
        (("series", "dowling-egf", "--m", "2", "--order", "5"), "--u"),
        (("verify", "orthogonality", "--max-n", "3", "--r", "2"), "--r"),
    ],
    ids=["table", "poly", "series-r", "series-u", "verify"],
)
def test_negative_rational_value_spelled_either_way(capsys, argv, option):
    # argparse reads "-5/3" as an option unless it is joined with "="
    outputs = []
    for spelling in ((option, "-5/3"), (option + "=-5/3",)):
        code, out, err = run_cli(capsys, *argv, *spelling)
        assert code == 0 and out and not err
        if argv[0] == "verify":
            out = [dict(rep, elapsed_ms=0) for rep in json.loads(out)]
        outputs.append(out)
    assert outputs[0] == outputs[1]


# -- the CLI contract, over drawn argv ------------------------------------

BAD = ("0", "-1", "1/0", "-5/3", "1/2", "x", "", "2.5")


def _values(lo, hi):
    # about one value in four is out of the ordinary
    number = st.integers(lo, hi).map(str)
    return st.one_of(st.sampled_from(BAD), number, number, number)


def _argv(verb, first, options):
    """verb, its positional argument (if any), then each drawn option that is not None."""
    def build(drawn):
        head, opts = drawn
        argv = [verb] + ([head] if head is not None else [])
        for name, value in zip(options, opts):
            if value is not None:
                argv += [name, value]
        return argv

    opts = st.tuples(*(st.one_of(st.none(), pool, pool) for pool in options.values()))
    return st.tuples(first, opts).map(build)


def _formats(*names):
    return st.sampled_from(names + ("bogus",))


SIZE = _values(-2, 40)
ARGVS = st.one_of(
    _argv("table", st.sampled_from(cli.TABLE_KINDS + ("bogus",)),
          {"--n": SIZE, "--m": _values(-1, 4), "--r": SIZE,
           "--format": _formats("csv", "json", "pretty")}),
    _argv("poly", st.sampled_from(cli.POLY_KINDS + ("bogus",)),
          {"--n": SIZE, "--m": _values(-1, 4), "--r": SIZE,
           "--format": _formats("csv", "json", "pretty")}),
    _argv("series", st.sampled_from(cli.SERIES_KINDS + ("bogus",)),
          {"--order": SIZE, "--k": SIZE, "--u": SIZE, "--m": _values(-1, 4), "--r": SIZE,
           "--format": _formats("csv", "json", "pretty")}),
    # verify always gets a small --max-n: the default grid of every check is slow
    _argv("verify", st.sampled_from(tuple(registry.registry_names()) + ("all", "bogus")),
          {"--max-n": _values(-1, 3), "--m": _values(-1, 4), "--r": _values(-2, 6),
           "--format": _formats("json", "pretty")}).filter(lambda a: "--max-n" in a),
    _argv("oracle-compare", st.none(),
          {"--n": _values(-1, 8), "--k": _values(-1, 9), "--m": _values(-1, 3),
           "--r": _values(-1, 4)}),
)


@settings(max_examples=100, deadline=None)
@given(ARGVS)
def test_the_cli_contract_holds_for_drawn_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an uncaught exception fails here, with its traceback
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 1:
        assert argv[0] in ("verify", "oracle-compare"), argv
