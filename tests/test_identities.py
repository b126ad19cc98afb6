from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import identities, registry, triangles
from whitney.errors import BadGrid, UnknownIdentity, WhitneyError
from whitney.identities import dowling_from_determinant, exact_det
from whitney.poly import Poly
from whitney.registry import IdentityCheck, registry_names, run_all, run_check
from whitney.triangles import bernoulli_poly, dowling_poly, euler_poly, touchard_poly

EXPECTED_NAMES = [
    "az-recurrences-W1",
    "az-recurrences-W2",
    "bernoulli-to-dowling",
    "binomial-recurrences",
    "delta-ops",
    "determinantal",
    "dowling-recurrence",
    "dowling-shift",
    "dowling-shift-l1",
    "dowling-to-bernoulli",
    "dowling-to-euler",
    "dowling-umbral-inverse",
    "dowlstir",
    "egf-dowling",
    "egf-whitney2",
    "euler-to-dowling",
    "inverse-relation",
    "lemma-grammar-dowling",
    "orthogonality",
    "power-in-dowling",
    "r-shift-s",
    "sheffer-binomial-D",
    "spivey",
    "touchard-binomial",
    "umbral-inverse-T",
    "whitney-convolution",
    "whitney-r-shift",
    "whitney-recurrence",
]


def test_registry_is_complete():
    assert registry_names() == EXPECTED_NAMES


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_check("no-such-identity")


def test_bad_grid_override():
    with pytest.raises(ValueError):
        run_check("orthogonality", {"max_h": 3})


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("spivey", {"max_n": -1}),
        ("spivey", {"max_h": -2}),
        ("egf-dowling", {"max_n": -1}),
        ("spivey", {"m": (0,)}),
        ("orthogonality", {"m": (2, 1.5)}),
        ("spivey", {"r": ()}),
        ("delta-ops", {"max_n": 0}),
        ("orthogonality", {"m": 2}),
        ("orthogonality", {"r": 2}),
        ("inverse-relation", {"seeds": ("x",)}),
        ("inverse-relation", {"seeds": (1.5,)}),
        ("inverse-relation", {"seeds": (True,)}),
        ("egf-dowling", {"u": (0.5,)}),
        ("egf-dowling", {"u": ("a",)}),
        ("orthogonality", {"r": (True,)}),
        ("dowling-shift", {"l": (0.5,)}),
        ("r-shift-s", {"s": (0.5,)}),
    ],
)
def test_grid_gate(name, overrides):
    # negative bounds, a bad m and a grid of no points never report a pass
    with pytest.raises(BadGrid) as info:
        run_check(name, overrides)
    assert isinstance(info.value, ValueError) and isinstance(info.value, WhitneyError)


def test_unknown_identity_message():
    with pytest.raises(UnknownIdentity, match="unknown identity"):
        run_all(names=["no-such-identity"])


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_each_entry_passes_on_reduced_grid(name):
    grid = registry.REGISTRY[name].grid
    overrides = {"max_n": min(4, grid["max_n"])}
    if "max_h" in grid:
        overrides["max_h"] = 4
    rep = run_check(name, overrides)
    assert rep.status == "pass"
    assert rep.counterexample is None
    assert rep.grid_size > 0


def test_rational_r_through_algebraic_checks():
    # every algebraic identity is rational in r; spot-check a few entries
    # at r = 1/2 (enumeration-backed checks are the only integer-r paths)
    half = (Fraction(1, 2),)
    for name in ("dowlstir", "r-shift-s", "orthogonality", "whitney-recurrence"):
        rep = run_check(name, {"max_n": 5, "r": half})
        assert rep.status == "pass", name


def _report(name, max_n, m, r):
    """The report of `name` at one grid point's axes, less its timing."""
    out = run_check(name, {"max_n": max_n, "m": (m,), "r": (r,)}).to_dict()
    out.pop("elapsed_ms")
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4),  # at max_n = 0 some checks have no point
       st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7)))
def test_every_check_passes_at_a_drawn_grid(max_n, m, r):
    for name in EXPECTED_NAMES:
        if name == "lemma-grammar-dowling" and r < 0:
            with pytest.raises(BadGrid):
                run_check(name, {"max_n": max_n, "m": (m,), "r": (r,)})
            continue
        rep = _report(name, max_n, m, r)
        assert rep["status"] == "pass", rep
        # an integral r reports the same whichever type it arrives as, and
        # the grid size depends on the axes, not on the value of r
        at_two = _report(name, max_n, m, 2)
        assert _report(name, max_n, m, Fraction(2, 1)) == at_two
        assert rep["grid_size"] == at_two["grid_size"]


def test_run_check_deterministic():
    a = run_check("spivey", {"max_n": 3, "max_h": 3}).to_dict()
    b = run_check("spivey", {"max_n": 3, "max_h": 3}).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_flagged_entries_report_both_routes():
    for name in ("dowling-to-bernoulli", "dowling-to-euler"):
        rep = run_check(name, {"max_n": 3})
        assert rep.status == "pass"
        assert "literal statement: pass" in rep.notes
        assert "connection-constant route: pass" in rep.notes


def test_counterexample_capture_and_reevaluation(monkeypatch):
    def bogus(grid):
        for n in range(grid["max_n"] + 1):
            yield {"n": n, "m": grid["m"][0], "r": grid["r"][0]}, n, n * n

    def corrected(grid):
        for n in range(grid["max_n"] + 1):
            yield {"n": n}, n, n

    check = IdentityCheck(
        name="always-wrong",
        summary="synthetic failing identity",
        grid={"max_n": 5, "m": (1,), "r": (0,)},
        evaluate=bogus,
        variant=corrected,
    )
    monkeypatch.setitem(registry.REGISTRY, "always-wrong", check)
    rep = run_check("always-wrong")
    assert rep.status == "fail"
    ce = rep.counterexample
    assert ce["params"] == {"n": 2, "m": 1, "r": 0}
    assert ce["lhs"] == "2" and ce["rhs"] == "4"
    assert rep.grid_size == 3  # stopped at the first counterexample
    assert "literal statement: FAIL" in rep.notes
    assert "connection-constant route: pass" in rep.notes
    # the reported point re-evaluates under singleton overrides
    again = run_check("always-wrong", {"max_n": ce["params"]["n"]})
    assert again.status == "fail"
    assert again.counterexample["params"]["n"] <= ce["params"]["n"]


@pytest.mark.parametrize("name, key, m_hit, grid_size", [
    ("dowling-to-bernoulli", "bernoulli", 4, 3),
    ("dowling-to-euler", "euler", 4, 3),
    ("dowlstir", ("whitney2", 1, 0), 1, 21),  # T_2 at m = 1, reached after (4, 7) and (4, 0)
])
def test_a_stored_fault_is_reported_at_the_first_point_it_reaches(
        monkeypatch, name, key, m_hit, grid_size):
    # degree 2 of one stored Bernoulli, Euler or Touchard polynomial is made
    # wrong by 1: every route that reads it must stop at n = 2 of the first
    # (m, r) that reads it, in grid order, the unsorted m included
    bernoulli_poly(8), euler_poly(8), touchard_poly(1, 8)
    faulty = list(triangles._POLYS[key])
    faulty[2] = faulty[2] + Poly([1])
    monkeypatch.setitem(triangles._POLYS, key, faulty)
    rep = run_check(name, {"m": (4, 1), "r": (7, 0)})
    d = dowling_poly(m_hit, 7, 2)
    want = {"params": {"m": m_hit, "r": 7, "n": 2},
            "lhs": registry._render(d), "rhs": registry._render(d + Poly([1]))}
    ce = rep.counterexample
    assert rep.status == "fail" and rep.grid_size == grid_size
    assert {k: v for k, v in ce.items() if k != "correction_counterexample"} == want
    assert list(ce["params"]) == ["m", "r", "n"]
    if name != "dowlstir":  # both routes read the family polynomials
        assert ce["correction_counterexample"] == want
        assert rep.notes == ("literal statement: FAIL", "connection-constant route: FAIL")


def test_the_connection_route_reads_its_source(monkeypatch):
    # with the Euler pair as source under the Bernoulli family the constants
    # are wrong, so the route fails; the wrong route is walked as a declared
    # variant is, once per m
    check = registry.REGISTRY["dowling-to-bernoulli"]
    wrong = registry._walk(partial(identities._corrected, source=identities._sheffer_pair_euler,
                                   family=bernoulli_poly), identities._MRN, per=1)
    monkeypatch.setitem(registry.REGISTRY, check.name, replace(check, variant=wrong))
    rep = run_check(check.name, {"max_n": 3})
    assert rep.notes == ("literal statement: pass", "connection-constant route: FAIL")
    assert rep.status == "fail"


def test_the_entrywise_side_reads_missing_coefficients_as_zero():
    # row n of W has n + 1 entries; the shorter side is padded, never cut
    row = [9, 8, 1]  # W(2, k) at m = 2, r = 3
    assert identities._sides(2, 3, 2, Poly([1, 2]), True) == (row, [1, 2, 0])
    assert identities._sides(2, 3, 2, Poly([1, 2, 3, 4]), True) == ([9, 8, 1, 0], [1, 2, 3, 4])


def _stray(p, n):
    """p plus x^(n+1): one coefficient past row n of W."""
    return p + Poly([0] * (n + 1) + [1])


# entrywise twin -> (the printed sum it reads, that sum with a stray term
# past the row it is compared with, the rendered sides at the first point)
STRAY_SUMS = {
    "whitney-convolution": (
        "_spivey_sums",
        lambda f: lambda m, r, n, max_h: tuple(
            _stray(p, n + h) for h, p in enumerate(f(m, r, n, max_h))),
        {"m": 1, "r": 1, "n": 0, "h": 0}, ["1", "0"], ["1", "1"]),
    "whitney-recurrence": (
        "_recurrence_sum",
        lambda f: lambda m, r, n: _stray(f(m, r, n), n + 1),
        {"m": 1, "r": 1, "n": 0}, ["1", "1", "0"], ["1", "1", "1"]),
    "whitney-r-shift": (
        "_shift_sum",
        lambda f: lambda m, s, r, n: _stray(f(m, s, r, n), n),
        {"m": 1, "r": 1, "s": 0, "n": 0}, ["1", "0"], ["1", "1"]),
}


@pytest.mark.parametrize("name", sorted(STRAY_SUMS))
def test_an_entrywise_twin_fails_on_a_stray_coefficient(monkeypatch, name):
    # the entrywise side must read a coefficient past degree n, or the twin
    # passes where its polynomial twin fails
    kernel, plant, params, lhs, rhs = STRAY_SUMS[name]
    monkeypatch.setattr(identities, kernel, plant(getattr(identities, kernel)))
    rep = run_check(name, {"max_n": 2, "m": (1,), "r": (1,)})
    assert rep.status == "fail" and rep.grid_size == 1
    assert rep.counterexample == {"params": params, "lhs": lhs, "rhs": rhs}


def test_sheffer_binomial_rendered_sides():
    # keys are (power of x, power of y), x the Dowling variable:
    # D_2(x + y) = (x + y)^2 + 8(x + y) + 9 at m = 2, r = 3
    want = [[0, 0, "9"], [0, 1, "8"], [0, 2, "1"], [1, 0, "8"], [1, 1, "2"], [2, 0, "1"]]
    lhs, rhs = identities._sheffer_binomial(2, 3, 2)
    assert registry._render(lhs) == want
    assert registry._render(rhs) == want


def test_run_all_subset_and_overrides():
    reports = run_all({"max_n": 3, "max_h": 3}, names=["spivey", "orthogonality"])
    assert [rep.name for rep in reports] == ["orthogonality", "spivey"]
    assert all(rep.status == "pass" for rep in reports)


def test_exact_det_small_cases():
    assert exact_det([]) == 1
    assert exact_det([[5]]) == 5
    assert exact_det([[1, 2], [3, 4]]) == -2
    assert exact_det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert exact_det([[1, 2], [2, 4]]) == 0  # singular
    assert exact_det([[Fraction(1, 2), 0], [7, Fraction(2, 3)]]) == Fraction(1, 3)


@pytest.mark.parametrize("rows", [[[0.5]], [[True, 2], [3, 4]]])
def test_exact_det_refuses_an_inexact_entry(rows):
    with pytest.raises(ValueError):
        exact_det(rows)


def test_exact_det_leaves_its_rows_intact():
    # the elimination writes in place, so it works on a copy of each row
    rows = [[1, 2], [3, 4]]
    exact_det(rows)
    assert rows == [[1, 2], [3, 4]]


def test_exact_det_against_cofactor_expansion():
    import random

    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return Fraction(1)
        if n == 1:
            return Fraction(rows[0][0])
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(minor)
        return total

    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert exact_det(rows) == cofactor_det(rows)


def test_determinant_route_reproduces_dowling():
    for m in (1, 2):
        for r in (0, 2):
            for n in range(6):
                assert dowling_from_determinant(m, r, n) == dowling_poly(m, r, n)
