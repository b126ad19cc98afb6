"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on passing runs).  Cross-checks use independently computed values wherever
the criterion calls for an independent route.
"""

import time
from fractions import Fraction

from oracle_helpers import bernoulli_recurrence, falling_integral
from whitney.enumeration import (
    augmented_count_row,
    iter_whitney_pairs,
    whitney_pair_count_row,
)
from whitney.grammar import whitney_row_from_grammar
from whitney.identities import dowling_from_determinant
from whitney.registry import run_all, run_check
from whitney.riordan import identity_array, whitney1_array, whitney2_array
from whitney.triangles import (
    dowling_poly,
    m_stirling1_row,
    m_stirling2_row,
    whitney2_row,
    whitney2_row_egf,
)

GRID_M = (1, 2, 3)
GRID_R = (0, 1, 2, 3)

# points each registry entry compares on its default grid
DEFAULT_GRID_SIZE = {
    "az-recurrences-W1": 288,
    "az-recurrences-W2": 288,
    "bernoulli-to-dowling": 108,
    "binomial-recurrences": 48,
    "delta-ops": 48,
    "determinantal": 54,
    "dowling-recurrence": 108,
    "dowling-shift": 432,
    "dowling-shift-l1": 108,
    "dowling-to-bernoulli": 84,
    "dowling-to-euler": 108,
    "dowling-umbral-inverse": 324,
    "dowlstir": 108,
    "egf-dowling": 48,
    "egf-whitney2": 108,
    "euler-to-dowling": 108,
    "inverse-relation": 72,
    "lemma-grammar-dowling": 108,
    "orthogonality": 312,
    "power-in-dowling": 216,
    "r-shift-s": 432,
    "sheffer-binomial-D": 108,
    "spivey": 972,
    "touchard-binomial": 27,
    "umbral-inverse-T": 54,
    "whitney-convolution": 972,
    "whitney-r-shift": 432,
    "whitney-recurrence": 108,
}


def _report(ok: bool, label: str):
    print("ACCEPTANCE %s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def test_criterion_1_four_way_agreement():
    start = time.monotonic()
    ok = True
    for m in GRID_M:
        for r in GRID_R:
            for n in range(8):
                recurrence = whitney2_row(m, r, n)
                ok = ok and whitney_row_from_grammar(m, r, n) == recurrence
                ok = ok and whitney2_row_egf(m, r, n) == recurrence
                ok = ok and whitney_pair_count_row(n, m, r) == recurrence
                ok = ok and augmented_count_row(n, m, r) == recurrence
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(
        ok,
        "criterion 1: recurrence = grammar = series = pair count = augmented count, "
        "n <= 7, m in {1,2,3}, r in {0..3} (%.1fs < 120s)" % elapsed,
    )


def test_criterion_2_worked_examples_with_listings():
    one = list(iter_whitney_pairs(2, 2, 2, 2))
    eight = list(iter_whitney_pairs(2, 1, 2, 3))
    ok = (
        len(one) == 1
        and len(set(one)) == 1
        and len(eight) == 8
        and len(set(eight)) == 8
        and whitney2_row(2, 2, 2)[2] == 1
        and whitney2_row(2, 3, 2)[1] == 8
    )
    _report(ok, "criterion 2: worked entries 1 and 8 with exactly that many structures")


def test_criterion_3_riordan_group_laws():
    ok = True
    ident = identity_array(12).rows(12)
    for m in GRID_M:
        for r in GRID_R:
            w2 = whitney2_array(m, r, 12)
            w1 = whitney1_array(m, r, 12)
            ok = ok and w2.inverse().rows(12) == w1.rows(12)
            ok = ok and w1.mul(w2).rows(12) == ident
    _report(ok, "criterion 3: inverse of second-kind array is first-kind; product is identity, order 12")


def test_criterion_4_identity_harness_all_pass():
    start = time.monotonic()
    reports = run_all()
    elapsed = time.monotonic() - start
    ok = all(rep.status == "pass" for rep in reports)
    flagged = {rep.name: rep for rep in reports if rep.notes}
    ok = ok and set(flagged) == {"dowling-to-bernoulli", "dowling-to-euler"}
    ok = ok and all(
        any("literal statement" in note for note in rep.notes) for rep in flagged.values()
    )
    ok = ok and elapsed < 600.0
    assert {rep.name: rep.grid_size for rep in reports} == DEFAULT_GRID_SIZE
    for rep in reports:
        line = "  %-24s %s grid=%d" % (rep.name, rep.status, rep.grid_size)
        if rep.notes:
            line += "  [%s]" % "; ".join(rep.notes)
        print(line)
    _report(
        ok,
        "criterion 4: all %d registry entries pass on default grids (%.1fs < 600s)"
        % (len(reports), elapsed),
    )


def test_criterion_5_polynomial_identities():
    spivey = run_check("spivey", {"max_n": 6, "max_h": 6})
    touchard = run_check("touchard-binomial", {"max_n": 6})
    sheffer = run_check("sheffer-binomial-D", {"max_n": 6})
    ok = all(rep.status == "pass" for rep in (spivey, touchard, sheffer))
    _report(
        ok,
        "criterion 5: Spivey-style identity and both binomial-type identities as full "
        "polynomial identities, n,h <= 6",
    )


def test_criterion_6_a_sequences():
    cauchy = [falling_integral(j) for j in range(9)]  # independent defining integral
    bern = bernoulli_recurrence(8)  # independent defining recurrence
    ok = True
    for m in GRID_M:
        a2 = whitney2_array(m, 2, 10).a_sequence(8)
        a1 = whitney1_array(m, 2, 10).a_sequence(8)
        ok = ok and a2 == [cauchy[j] * Fraction(m) ** j for j in range(9)]
        ok = ok and a1 == [bern[j] * Fraction(m) ** j for j in range(9)]
        # the A-sequence depends only on f, never on r
        ok = ok and whitney2_array(m, 0, 10).a_sequence(8) == a2
    _report(ok, "criterion 6: A-sequences are Cauchy and Bernoulli numbers scaled by m^j, j <= 8")


def test_criterion_7_determinantal_identity():
    ok = True
    for m in (1, 2):
        for r in (0, 1, 2):
            for n in range(9):
                ok = ok and dowling_from_determinant(m, r, n) == dowling_poly(m, r, n)
    _report(ok, "criterion 7: bordered determinant reproduces the row polynomial, n <= 8")


def test_criterion_8_scaling_and_inversion():
    ok = True
    for m in GRID_M:
        for n in range(13):
            plain = m_stirling2_row(1, n)
            ok = ok and m_stirling2_row(m, n) == [
                m ** (n - k) * plain[k] for k in range(n + 1)
            ]
            for k in range(n + 1):
                s = sum(
                    m_stirling2_row(m, n)[i] * m_stirling1_row(m, i)[k]
                    for i in range(k, n + 1)
                )
                ok = ok and s == (1 if n == k else 0)
    _report(ok, "criterion 8: scaling law and triangle inversion, n <= 12")
