"""clear_caches() empties every process-wide cache, and every family is
rebuilt from cold with identical values and types; the printed sums that
twin identity checks share report alike cold, warm and in either order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import clear_caches, enumeration, identities, registry, triangles
from whitney.poly import Poly
from whitney.triangles import (
    FAMILY_KINDS,
    SEQUENCE_KINDS,
    TRIANGLE_KINDS,
    bernoulli_poly,
    build_triangle,
    classical_seq,
    dowling_inverse_poly,
    dowling_poly,
    euler_poly,
    family,
    whitney2_row,
)


def snapshot():
    out = []
    for kind in TRIANGLE_KINDS:
        for m in (1, 2, 3):
            for r in (0, 3, Fraction(1, 2)):
                out.append(build_triangle(kind, m, r, 9).rows)
    for kind in FAMILY_KINDS:
        out.append([family(kind, n, m=2, r=Fraction(-5, 3)).coeffs for n in range(9)])
    for kind in SEQUENCE_KINDS:
        out.extend(classical_seq(kind, n) for n in (14, 3))
    for r in (3, Fraction(-5, 3)):
        for poly in (dowling_poly, dowling_inverse_poly):
            out.append([poly(2, r, n).coeffs for n in (7, 2)])
    out.append([poly(n).coeffs for poly in (bernoulli_poly, euler_poly) for n in (9, 4)])
    for n, m, r in ((5, 2, 1), (6, 1, 3)):
        out.append([enumeration.count_whitney_pairs(n, k, m, r) for k in range(n + 1)])
        out.append([enumeration.count_augmented_partitions(n, k, m, r) for k in range(n + 1)])
    return repr(out)  # repr tells an int from an equal Fraction


def test_clear_caches_empties_every_cache():
    snapshot()
    registry.run_all({"max_n": 2, "max_h": 2})
    assert len(identities._SUMS) == 4
    assert all(memo.cache_info().currsize for memo in identities._SUMS)
    clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in identities._SUMS)
    assert triangles._ROWS == {}
    assert triangles._POLYS == {}
    assert triangles._PREFIXES == {}
    assert enumeration._pair_count.cache_info().currsize == 0
    assert enumeration._augmented_count.cache_info().currsize == 0


def test_every_family_is_identical_after_a_clear():
    warm = snapshot()
    clear_caches()
    assert snapshot() == warm
    clear_caches()
    whitney2_row(2, 1, 40)  # a longer row first, then everything cold
    assert snapshot() == warm


def test_row_polynomials_are_built_only_as_far_as_asked():
    clear_caches()
    whitney2_row(2, 1, 60)
    assert dowling_poly(2, 1, 3) == Poly(whitney2_row(2, 1, 3))
    assert len(triangles._POLYS[("whitney2", 2, 1)]) == 4  # rows 0..3, not 0..60
    # an all-int row is its polynomial's numerators, not a copy
    assert dowling_poly(2, 1, 3).coeffs is triangles._ROWS[("whitney2", 2, 1)][3]
    assert dowling_poly(2, Fraction(1), 3) is dowling_poly(2, 1, 3)


def test_evaluators_survive_a_clear_mid_walk():
    # an evaluator holds the row lists it read; a clear_caches() between
    # its points drops them from the store but leaves them intact
    for name in ("spivey", "inverse-relation", "az-recurrences-W1", "dowling-to-euler"):
        check = registry.REGISTRY[name]
        grid = dict(check.grid, max_n=4, m=(2,), r=(3, Fraction(1, 2)))
        points = 0
        for params, lhs, rhs in check.evaluate(grid):
            if points % 3 == 0:
                clear_caches()
            points += 1
            assert lhs == rhs, (name, params)
        assert points > 6


STORED = {
    "touchard": lambda r, n: dowling_poly(2, 0, n),
    "touchard-inverse": lambda r, n: dowling_inverse_poly(2, 0, n),
    "dowling": lambda r, n: dowling_poly(2, r, n),
    "dowling-inverse": lambda r, n: dowling_inverse_poly(2, r, n),
    "bernoulli": lambda r, n: bernoulli_poly(n),
    "euler": lambda r, n: euler_poly(n),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("r", [3, Fraction(-5, 3)])
def test_family_reads_the_stores(kind, r):
    for n in (6, 0, 3):
        got = family(kind, n, m=2, r=r)
        assert got is STORED[kind](r, n)
        assert got == Poly(build_triangle(kind, 2, r, n).rows[n])


# the checks of each group read one memoised printed sum
TWINS = [
    ("spivey", "whitney-convolution"),
    ("dowling-recurrence", "whitney-recurrence"),
    ("r-shift-s", "whitney-r-shift", "dowling-shift", "dowling-shift-l1"),
    ("power-in-dowling", "dowling-umbral-inverse"),
]


def _reports(names, overrides):
    """The reports of `names`, run in that order, with their timings zeroed."""
    out = {}
    for name in names:
        grid = registry.REGISTRY[name].grid
        rep = registry.run_check(name, {k: v for k, v in overrides.items() if k in grid})
        out[name] = dict(rep.to_dict(), elapsed_ms=0)
    return out


@settings(max_examples=12, deadline=None)
@given(st.sets(st.integers(1, 4), min_size=1, max_size=2),
       st.lists(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7)), min_size=1, max_size=2))
def test_twin_checks_report_alike_cold_warm_and_reversed(ms, rs):
    overrides = {"max_n": 4, "max_h": 3, "s": (0, 2), "m": tuple(ms), "r": tuple(rs)}
    for twins in TWINS:
        cold = {}
        for name in twins:
            clear_caches()
            cold.update(_reports([name], overrides))
        clear_caches()
        assert _reports(twins, overrides) == cold  # each twin after the first reads warm
        assert _reports(twins, overrides) == cold  # every twin reads warm
        clear_caches()
        assert _reports(twins[::-1], overrides) == cold


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("name", [name for twins in TWINS for name in twins])
def test_a_bool_or_float_r_fails_warm_as_it_does_cold(name, bad):
    # an r equal to 1 must neither hit the exact r = 1 sums nor be stored
    def failure():
        infos = [memo.cache_info() for memo in identities._SUMS]
        with pytest.raises(ValueError) as info:
            registry.run_check(name, {"max_n": 3, "r": (bad,)})
        assert [memo.cache_info() for memo in identities._SUMS] == infos  # no hit, no entry
        return type(info.value), str(info.value)

    clear_caches()
    cold = failure()
    clear_caches()
    warm = _reports([n for twins in TWINS for n in twins], {"max_n": 3, "r": (1,)})
    assert failure() == cold
    assert _reports(list(warm), {"max_n": 3, "r": (1,)}) == warm
