import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import stirling2_brute
from whitney.enumeration import (
    MAX_LABELS_ENV,
    count_augmented_partitions,
    count_r_stirling_pairs,
    count_whitney_pairs,
    iter_augmented_partitions,
    iter_whitney_pairs,
)
from whitney.errors import InstanceTooLarge
from whitney.triangles import whitney2_row


def block(*pairs):
    return frozenset(pairs)


def test_single_pair_worked_example():
    # the one pair behind the (2,2) entry at m=2, r=2
    assert count_whitney_pairs(2, 2, 2, 2) == 1
    pairs = list(iter_whitney_pairs(2, 2, 2, 2))
    assert pairs == [
        (frozenset({block((1, 1)), block((2, 1))}), (frozenset(), frozenset()))
    ]


def test_eight_pairs_worked_example():
    assert count_whitney_pairs(2, 1, 2, 3) == 8
    got = set(iter_whitney_pairs(2, 1, 2, 3))
    e, s1, s2 = frozenset(), frozenset({1}), frozenset({2})
    want = {
        (frozenset({block((1, 1), (2, 1))}), (e, e, e)),
        (frozenset({block((1, 1), (2, 2))}), (e, e, e)),
        (frozenset({block((1, 1))}), (s2, e, e)),
        (frozenset({block((1, 1))}), (e, s2, e)),
        (frozenset({block((1, 1))}), (e, e, s2)),
        (frozenset({block((2, 1))}), (s1, e, e)),
        (frozenset({block((2, 1))}), (e, s1, e)),
        (frozenset({block((2, 1))}), (e, e, s1)),
    }
    assert got == want
    assert len(got) == 8


def test_plain_partition_specialization():
    assert count_whitney_pairs(4, 2, 1, 0) == 7
    for n in range(7):
        for k in range(n + 1):
            assert count_whitney_pairs(n, k, 1, 0) == stirling2_brute(n, k)


def test_augmented_hand_enumeration():
    # two labels over three specials: the own-block case gives two colorings,
    # attaching either label to a special block gives three slots each
    assert count_augmented_partitions(2, 1, 2, 3) == 8
    got = set(iter_augmented_partitions(2, 1, 2, 3))
    assert len(got) == 8
    e = frozenset()
    own_block = {
        (spec, frozenset({block((4, c), (5, 0))}))
        for c in (1, 2)
        for spec in [(e, e, e)]
    }
    four_attached = {
        (tuple(frozenset({4}) if i == j else e for i in range(3)), frozenset({block((5, 0))}))
        for j in range(3)
    }
    five_attached = {
        (tuple(frozenset({5}) if i == j else e for i in range(3)), frozenset({block((4, 0))}))
        for j in range(3)
    }
    assert got == own_block | four_attached | five_attached


def test_augmented_trivial_cases():
    assert count_augmented_partitions(0, 0, 2, 3) == 1
    assert count_augmented_partitions(3, 2, 1, 0) == 3
    for n in range(6):
        for k in range(n + 1):
            assert count_augmented_partitions(n, k, 1, 0) == stirling2_brute(n, k)


def test_r_stirling_pairs():
    assert count_r_stirling_pairs(2, 2, 5) == 1  # all singletons, empty slots
    assert count_r_stirling_pairs(2, 1, 1) == 3
    assert count_r_stirling_pairs(3, 1, 2) == whitney2_row(1, 2, 3)[1] == 19


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_three_model_agreement_small_grid(m, r):
    for n in range(7):
        row = whitney2_row(m, r, n)
        assert [count_whitney_pairs(n, k, m, r) for k in range(n + 1)] == row
        assert [count_augmented_partitions(n, k, m, r) for k in range(n + 1)] == row


def test_listing_matches_counts():
    for n, k, m, r in ((3, 2, 2, 1), (4, 1, 2, 0), (3, 3, 3, 2), (4, 2, 1, 3)):
        pairs = list(iter_whitney_pairs(n, k, m, r))
        assert len(pairs) == len(set(pairs)) == count_whitney_pairs(n, k, m, r)
        parts = list(iter_augmented_partitions(n, k, m, r))
        assert len(parts) == len(set(parts)) == count_augmented_partitions(n, k, m, r)


def test_relabeling_invariance():
    rng = random.Random(31)
    for n, k, m, r in ((4, 2, 2, 1), (5, 3, 2, 0), (4, 1, 3, 2)):
        want = count_whitney_pairs(n, k, m, r)
        for _ in range(3):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            structures = set(iter_whitney_pairs(n, k, m, r, order=order))
            assert len(structures) == want


def test_out_of_range_k():
    assert count_whitney_pairs(2, 3, 2, 1) == 0
    assert count_augmented_partitions(2, 3, 2, 1) == 0


def test_validation():
    with pytest.raises(ValueError):
        count_whitney_pairs(2, 1, 0, 0)
    with pytest.raises(ValueError):
        count_whitney_pairs(-1, 0, 1, 0)
    for order in ((1, 1, 3), (1, 2), (0, 1, 2)):
        with pytest.raises(ValueError, match="order must be a permutation"):
            list(iter_whitney_pairs(3, 1, 1, 0, order=order))


def test_instance_cap(monkeypatch):
    with pytest.raises(InstanceTooLarge):
        count_whitney_pairs(10, 2, 1, 3)
    monkeypatch.setenv(MAX_LABELS_ENV, "13")
    assert count_whitney_pairs(10, 2, 1, 3) == whitney2_row(1, 3, 10)[2]
    monkeypatch.setenv(MAX_LABELS_ENV, "5")
    with pytest.raises(InstanceTooLarge):
        count_whitney_pairs(4, 2, 1, 2)
    monkeypatch.setenv(MAX_LABELS_ENV, "junk")
    with pytest.raises(InstanceTooLarge):
        count_whitney_pairs(2, 1, 1, 0)


# -- the input gate --------------------------------------------------------

ORACLES = {
    "count_whitney_pairs": count_whitney_pairs,
    "count_augmented_partitions": count_augmented_partitions,
    "iter_whitney_pairs": lambda *a: list(iter_whitney_pairs(*a)),
    "iter_augmented_partitions": lambda *a: list(iter_augmented_partitions(*a)),
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize(
    "args",
    [
        (3, 1, 2.0, 0),
        (3, 1, 2, 0.5),
        (3, 1, True, 0),
        (3.0, 1, 2, 0),
        (3, 1.0, 2, 0),
        (3, False, 2, 0),
        (3, 1, 2, "0"),
        (3, 1, 2, None),
    ],
    ids=["float-m", "float-r", "bool-m", "float-n", "float-k", "bool-k", "str-r", "none-r"],
)
def test_input_gate(oracle, args):
    with pytest.raises(ValueError):
        ORACLES[oracle](*args)


# -- the pruned walks ------------------------------------------------------


def unpruned_pairs(n, k, m, r, order=None):
    """Every pair over every block count, in the module's branch order,
    filtered to k at the leaves."""
    labels = list(order) if order is not None else list(range(1, n + 1))

    def place(i, blocks, slots):
        if i == n:
            if len(blocks) == k:
                yield (frozenset(frozenset(b) for b in blocks), tuple(frozenset(s) for s in slots))
            return
        e = labels[i]
        yield from place(i + 1, blocks + [[(e, 1)]], slots)
        for j, b in enumerate(blocks):
            for c in range(1, m + 1):
                yield from place(i + 1, blocks[:j] + [b + [(e, c)]] + blocks[j + 1 :], slots)
        for j in range(r):
            yield from place(i + 1, blocks, slots[:j] + [slots[j] + [e]] + slots[j + 1 :])

    yield from place(0, [], [[] for _ in range(r)])


def unpruned_augmented(n, k, m, r):
    def place(e, special, blocks):
        if e > r + n:
            if len(blocks) == k:
                yield (tuple(frozenset(s) for s in special), frozenset(frozenset(b) for b in blocks))
            return
        for j in range(r):
            yield from place(e + 1, special[:j] + [special[j] + [e]] + special[j + 1 :], blocks)
        for j, b in enumerate(blocks):
            (top, _zero) = b[-1]
            for c in range(1, m + 1):
                joined = b[:-1] + [(top, c), (e, 0)]
                yield from place(e + 1, special, blocks[:j] + [joined] + blocks[j + 1 :])
        yield from place(e + 1, special, blocks + [[(e, 0)]])

    yield from place(r + 1, [[] for _ in range(r)], [])


SMALL = [(0, 0, 2, 1), (1, 0, 1, 2), (3, 1, 2, 1), (4, 2, 2, 1), (4, 4, 3, 0), (5, 2, 1, 2), (5, 3, 2, 0), (4, 0, 2, 2), (3, 4, 2, 1)]


@pytest.mark.parametrize("n, k, m, r", SMALL)
def test_listers_match_an_unpruned_walk(n, k, m, r):
    assert list(iter_whitney_pairs(n, k, m, r)) == list(unpruned_pairs(n, k, m, r))
    assert list(iter_augmented_partitions(n, k, m, r)) == list(unpruned_augmented(n, k, m, r))


def test_shuffled_order_matches_an_unpruned_walk():
    rng = random.Random(7)
    for n, k, m, r in SMALL:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        want = list(unpruned_pairs(n, k, m, r, order=order))
        assert list(iter_whitney_pairs(n, k, m, r, order=order)) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(1, 3), st.integers(0, 3), st.data())
def test_pruned_walks_agree_with_the_recurrence(n, m, r, data):
    k = data.draw(st.integers(0, n + 1), label="k")
    want = whitney2_row(m, r, n)[k] if k <= n else 0
    assert count_whitney_pairs(n, k, m, r) == want
    assert count_augmented_partitions(n, k, m, r) == want
    # listing builds every structure as frozensets, about 20 us each, so
    # the largest listings (up to 2.3e5 structures here) are left to the counters
    if want <= 2000:
        for lister in (iter_whitney_pairs, iter_augmented_partitions):
            listed = list(lister(n, k, m, r))
            assert len(listed) == len(set(listed)) == want


@pytest.mark.parametrize(
    "n, k, m, r, want",
    [(12, 11, 3, 0, 198), (12, 12, 4, 0, 1), (12, 0, 2, 0, 0), (12, 10, 2, 0, 6820)],
)
def test_extreme_k_at_the_cap_walks_only_its_k(n, k, m, r, want):
    # the row sums here are 5e8 to 9e10 structures; a walk over every k
    # would take hours, a walk over this k takes milliseconds
    assert whitney2_row(m, r, n)[k] == want
    started = time.perf_counter()
    assert count_whitney_pairs(n, k, m, r) == want
    assert count_augmented_partitions(n, k, m, r) == want
    assert time.perf_counter() - started < 2.0
