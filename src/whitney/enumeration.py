"""Exhaustive enumeration of the colored-partition structures behind the
second-kind triangle.  These counters are the ground truth that every
algebraic path (recurrence, grammar, series extraction) is checked against,
so nothing here consults a triangle or a generating function.

Two structure models are implemented.

Block/composition pairs over {1..n}
    A pair of (a) an m-colored partition of some subset A into exactly k
    blocks, where each block's minimum element has color 1 and every other
    element carries any of the m colors, and (b) an ordered r-tuple of
    pairwise disjoint, possibly empty sets covering {1..n} - A.

Augmented partitions of {1..n+r}
    Partitions into k+r blocks in which the labels 1..r sit in r distinct
    (special) blocks.  In each non-special block every element except the
    block maximum carries one of m colors; special blocks are uncolored.

Counting walks one recursion branch per concrete structure: elements are
placed in increasing order, and starting a block, joining an existing
block with a specific color, or landing in a specific composition slot are
separate branches.  The walk therefore touches every structure exactly
once; it never multiplies by closed-form factors.

Each walk visits only the structures with exactly the requested k blocks.
Blocks are only ever opened, never removed, and each label still to be
placed can open at most one, so a feasibility bound prunes the rest: a
branch that opens a block runs only while fewer than k are open, and a
branch that joins a block or takes a slot runs only while the open blocks
plus the labels after this one reach k.  A pruned subtree holds no
structure with k blocks, so every counted structure is still reached by
exactly one branch, and the listers yield the same structures in the same
order as an unpruned walk filtered to k.  The bound is an inequality on
the walk's own state, not the recurrence, and the two models keep separate
walks.  A request therefore costs about W(n, k) leaves, not the row sum
over all k.

Instances are capped at n + r labels (default 12, override with the
WHITNEY_ORACLE_MAX_LABELS environment variable) because the structure
count grows super-exponentially.
"""

import os

from .errors import InstanceTooLarge
from .qformat import count

DEFAULT_MAX_LABELS = 12
MAX_LABELS_ENV = "WHITNEY_ORACLE_MAX_LABELS"


def _max_labels() -> int:
    raw = os.environ.get(MAX_LABELS_ENV)
    if raw is None:
        return DEFAULT_MAX_LABELS
    try:
        return int(raw)
    except ValueError:
        raise InstanceTooLarge("%s must be an integer, got %r" % (MAX_LABELS_ENV, raw))


def _guard(n, k, m, r):
    # a bool would walk as 0 or 1, and a float would fail inside the walk
    for name, v, least in (("n", n, 0), ("k", k, 0), ("m", m, 1), ("r", r, 0)):
        count(v, name, least)
    cap = _max_labels()
    if n + r > cap:
        raise InstanceTooLarge(
            "instance needs %d labels, cap is %d (set %s to raise it)"
            % (n + r, cap, MAX_LABELS_ENV)
        )


def count_whitney_pairs(n: int, k: int, m: int, r: int) -> int:
    """Number of block/composition pairs over {1..n} with exactly k blocks."""
    _guard(n, k, m, r)

    # element i: open a block / join block b with color c / take slot s;
    # the bound prunes every branch that cannot end with exactly k blocks
    def place(i, nblocks):
        if i > n:
            return 1 if nblocks == k else 0
        found = place(i + 1, nblocks + 1) if nblocks < k else 0
        if nblocks + n - i >= k:
            for _joined in range(nblocks * m):
                found += place(i + 1, nblocks)
            for _slot in range(r):
                found += place(i + 1, nblocks)
        return found

    return place(1, 0)


def iter_whitney_pairs(n, k, m, r, order=None):
    """Yield each pair with exactly k blocks as (blocks, slots).

    ``blocks`` is a frozenset of blocks, each block a frozenset of
    (element, color) with colors in 1..m; ``slots`` is an r-tuple of
    frozensets.  ``order`` optionally fixes the insertion order of labels;
    the first element placed in a block is the one constrained to color 1,
    so any ordering yields equally many structures.
    """
    _guard(n, k, m, r)
    labels = tuple(order) if order is not None else tuple(range(1, n + 1))
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    blocks = []
    slots = [[] for _ in range(r)]

    def place(i):
        if i == n:
            if len(blocks) == k:
                yield (
                    frozenset(frozenset(b) for b in blocks),
                    tuple(frozenset(s) for s in slots),
                )
            return
        e = labels[i]
        if len(blocks) < k:
            blocks.append([(e, 1)])
            yield from place(i + 1)
            blocks.pop()
        if len(blocks) + n - 1 - i >= k:
            for b in blocks:
                for c in range(1, m + 1):
                    b.append((e, c))
                    yield from place(i + 1)
                    b.pop()
            for s in slots:
                s.append(e)
                yield from place(i + 1)
                s.pop()

    yield from place(0)


def count_augmented_partitions(n: int, k: int, m: int, r: int) -> int:
    """Partitions of {1..n+r} into k+r blocks under the augmented model.

    Labels 1..r lie in distinct special blocks; each non-special block
    colors all of its elements except the maximum with one of m colors.
    """
    _guard(n, k, m, r)

    # element e: join special block s / join non-special block b, coloring
    # the displaced maximum with one of m colors / open a new block; the
    # bound prunes every branch that cannot end with exactly k blocks
    def place(e, nblocks):
        if e > r + n:
            return 1 if nblocks == k else 0
        found = 0
        if nblocks + r + n - e >= k:
            for _special in range(r):
                found += place(e + 1, nblocks)
            for _joined in range(nblocks * m):
                found += place(e + 1, nblocks)
        if nblocks < k:
            found += place(e + 1, nblocks + 1)
        return found

    return place(r + 1, 0)


def iter_augmented_partitions(n, k, m, r):
    """Yield each augmented partition with k non-special blocks as (special, blocks).

    ``special`` is an r-tuple (indexed by special label 1..r) of frozensets
    of attached non-special labels; ``blocks`` is a frozenset of
    non-special blocks, each a frozenset of (element, color) with the block
    maximum carrying color 0 and every other element a color in 1..m.
    Non-special labels are r+1..r+n.
    """
    _guard(n, k, m, r)
    special = [[] for _ in range(r)]
    blocks = []  # each block: list of (element, color); last element has color 0

    def place(e):
        if e == r + n + 1:
            if len(blocks) == k:
                yield (
                    tuple(frozenset(s) for s in special),
                    frozenset(frozenset(b) for b in blocks),
                )
            return
        if len(blocks) + r + n - e >= k:
            for s in special:
                s.append(e)
                yield from place(e + 1)
                s.pop()
            for b in blocks:
                prev, _zero = b[-1]
                for c in range(1, m + 1):
                    b[-1] = (prev, c)
                    b.append((e, 0))
                    yield from place(e + 1)
                    b.pop()
                    b[-1] = (prev, 0)
        if len(blocks) < k:
            blocks.append([(e, 0)])
            yield from place(e + 1)
            blocks.pop()

    yield from place(r + 1)


def count_r_stirling_pairs(n: int, k: int, r: int) -> int:
    """Pairs of an (uncolored) partial partition and a weak r-composition."""
    return count_whitney_pairs(n, k, 1, r)
