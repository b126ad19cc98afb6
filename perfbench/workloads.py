"""The job lists the three workloads send, drawn from a seed.

A job list is what one fresh interpreter runs back to back.  A run draws
LISTS distinct lists from (workload, seed, list index), so the same seed
always gives the same inputs, and sends them to its interpreters in turn.
Sizes sit in narrow bands.  The parameters that move a job's cost most,
(m, r, k, u) and output formats in series-export and the listing in
oracle-cap, are dealt by list index rather than drawn, so that every run
covers the same spread of them and one seed's run costs about what the
next one's does; the seed draws the rest.

A job is a dict with ``argv`` (a ``whitney`` command line) or ``lib`` (a
library call the CLI cannot make), and ``spec``, the parameters its
output check needs.
"""

import random

from checks import EXPECTED_GRID_SIZE, row_sum, w2_rows

LISTS = 3  # distinct job lists per run

# default grid of every registered check, as (number of m values, number of r values)
_DEFAULT_AXES = {name: (3, 4) for name in EXPECTED_GRID_SIZE}
_DEFAULT_AXES["determinantal"] = (2, 3)


def _rng(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


def _cli(argv, **spec):
    return {"argv": [str(a) for a in argv], "spec": spec}


def verify_registry(rng, index):
    """All 28 checks at the default grid, then all 28 at a shifted grid."""
    jobs = [_cli(["verify", name], name=name) for name in sorted(EXPECTED_GRID_SIZE)]
    for name in sorted(EXPECTED_GRID_SIZE):
        n_m, n_r = _DEFAULT_AXES[name]
        argv = ["verify", name]
        for m in sorted(rng.sample(range(1, 5), n_m)):
            argv += ["--m", m]
        for r in sorted(rng.sample(range(0, 8), n_r)):
            argv += ["--r", r]
        jobs.append(_cli(argv, name=name))
    return jobs


# (m, r) pairs for the series-export jobs that take both
_M_R = [(m, r) for m in (2, 3) for r in range(1, 5)]


def series_export(rng, index):
    """High-order series, stepped-product polynomials, large tables, reversion."""
    jobs = []
    slots = iter(range(6))
    outputs = iter(range(11))

    def fmt():
        # alternate, and swap between lists, so each job renders both ways over a run
        return ("csv", "json")[(next(outputs) + index) % 2]

    def m_r():
        # slot s of list i gets pair s + 3i: each list a different six of
        # the eight, each slot three different pairs over a run's lists
        return _M_R[(next(slots) + 3 * index) % len(_M_R)]

    # each column series is paired with the table it must match
    for column_slot, (table, column) in enumerate((("whitney2", "whitney2-column"), ("whitney1", "whitney1-column"))):
        (m, r), k = m_r(), 2 + (index + column_slot) % 2
        n, order, f = rng.randint(205, 215), rng.randint(142, 148), fmt()
        jobs.append(_cli(["table", table, "--m", m, "--r", r, "--n", n, "--format", f],
                         kind=table, m=m, r=r, n=n, k=k, fmt=f))
        f = fmt()
        jobs.append(_cli(["series", column, "--m", m, "--r", r, "--k", k, "--order", order, "--format", f],
                         kind=column, m=m, r=r, k=k, order=order, fmt=f))
    m, n, f = 2 + index % 2, rng.randint(162, 168), fmt()
    jobs.append(_cli(["table", "mstirling1", "--m", m, "--n", n, "--format", f], kind="mstirling1", m=m, n=n, fmt=f))
    (m, r), n, f = m_r(), rng.randint(205, 215), fmt()
    jobs.append(_cli(["poly", "dowling", "--m", m, "--r", r, "--n", n, "--format", f], kind="dowling", m=m, r=r, n=n, fmt=f))
    n, f = rng.randint(51, 53), fmt()
    jobs.append(_cli(["poly", "bernoulli", "--n", n, "--format", f], kind="bernoulli", n=n, fmt=f))
    (m, r), u, order, f = m_r(), 1 + index % 3, rng.randint(245, 255), fmt()
    jobs.append(_cli(["series", "dowling-egf", "--m", m, "--r", r, "--u", u, "--order", order, "--format", f],
                     kind="dowling-egf", m=m, r=r, u=u, order=order, fmt=f))
    for kind, lo, hi in (("bernoulli-numbers", 245, 255), ("euler-zero-values", 245, 255), ("cauchy1", 121, 125)):
        order, f = rng.randint(lo, hi), fmt()
        jobs.append(_cli(["series", kind, "--order", order, "--format", f], kind=kind, order=order, fmt=f))
    # the only user paths into Egf.reverse
    for lib in ("a_sequence", "inverse"):
        m, r = m_r()
        jobs.append({"lib": lib, "spec": {"m": m, "r": r, "order": rng.randint(36, 37)}})
    return jobs


def _w(n, k, m, r):
    return w2_rows(m, r, n)[n][k]


# instances whose walks cost about the same: 4.9e5 to 7e5 structures each
_ORACLE_POOL = [
    (n, m, r)
    for m in range(1, 5)
    for n in range(1, 13)
    for r in range(0, 13 - n)
    if 4.9e5 <= row_sum(n, m, r) <= 7e5
]
# listings of 1500 to 2500 structures from walks of at most 3e4, so that
# holding them adds little to the peak RSS.  They set the list's peak RSS,
# so list i of every run lists the middle one of the i-th third by size
_LIST_POOL = sorted([
    (n, k, m, r)
    for m in range(1, 4)
    for n in range(3, 9)
    for r in range(0, 4)
    for k in range(1, n + 1)
    if row_sum(n, m, r) <= 3e4 and 1500 <= _w(n, k, m, r) <= 2500
], key=lambda p: (_w(*p), p))


def oracle_cap(rng, index):
    """Every instance of the pool once, in a drawn order with a drawn k, and one listing."""
    jobs = []
    for n, m, r in rng.sample(_ORACLE_POOL, len(_ORACLE_POOL)):
        k = rng.randint(0, n)
        jobs.append(_cli(["oracle-compare", "--n", n, "--k", k, "--m", m, "--r", r], n=n, k=k, m=m, r=r))
    n, k, m, r = _LIST_POOL[len(_LIST_POOL) * (2 * index + 1) // (2 * LISTS)]
    jobs.append({"lib": "list", "spec": {"n": n, "k": k, "m": m, "r": r}})
    return jobs


WORKLOADS = {
    "verify-registry": verify_registry,
    "series-export": series_export,
    "oracle-cap": oracle_cap,
}


def jobs_for(workload, seed, index):
    return WORKLOADS[workload](_rng(workload, seed, index), index)
