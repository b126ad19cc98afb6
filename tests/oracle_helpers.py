"""Independent oracles used by the tests.

Everything here is computed from first principles (brute-force
enumeration, defining recurrences, direct integration) without touching
the package's own triangle or series code, so agreement is meaningful.
"""

from fractions import Fraction
from math import comb

from whitney.qformat import parse_rat


def set_partitions(items):
    """Yield every partition of ``items`` as a list of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def stirling2_brute(n, k):
    return sum(1 for p in set_partitions(range(1, n + 1)) if len(p) == k)


def bernoulli_recurrence(n):
    """B_0..B_n from sum_{k<=m} C(m+1,k) B_k = 0, so B_1 = -1/2."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m))
        out.append(-s / (m + 1))
    return out


def euler_zero_recurrence(n):
    """E_0(0)..E_n(0) from 2 e^{x t} = (e^t + 1) sum E_k(x) t^k/k! at x = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(Fraction(comb(m, k)) * out[k] for k in range(m))
        out.append(-s / 2)
    return out


def bell_recurrence(n):
    """Bell numbers via B_{m+1} = sum_k C(m,k) B_k."""
    out = [1]
    for m in range(n):
        out.append(sum(comb(m, k) * out[k] for k in range(m + 1)))
    return out


def falling_integral(n):
    """Integral over [0,1] of x(x-1)...(x-n+1), expanded by hand."""
    coeffs = [1]  # ascending, coefficient list of the product
    for j in range(n):
        shifted = [0] + coeffs
        coeffs = [s - j * c for s, c in zip(shifted, coeffs + [0])]
    return sum(Fraction(c, i + 1) for i, c in enumerate(coeffs))


def csv_rows(text):
    """The rows of a CSV output, each "p/q" entry read back exactly."""
    return [[parse_rat(v) for v in line.split(",")] for line in text.splitlines()]
