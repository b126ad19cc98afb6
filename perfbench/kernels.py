"""One-shot probe of the kernel rows in the ROADMAP "Baseline" table.

Usage: python3 perfbench/run.py --kernels   (runs this file in a fresh interpreter)

Each kernel is timed in this one process, cold for its first call, and
repeated while it stays cheap; the median is printed beside the figure
the ROADMAP recorded.  Every result is checked against a closed form the
probe computes itself.

Operands: reversion inverts (e^{2t} - 1)/2, whose inverse is ln(1+2t)/2;
the product multiplies e^{3t} by (e^{2t} - 1)/2, whose coefficients are
(5^n - 3^n)/2.  The ROADMAP does not name its operands, so these are the
probe's own choice.
"""

import json
import os
import statistics
import sys
import time
from math import comb, factorial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from whitney.series import Egf, expm1_scaled  # noqa: E402
from whitney.triangles import whitney1_row_egf  # noqa: E402

BUDGET_S = 2.0  # repeat a kernel while its runs so far took less than this


def _int_mul(a, b):
    n = min(len(a), len(b)) - 1
    return [sum(comb(i, j) * a[j] * b[i - j] for j in range(i + 1)) for i in range(n + 1)]


def _reverse_ok(n, got):
    """The inverse of (e^{2t} - 1)/2 is ln(1 + 2t)/2: a_j = (-1)^(j-1) 2^(j-1) (j-1)!."""
    return list(got.a) == [0] + [(-1) ** (j - 1) * 2 ** (j - 1) * factorial(j - 1) for j in range(1, n + 1)]


def kernels():
    mul_a, mul_b = Egf.exp_linear(3, 300), expm1_scaled(2, 300)
    int_a, int_b = [3 ** i for i in range(301)], [0] + [2 ** (i - 1) for i in range(1, 301)]
    product = [(5 ** i - 3 ** i) // 2 for i in range(301)]
    rows = []
    for n, figure in ((20, 0.06), (40, 0.60), (60, 3.1), (80, 12.6)):
        f = expm1_scaled(2, n)
        rows.append(("Egf.reverse order %d" % n, figure, f.reverse, lambda got, n=n: _reverse_ok(n, got)))
    f80 = expm1_scaled(2, 80)
    rows.append(("Egf.reverse_lagrange order 80", 1.7, f80.reverse_lagrange, lambda got: _reverse_ok(80, got)))
    w1 = checks.w1_rows(2, 3, 60)[60]
    rows.append(("whitney1_row_egf(2,3,60)", 0.93, lambda: whitney1_row_egf(2, 3, 60), lambda got: got == w1))
    rows.append(("Egf.mul order 300, Fraction", 0.53, lambda: mul_a.mul(mul_b), lambda got: list(got.a) == product))
    rows.append(("same product, int and math.comb", 0.09, lambda: _int_mul(int_a, int_b), lambda got: got == product))
    out = []
    for name, figure, call, ok in rows:
        times = []
        while not times or (len(times) < 5 and sum(times) < BUDGET_S):
            t0 = time.perf_counter()
            got = call()
            times.append(time.perf_counter() - t0)
        out.append({"kernel": name, "roadmap_s": figure, "median_s": statistics.median(times),
                    "runs": len(times), "correct": bool(ok(got))})
    return out


def main():
    results = kernels()
    print("%-34s %10s %10s %5s %8s %s" % ("kernel", "roadmap s", "median s", "runs", "ratio", "check"))
    for r in results:
        print("%-34s %10.3f %10.3f %5d %8.2f %s" % (
            r["kernel"], r["roadmap_s"], r["median_s"], r["runs"], r["median_s"] / r["roadmap_s"],
            "ok" if r["correct"] else "WRONG"))
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "kernels.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
