"""Output checks, written without any code from the program under test.

Every triangle, number sequence and series the workloads ask for is
recomputed here from its own recurrence or definition, in plain Python
integers and Fractions, and every rendered value must re-parse and
render back to the same bytes.  A check raises CheckFailed with a
one-line reason when an output is wrong.
"""

import hashlib
import json
import re
from fractions import Fraction
from math import comb

_RAT = re.compile(r"-?\d+(/\d+)?\Z")

# grid_size of every registered check at its default grid.  The shifted
# grids draw as many m and r values as the default, so they imply the
# same sizes.
EXPECTED_GRID_SIZE = {
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


class CheckFailed(Exception):
    pass


def render(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def rat(s):
    """Parse one rendered rational; it must be in canonical p/q form."""
    if not _RAT.match(s):
        raise CheckFailed("not a rendered rational: %r" % s[:40])
    v = int(s) if "/" not in s else Fraction(s)
    if render(v) != s:
        raise CheckFailed("not in lowest terms: %r" % s[:40])
    return v


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- reference values ----------------------------------------------------


def w2_rows(m, r, n):
    """Second-kind rows 0..n: W(i,k) = W(i-1,k-1) + (km + r) W(i-1,k)."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        row = [0] * (len(prev) + 1)
        for k, v in enumerate(prev):
            row[k + 1] += v
            row[k] += (k * m + r) * v
        rows.append(row)
    return rows


def w1_rows(m, r, n):
    """First-kind rows 0..n: coefficients of (x-r)(x-r-m)...(x-r-(i-1)m)."""
    rows = [[1]]
    for i in range(n):
        prev = rows[-1]
        c = r + m * i
        row = [0] * (len(prev) + 1)
        for k, v in enumerate(prev):
            row[k + 1] += v
            row[k] -= c * v
        rows.append(row)
    return rows


def cauchy_numbers(n):
    """c_j = integral over [0,1] of x(x-1)...(x-j+1), for j = 0..n."""
    out = []
    poly = [1]
    for j in range(n + 1):
        out.append(sum(Fraction(c, i + 1) for i, c in enumerate(poly)))
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= j * c
        poly = nxt
    return out


def bernoulli_ok(b):
    """B_0 = 1 and sum_{j<=n} C(n+1,j) B_j = 0 for every n >= 1."""
    if not b or b[0] != 1:
        return False
    return all(sum(comb(n + 1, j) * b[j] for j in range(n + 1)) == 0 for n in range(1, len(b)))


def euler_zero_ok(e):
    """(e^t + 1) E(t) = 2: sum_j C(n,j) E_j + E_n = 2 [n = 0]."""
    return all(
        sum(comb(n, j) * e[j] for j in range(n + 1)) + e[n] == (2 if n == 0 else 0)
        for n in range(len(e))
    )


def row_sum(n, m, r):
    return sum(w2_rows(m, r, n)[n])


# -- parsing CLI output --------------------------------------------------


def parse_rows(text, fmt):
    if fmt == "csv":
        rows = [[rat(v) for v in line.split(",")] for line in text.splitlines()]
        rendered = "".join(",".join(render(v) for v in row) + "\n" for row in rows)
    else:
        data = json.loads(text)
        rows = [[rat(v) for v in row] for row in data["rows"]]
        rendered = json.dumps(data) + "\n"
    if rendered != text:
        raise CheckFailed("output does not re-render to the same bytes")
    return rows


def parse_series(text, fmt):
    if fmt == "csv":
        coeffs = [rat(v) for v in text.rstrip("\n").split(",")]
        rendered = ",".join(render(c) for c in coeffs) + "\n"
    else:
        data = json.loads(text)
        coeffs = [rat(v) for v in data["egf_coeffs"]]
        if data["order"] != len(coeffs) - 1:
            raise CheckFailed("order field disagrees with the coefficient count")
        rendered = json.dumps(data) + "\n"
    if rendered != text:
        raise CheckFailed("output does not re-render to the same bytes")
    return coeffs


def _expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def _column_pair(ctx, key, values):
    """Pair a series column with the same column of its table, whichever comes first."""
    other = ctx.pop(key, None)
    if other is None:
        ctx[key] = values
        return
    n = min(len(other), len(values))
    _expect(other[:n] == values[:n], "column series differs from the table column")


# -- one check per job kind -----------------------------------------------


def check_verify(spec, text, ctx):
    reports = json.loads(text)
    _expect(len(reports) == 1, "expected one report")
    rep = reports[0]
    _expect(rep["name"] == spec["name"], "report for the wrong check")
    _expect(rep["status"] == "pass", "status %r" % rep["status"])
    want = EXPECTED_GRID_SIZE[spec["name"]]
    _expect(rep["grid_size"] == want, "grid_size %r, grid implies %d" % (rep["grid_size"], want))
    ctx["points"] = ctx.get("points", 0) + rep["grid_size"]
    ctx["checks"] = ctx.get("checks", 0) + 1


def check_table(spec, text, ctx):
    rows = parse_rows(text, spec["fmt"])
    kind, m, r, n = spec["kind"], spec["m"], spec.get("r", 0), spec["n"]
    want = {"whitney2": w2_rows, "whitney1": w1_rows, "mstirling1": w1_rows}[kind](m, r, n)
    _expect(rows == want, "%s rows differ from the reference recurrence" % kind)
    if "k" in spec:
        _column_pair(ctx, (kind, m, r, spec["k"]), [row[spec["k"]] if spec["k"] < len(row) else 0 for row in rows])


def check_series(spec, text, ctx):
    coeffs = parse_series(text, spec["fmt"])
    kind, order = spec["kind"], spec["order"]
    _expect(len(coeffs) == order + 1, "wrong number of coefficients")
    if kind in ("whitney2-column", "whitney1-column"):
        table = "whitney2" if kind == "whitney2-column" else "whitney1"
        _column_pair(ctx, (table, spec["m"], spec["r"], spec["k"]), coeffs)
    elif kind == "dowling-egf":
        u = spec["u"]
        rows = w2_rows(spec["m"], spec["r"], order)
        _expect(coeffs == [sum(v * u ** k for k, v in enumerate(row)) for row in rows], "Dowling EGF differs")
    elif kind == "bernoulli-numbers":
        _expect(bernoulli_ok(coeffs), "Bernoulli numbers fail sum C(n+1,j) B_j = 0")
    elif kind == "euler-zero-values":
        _expect(euler_zero_ok(coeffs), "Euler values fail (e^t + 1) E(t) = 2")
    elif kind == "cauchy1":
        _expect(coeffs == cauchy_numbers(order), "Cauchy numbers differ from the integrals")


def check_poly(spec, text, ctx):
    rows = parse_rows(text, spec["fmt"])
    n = spec["n"]
    _expect(len(rows) == n + 1, "wrong number of family members")
    if spec["kind"] == "dowling":
        _expect(rows == w2_rows(spec["m"], spec["r"], n), "Dowling polynomials differ")
    else:  # bernoulli: B_j(x) = sum_k C(j,k) B_{j-k} x^k
        b = [row[0] for row in rows]
        _expect(bernoulli_ok(b), "constant terms fail sum C(n+1,j) B_j = 0")
        for j, row in enumerate(rows):
            _expect(row == [comb(j, k) * b[j - k] for k in range(j + 1)], "B_%d(x) differs" % j)


def check_oracle(spec, text, ctx):
    n, k, m, r = spec["n"], spec["k"], spec["m"], spec["r"]
    want = w2_rows(m, r, n)[n][k] if k <= n else 0
    fields = text.split()
    _expect(len(fields) == 6 and fields[-1] == "AGREE", "routes do not agree: %r" % text[:80])
    _expect(all(f.split("=")[1] == str(want) for f in fields[:-1]), "count differs from W(n,k) = %d" % want)
    ctx.setdefault("walks", set()).update((n, m, r, model) for model in ("pairs", "mr"))


def check_a_sequence(spec, value, ctx):
    m = spec["m"]
    c = cauchy_numbers(len(value) - 1)
    _expect(len(value) == spec["order"], "A-sequence has the wrong length")
    _expect(list(value) == [m ** j * c[j] for j in range(len(value))], "A-sequence is not m^j c_j")


def check_inverse(spec, value, ctx):
    _expect(value == w1_rows(spec["m"], spec["r"], spec["order"]), "inverse array is not the first-kind triangle")


def check_listing(spec, value, ctx):
    n, k, m, r = spec["n"], spec["k"], spec["m"], spec["r"]
    want = w2_rows(m, r, n)[n][k]
    for model, structures in zip(("pairs", "mr"), value):
        _expect(len(structures) == want, "%s listing has %d structures, count is %d" % (model, len(structures), want))
        _expect(len(set(structures)) == len(structures), "%s listing repeats a structure" % model)
        ctx.setdefault("listed", []).append(len(structures))
        ctx.setdefault("list_walks", []).append((n, m, r))


CHECKS = {
    "verify": check_verify,
    "table": check_table,
    "series": check_series,
    "poly": check_poly,
    "oracle-compare": check_oracle,
    "a_sequence": check_a_sequence,
    "inverse": check_inverse,
    "list": check_listing,
}


def render_lib(lib, value):
    """Text for a library result, in an order that does not depend on hashing."""
    if lib == "list":
        return "\n\n".join("\n".join(sorted(repr(_sorted(s)) for s in model)) for model in value) + "\n"
    if lib == "inverse":
        return "".join(",".join(render(v) for v in row) + "\n" for row in value)
    return ",".join(render(v) for v in value) + "\n"


def _sorted(x):
    if isinstance(x, frozenset):
        return sorted(_sorted(v) for v in x)
    if isinstance(x, tuple):
        return tuple(_sorted(v) for v in x)
    return x


def stdout_digest(verb, text):
    """sha256 of a job's stdout; verify timings are zeroed first."""
    if verb == "verify":
        reports = json.loads(text)
        for rep in reports:
            rep["elapsed_ms"] = 0
        text = json.dumps(reports) + "\n"
    return digest(text)
