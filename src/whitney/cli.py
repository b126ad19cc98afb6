"""Command-line front end.

Verbs: ``table`` (triangle rows), ``poly`` (polynomial family
coefficients), ``series`` (EGF coefficients), ``verify`` (identity
harness), ``oracle-compare`` (cross-check the five routes to one triangle
entry).  All rationals are rendered "p/q" (integers as "p"); nothing is
ever printed in floating point.

Exit codes: 0 success / all checks pass, 1 a verification found a
counterexample or a comparison disagrees, 2 usage error (including
enumeration requests beyond the configured label cap).
"""

import argparse
import functools
import json
import re
import sys

from . import enumeration, registry, riordan, triangles
from .errors import WhitneyError
from .grammar import whitney_row_from_grammar
from .qformat import parse_rat, rat_str, write
from .series import Egf

TABLE_KINDS = triangles.TRIANGLE_KINDS
POLY_KINDS = triangles.FAMILY_KINDS
SERIES_KINDS = triangles.SEQUENCE_KINDS + ("whitney2-column", "whitney1-column", "dowling-egf")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % (text,))
    return value


# argparse takes only "-<digits>" and "-<digits>.<digits>" for negative
# numbers, so "--r -5/3" would read "-5/3" as an option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv):
    """argv with each "--opt -5/3" pair written "--opt=-5/3"."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(arg):
            out[-1] = prev + "=" + arg
        else:
            out.append(arg)
    return out


@functools.lru_cache(maxsize=None)
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged, and
    # the append options default to None, so no list is shared by two calls
    parser = argparse.ArgumentParser(
        prog="whitney", description="exact generalized Stirling-Whitney-Dowling computations")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, kinds, text in (("table", TABLE_KINDS, "print triangle rows 0..n"),
                              ("poly", POLY_KINDS, "print family members of degree 0..n")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("kind", choices=kinds)
        p.add_argument("--m", type=_positive_int, default=1)
        p.add_argument("--r", type=parse_rat, default=0)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")

    p = sub.add_parser("series", help="print EGF coefficients to a given order")
    p.add_argument("kind", choices=SERIES_KINDS)
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--r", type=parse_rat, default=0)
    p.add_argument("--k", type=int, default=0, help="column index for column series")
    p.add_argument("--u", type=parse_rat, default=1, help="evaluation point")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="json")

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("name", help="registered identity name, or 'all'")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--m", type=_positive_int, action="append", default=None)
    p.add_argument("--r", type=parse_rat, action="append", default=None)
    p.add_argument("--format", choices=("json", "pretty"), default="json")

    p = sub.add_parser("oracle-compare",
                       help="compare recurrence, grammar, series, and both enumeration counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--r", type=int, required=True)
    return parser


def _cmd_rows(args, out):
    """table and poly: rows 0..n of a triangle, or of a family's coefficient triangle."""
    tri = triangles.build_triangle(args.kind, args.m, args.r, args.n)
    r = None if tri.r is None else rat_str(tri.r)
    write(out, args.format, tri.rows, {"kind": tri.kind, "m": tri.m, "r": r})
    return 0


def _series_for(args):
    if args.order < 1:
        raise WhitneyError("--order must be at least 1")
    if args.kind in triangles.SEQUENCE_KINDS:
        return Egf(triangles.classical_seq(args.kind, args.order))
    if args.kind == "dowling-egf":
        return riordan._dowling_egf(args.m, args.r, args.u, args.order)
    if not 0 <= args.k <= args.order:
        raise WhitneyError("--k must be between 0 and --order")
    if args.kind == "whitney2-column":
        arr = riordan.whitney2_array(args.m, args.r, args.order)
    else:  # whitney1-column
        arr = riordan.whitney1_array(args.m, args.r, args.order)
    return arr.column(args.k)


def _cmd_series(args, out):
    series = _series_for(args)
    write(out, args.format, series.a, {"order": series.order}, "egf_coeffs", flat=True)
    return 0


def _cmd_verify(args, out):
    overrides = {}
    if args.max_n is not None:
        overrides["max_n"] = args.max_n
    if args.m is not None:
        overrides["m"] = tuple(args.m)
    if args.r is not None:
        overrides["r"] = tuple(args.r)
    if args.name == "all":
        reports = registry.run_all(overrides or None)
    else:
        reports = registry.run_all(overrides or None, names=[args.name])
    if args.format == "json":
        out.write(json.dumps([rep.to_dict() for rep in reports], default=rat_str) + "\n")
    else:
        for rep in reports:
            notes = ("  " + "; ".join(rep.notes)) if rep.notes else ""
            out.write("%-24s %-4s grid=%-5d %5dms%s\n"
                      % (rep.name, rep.status.upper(), rep.grid_size, rep.elapsed_ms, notes))
            if rep.counterexample is not None:
                ce = json.dumps(rep.counterexample, default=rat_str)
                out.write("  counterexample: %s\n" % ce)
    return 0 if all(rep.status == "pass" for rep in reports) else 1


def _cmd_oracle_compare(args, out):
    n, k, m, r = args.n, args.k, args.m, args.r
    # the enumeration route runs first: its label cap must stop an
    # oversized request before the algebraic routes spend time on it
    pairs = enumeration.count_whitney_pairs(n, k, m, r)
    values = {
        "recurrence": triangles.whitney2_row(m, r, n)[k] if k <= n else 0,
        "grammar": whitney_row_from_grammar(m, r, n)[k] if k <= n else 0,
        "egf": triangles.whitney2_row_egf(m, r, n)[k] if k <= n else 0,
        "pairs": pairs,
        "mr": enumeration.count_augmented_partitions(n, k, m, r),
    }
    agree = len(set(values.values())) == 1
    out.write("%s %s\n" % (" ".join("%s=%s" % (name, rat_str(v)) for name, v in values.items()),
                            "AGREE" if agree else "DISAGREE"))
    return 0 if agree else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {"table": _cmd_rows, "poly": _cmd_rows, "series": _cmd_series,
                "verify": _cmd_verify, "oracle-compare": _cmd_oracle_compare}
    try:
        return handlers[args.verb](args, sys.stdout)
    except WhitneyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
