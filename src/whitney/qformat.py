"""Exact rationals and counts: the exactness gate, the canonical form (an
int when the denominator is 1, so integral values compute in ints whatever
type they arrived as), "p/q" strings (integers as "p") of any length, and
the parameter gate every entry point applies to m, n and k, and the one
writer of rows as CSV, JSON or the pretty layout.  Past Python's int/str
digit limit (sys.get_int_max_str_digits()), which is never changed, the
strings are converted in pieces split at a power of ten."""

import json
import re
from fractions import Fraction

from .errors import BadParameter


def exact(x):
    """x itself if it is an int or a Fraction; a bool, float or other value raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("expected an exact rational (int or Fraction), got %r" % (x,))
    return x


def count(v, name, least=0):
    """v itself if it is an int, not a bool, of at least `least` (0 or 1);
    anything else raises BadParameter, which is a ValueError."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise BadParameter("%s must be a %s integer, got %r"
                           % (name, "positive" if least else "nonnegative", v))
    return v


def canonical(x):
    """The exact value x as an int if its denominator is 1, else as a Fraction."""
    x = exact(x)
    return x.numerator if x.denominator == 1 else x


def _int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:  # beyond the digit limit
        if v < 0:
            return "-" + _int_str(-v)
        k = v.bit_length() * 3 // 20  # about half of v's digits
        hi, lo = divmod(v, 10 ** k)
        return _int_str(hi) + _int_str(lo).zfill(k)


def _str_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the digit limit
        k = len(digits) // 2
        return _str_int(digits[:-k]) * 10 ** k + _str_int(digits[-k:])


def rat_str(x) -> str:
    try:
        if type(x) is int:
            return str(x)
        f = x if type(x) is Fraction else Fraction(x)
        if f.denominator == 1:
            return str(f.numerator)
        return "%d/%d" % (f.numerator, f.denominator)
    except ValueError:  # beyond the digit limit
        f = Fraction(x)
        p = _int_str(f.numerator)
        return p if f.denominator == 1 else p + "/" + _int_str(f.denominator)


_LONG_RAT = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")


def parse_rat(s: str):
    """The canonical value of a "p/q" or "p" string."""
    try:
        return canonical(Fraction(s.strip()))
    except ZeroDivisionError:
        # a ValueError, so a command-line "1/0" is a usage error
        raise ValueError("zero denominator in %r" % (s,)) from None
    except ValueError:
        match = _LONG_RAT.fullmatch(s.strip())  # beyond the digit limit
        if match is None:
            raise
    sign, p, q = match.groups()
    p, q = _str_int(p), _str_int(q or "1")
    if not q:
        raise ValueError("zero denominator in %r" % (s,))
    return canonical(Fraction(-p if sign == "-" else p, q))


def write(out, fmt, rows, header, key="rows", flat=False):
    """Write exact values to `out` as "csv", "json" or "pretty" in one
    piece, each value rendered once by rat_str.  `rows` is a list of rows
    or, with `flat`, one row (a series); every row holds at least one
    value, as CSV has no empty row.  CSV is one line per row; JSON is the
    object of the `header` scalars and then `key`, byte for byte what
    json.dumps writes; pretty right-aligns every cell to the widest, or
    writes a flat row as "n: value" lines.  Every output ends in a newline."""
    cells = (map(rat_str, row) for row in ([rows] if flat else rows))
    if fmt == "csv":
        text = "\n".join(map(",".join, cells)) + "\n"
    elif fmt == "json":
        head = "".join("%s: %s, " % (json.dumps(k), json.dumps(v)) for k, v in header.items())
        opening, closing = ('["', '"]}\n') if flat else ('[["', '"]]}\n')
        # a "p/q" string needs no JSON escape (RFC 8259, section 7); one
        # join copies the body once
        body = '"], ["'.join(map('", "'.join, cells))
        text = "".join(("{%s%s: %s" % (head, json.dumps(key), opening), body, closing))
    elif flat:
        text = "".join("%d: %s\n" % item for item in enumerate(next(cells)))
    else:
        cells = [list(row) for row in cells]  # the width needs every cell first
        width = max(len(c) for row in cells for c in row)
        text = "\n".join(" ".join(c.rjust(width) for c in row) for row in cells) + "\n"
    out.write(text)
