"""The identity registry and the one runner of its checks.

``_identity`` declares each check at its definition, and ``_walk``, the
one loop over a grid, makes it the registry's generator of (params, lhs,
rhs).  ``run_check`` stops at the first point whose sides differ and
renders both sides of it.  The declarations are in ``whitney.identities``,
which this module never imports: importing the ``whitney`` package
imports them, so the registry is full wherever the package is.
"""

import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain

from .errors import BadGrid, UnknownIdentity
from .grammar import XYPoly
from .poly import Poly
from .qformat import count, exact, rat_str


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    summary: str
    grid: dict
    evaluate: object
    variant: object = None


@dataclass
class CheckReport:
    """Outcome of one identity check.

    ``grid_size`` counts comparisons evaluated; evaluation stops at the
    first counterexample, so on failure it is the 1-based index of the
    failing point.  A counterexample records the grid point and both
    rendered sides, enough to re-evaluate it with matching overrides.
    """

    name: str
    grid_size: int
    status: str
    counterexample: dict | None
    elapsed_ms: int
    notes: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


_BASE = {"max_n": 8, "m": (1, 2, 3), "r": (0, 1, 2, 3)}

REGISTRY: dict = {}


def _points(axes, grid):
    """The params of each point of the product of `axes` at `grid`, the last
    axis varying fastest.  An axis is a grid key ("n" runs over 0..max_n,
    any other key over its tuple) or a pair (name, values), values being a
    tuple, a function of the grid or the key of a bound b (0..b); a tuple
    of names, as ("n", "identity"), takes a tuple of values at each step."""
    points = [{}]
    for axis in axes:
        if isinstance(axis, str):
            axis = axis, "max_n" if axis == "n" else grid[axis]
        name, values = axis
        values = range(grid[values] + 1) if isinstance(values, str) else values
        values = values(grid) if callable(values) else values
        steps = [dict(zip(name, v)) if isinstance(name, tuple) else {name: v} for v in values]
        points = [{**point, **step} for point in points for step in steps]
    return points


def _walk(fn, axes, per=None):
    """The evaluator of a check, the one loop over a grid: fn(**point) gives
    both sides at each point of the product of `axes`.  With `per`,
    fn(grid, *values of the first `per` axes) runs once for each combination
    of them and returns the function that gives both sides from the values
    of the other axes, in order."""

    def evaluate(grid):
        tails = [(tail, tuple(tail.values())) for tail in _points(axes[per or 0:], grid)]
        for head in _points(axes[:per or 0], grid):
            sides = fn if per is None else fn(grid, *head.values())
            for tail, values in tails:
                lhs, rhs = sides(**tail) if per is None else sides(*values)
                yield {**head, **tail} if head else tail, lhs, rhs

    return evaluate


def _identity(name, summary, axes, grid=None, bind=None, variant=None, per=None):
    """Declare the decorated function as the identity check `name`, walked
    over `axes` by `_walk`, with `per` as there.

    `bind` fixes keyword arguments, so that one function serves twin
    identities; `grid` extends the base grid; a `variant`, declared as the
    function is and walked over the same axes, flags the check.
    """

    def declare(fn):
        bound = partial(fn, **bind) if bind else fn
        g = dict(_BASE)
        g.update(grid or {})
        flagged = None if variant is None else _walk(variant, axes, per)
        REGISTRY[name] = IdentityCheck(name, summary, g, _walk(bound, axes, per), flagged)
        return fn

    return declare


# -- runner --------------------------------------------------------------


def registry_names() -> list:
    return sorted(REGISTRY)


def _lookup(name) -> IdentityCheck:
    check = REGISTRY.get(name)
    if check is None:
        raise UnknownIdentity(
            "unknown identity %r; known: %s" % (name, ", ".join(registry_names()))
        )
    return check


def _gate(check, overrides):
    """The check's grid under `overrides`.  Reject a key the grid lacks, a
    value that is not a tuple where the grid holds one, and values no walk
    can take: a max_n, max_h or seed that is not a nonnegative int, an m
    that is not a positive int, or an r, u, l or s that is not exact."""
    name, grid = check.name, dict(check.grid)
    for key, value in overrides.items():
        if key not in grid:
            raise BadGrid("identity %r has no grid key %r" % (name, key))
        if isinstance(grid[key], tuple) and not isinstance(value, tuple):
            raise BadGrid("identity %r: %s must be a tuple, got %r" % (name, key, value))
        grid[key] = value
    try:
        for key in ("max_n", "max_h"):
            if key in grid:
                count(grid[key], key)
        for m in grid.get("m", ()):
            count(m, "m", 1)
        for seed in grid.get("seeds", ()):
            count(seed, "seed")
        for value in chain(*(grid.get(key, ()) for key in ("r", "u", "l", "s"))):
            exact(value)
    except ValueError as exc:  # a BadParameter is one
        raise BadGrid("identity %r: %s" % (name, exc)) from None
    return grid


def _render(v):
    if isinstance(v, Poly):
        return [rat_str(c) for c in v.coeffs]
    if isinstance(v, XYPoly):
        return [[a, b, rat_str(c)] for (a, b), c in sorted(v.terms.items())]
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    return rat_str(v)


def _scan(evaluate, grid):
    points = 0
    for params, lhs, rhs in evaluate(grid):
        points += 1
        if lhs != rhs:
            return points, {"params": dict(params), "lhs": _render(lhs), "rhs": _render(rhs)}
    return points, None


def run_check(name: str, overrides: dict = None) -> CheckReport:
    """Evaluate one registered identity over its grid (or an override).

    Overrides may replace any default grid key, e.g. {"max_n": 4,
    "m": (2,), "r": (3,)}.  Passing the parameters of a reported
    counterexample as singleton overrides re-evaluates that point.  An
    unknown grid key, a tuple key given a value that is not a tuple, a
    negative max_n or max_h, an m that is not a positive int, an inexact
    r, u, l or s, or a grid with no points raises BadGrid, which is a
    ValueError; a check that compared nothing never passes.
    """
    check = _lookup(name)
    grid = _gate(check, overrides or {})
    start = time.perf_counter()
    points, fail = _scan(check.evaluate, grid)
    if points == 0:
        raise BadGrid("identity %r evaluated no grid points" % (name,))
    notes = ()
    if check.variant is not None:
        # flagged entries always report both outcomes: the statement as
        # printed, and the form recomputed from the connection constants
        _, v_fail = _scan(check.variant, grid)
        notes = ("literal statement: %s" % ("pass" if fail is None else "FAIL"),
                 "connection-constant route: %s" % ("pass" if v_fail is None else "FAIL"))
        if v_fail is not None:
            fail = dict(fail) if fail is not None else {}
            fail["correction_counterexample"] = v_fail
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CheckReport(name=name, grid_size=points, status="pass" if fail is None else "fail",
                       counterexample=fail, elapsed_ms=elapsed_ms, notes=notes)


def run_all(overrides: dict = None, names=None) -> list:
    """Run every registered check, or those named, sorted by name.

    Each check takes only the overrides that name keys of its own grid.
    """
    out = []
    for name in registry_names() if names is None else sorted(names):
        grid = _lookup(name).grid
        applicable = {k: v for k, v in (overrides or {}).items() if k in grid}
        out.append(run_check(name, applicable))
    return out
